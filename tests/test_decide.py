import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import CORPUS_SPECS, GOLDENS, cuboctahedron, random_polyhedral_graph
from reference import solve_full_enumeration

import inscribe.decide as decide_module
import inscribe.lp as lp_module
import inscribe.separation as separation_module
from inscribe import (
    Certificate,
    InternalError,
    PolyhedralGraph,
    certificate_from_json,
    certificate_to_json,
    decide_circumscribable,
    decide_inscribable,
    dihedral_angles,
    dual,
    generate,
    min_nonfacial_circuit,
    stack_on_faces,
    trace_faces,
    verify_certificate,
)
from inscribe.separation import weighting_problems

F = Fraction

DATA = Path(__file__).parent / "data"


# No answers of each LP outcome: face rows only (kleetope), an upper and
# a circuit row among them (stacked prism, one cut), and a Farkas ray
NO_CASES = {
    "kleetope-bipyramid-3": (decide_inscribable, lambda: generate("kleetope(bipyramid)", 3)),
    "stacked-prism-3": (
        decide_circumscribable, lambda: stack_on_faces(generate("prism", 3), [1, 3, 4])),
    "cuboctahedron": (decide_circumscribable, cuboctahedron),
}


class TestDecideCircumscribable:
    def test_tetrahedron(self):
        cert = decide_circumscribable(generate("tetrahedron"))
        assert cert.answer == "yes"
        assert cert.graph_role == "primal"
        assert cert.margin == F(1, 6)
        assert all(x == F(1, 3) for x in cert.weights)
        assert (cert.cuts, cert.iterations, cert.multipliers) == ((), 1, None)

    def test_octahedron(self):
        cert = decide_circumscribable(generate("octahedron"))
        assert cert.answer == "yes"
        full, _ = solve_full_enumeration(generate("octahedron"))
        assert cert.margin == full.margin

    def test_kleetope_tetrahedron_matches_full_enumeration(self):
        g = generate("kleetope(tetrahedron)")
        cert = decide_circumscribable(g)
        full, _ = solve_full_enumeration(g)
        assert cert.margin == full.margin
        assert cert.answer == ("yes" if full.margin > 0 else "no")

    def test_yes_weights_are_a_witness(self):
        g = generate("prism", 5)
        cert = decide_circumscribable(g)
        assert cert.answer == "yes"
        assert weighting_problems(g, cert.weights, cert.margin) == []

    def test_kleetope_icosahedron(self):
        # the largest multi-round decision in the suite
        g = generate("kleetope(icosahedron)")
        cert = decide_circumscribable(g)
        assert cert.answer == "yes"
        assert cert.margin == F(1, 8)
        assert len(cert.cuts) == 10
        assert cert.iterations == 11
        ok, problems = verify_certificate(cert, g)
        assert ok, problems

    def test_cut_list_reproduces_final_lp(self, monkeypatch):
        # prism(3) inscribability goes through its dual and needs a cut
        g = dual(generate("prism", 3)).dual
        cert = decide_circumscribable(g)
        assert cert.answer == "yes"
        assert len(cert.cuts) >= 1
        # verify rebuilds the cuts of a yes but solves no LP
        monkeypatch.setattr(decide_module, "maximize_margin", None)
        ok, problems = verify_certificate(cert, g)
        assert ok, problems

    def test_prism_60(self):
        # two 60-gon faces: an oracle that runs one search per pair of
        # avoided face edges at every edge takes seconds here
        g = generate("prism", 60)
        cert = decide_circumscribable(g)
        assert (cert.answer, cert.margin, cert.iterations) == ("yes", F(1, 60), 1)
        assert verify_certificate(cert, g) == (True, [])


class TestInfeasibleFaceSums:
    """Every cuboctahedron edge borders one triangle and one square, so
    the face sums give the edges a total weight of 8 over the triangles
    and 6 over the squares.  The LP is infeasible, and the no carries a
    Farkas ray in place of a margin."""

    def test_cuboctahedron(self):
        g = cuboctahedron()
        assert (g.vertex_count, g.edge_count) == (12, 24)
        assert sorted(len(f.edge_ids) for f in trace_faces(g)) == [3] * 8 + [4] * 6

    @pytest.mark.parametrize("decide,graph", [
        (decide_circumscribable, cuboctahedron),
        (decide_inscribable, lambda: dual(cuboctahedron()).dual),
    ], ids=["cuboctahedron-circumscribable", "rhombic-dodecahedron-inscribable"])
    def test_no_with_a_farkas_ray(self, decide, graph):
        g = graph()
        cert = decide(g)
        assert (cert.answer, cert.margin, cert.cuts) == ("no", None, ())
        # a null margin is the infeasible case: the multipliers are a ray
        tested = dual(g).dual if cert.graph_role == "dual" else g
        system = lp_module.new_system(tested)
        assert lp_module.multiplier_problems(system, cert.multipliers, None) == []
        assert verify_certificate(cert, g) == (True, [])
        back = certificate_from_json(certificate_to_json(cert))
        assert back == cert
        assert verify_certificate(back, g) == (True, [])

    @pytest.mark.parametrize("margin,problems", [
        (5, ["no certificate records positive margin 5"]),
        # the ray is no bound: the s column stays 0 and y^T b - 1 is -3
        (0, ["columns [24] of y^T A fall below e_s",
             "multipliers bound the margin by -3, not 0"]),
    ])
    def test_infeasible_no_with_a_margin_fails(self, margin, problems):
        g = cuboctahedron()
        doc = json.loads(certificate_to_json(decide_circumscribable(g)))
        doc["margin"] = f"{margin}/1"
        cert = certificate_from_json(json.dumps(doc))
        assert verify_certificate(cert, g) == (False, problems)


class TestNoAtFirstNonPositiveMargin:
    """A relaxation optimum of at most 0 bounds the full optimum, so the
    loop answers no at once, and separation only sees positive weights."""

    def test_kleetope_bipyramid3_stops_in_round_one(self):
        g = generate("kleetope(bipyramid)", 3)
        cert = decide_inscribable(g)
        assert cert.answer == "no"
        assert cert.margin == F(-1, 18)
        assert cert.iterations == 1
        assert cert.cuts == ()
        ok, problems = verify_certificate(cert, g)
        assert ok, problems

    def test_kleetope_octahedron(self):
        g = generate("kleetope(octahedron)")
        cert = decide_inscribable(g)
        assert cert.answer == "no"
        assert cert.margin == F(-1, 12)
        ok, problems = verify_certificate(cert, g)
        assert ok, problems

    def test_kleetope_icosahedron(self):
        # the one tested no whose dual has more than 32 vertices
        g = generate("kleetope(icosahedron)")
        assert dual(g).dual.vertex_count > 32
        cert = decide_inscribable(g)
        assert cert.answer == "no"
        assert cert.margin == F(-2, 15)
        assert cert.cuts == ()
        assert cert.iterations == 1

    # the two kleetope inscribable cases answer no in round 1 and never
    # call the oracle; the others call it in every round but a no's last
    @pytest.mark.parametrize("decide,make,oracle_calls", [
        (decide_inscribable, lambda: generate("kleetope(bipyramid)", 3), 0),
        (decide_inscribable, lambda: generate("kleetope(octahedron)"), 0),
        (decide_circumscribable, lambda: generate("bipyramid", 3), 2),
        (decide_circumscribable, lambda: generate("kleetope(wheel)", 4), 3),
        (decide_circumscribable, lambda: generate("kleetope(bipyramid)", 3), 4),
        (decide_circumscribable, lambda: stack_on_faces(generate("prism", 3), [2, 3, 4]), 1),
    ], ids=[
        "kleetope-bipyramid-3-inscribable", "kleetope-octahedron-inscribable",
        "bipyramid-3", "kleetope-wheel-4", "kleetope-bipyramid-3", "stacked-prism-3-2-3-4",
    ])
    def test_separation_sees_only_positive_weights(
        self, monkeypatch, decide, make, oracle_calls
    ):
        calls, limits, margins = [], [], []

        def checked(g, w, limit):
            assert all(x > 0 for x in w)
            calls.append(w)
            limits.append(limit)
            return min_nonfacial_circuit(g, w, limit)

        def solved(system):
            solution = lp_module.maximize_margin(system)
            margins.append(solution.margin)
            return solution

        monkeypatch.setattr(decide_module, "min_nonfacial_circuit", checked)
        monkeypatch.setattr(decide_module, "maximize_margin", solved)
        cert = decide(make())
        # one oracle call per round, except in the last round of a no
        assert len(calls) == cert.iterations - (not cert.is_yes) == oracle_calls
        # each call looks only below 1 + t, t the margin of its round
        assert limits == [1 + t for t in margins[:len(calls)]]


class TestDecideInscribable:
    def test_tetrahedron_self_dual_case(self):
        cert = decide_inscribable(generate("tetrahedron"))
        assert cert.answer == "yes"
        assert cert.graph_role == "dual"
        assert cert.margin == F(1, 6)
        assert cert.edge_bijection is not None

    def test_kleetope_tetrahedron_is_not_inscribable(self):
        g = generate("kleetope(tetrahedron)")
        cert = decide_inscribable(g)
        assert cert.answer == "no"
        # the answer is established independently by the full enumeration
        full, _ = solve_full_enumeration(dual(g).dual)
        assert full.status == "optimal" and full.margin <= 0
        assert cert.margin == full.margin

    def test_icosahedron(self):
        cert = decide_inscribable(generate("icosahedron"))
        assert cert.answer == "yes"

    def test_weights_are_indexed_by_dual_edges(self):
        g = generate("cube")
        pair = dual(g)
        cert = decide_inscribable(g)
        assert len(cert.weights) == pair.dual.edge_count
        assert weighting_problems(pair.dual, cert.weights, cert.margin) == []
        assert tuple(cert.edge_bijection) == pair.primal_to_dual

    def test_decide_angles_and_verify_build_one_dual(self, monkeypatch):
        g = generate("cube")
        built = []
        real = PolyhedralGraph.__init__

        def counting(graph, vertex_count, edges, rotation):
            built.append(vertex_count)
            real(graph, vertex_count, edges, rotation)

        monkeypatch.setattr(PolyhedralGraph, "__init__", counting)
        cert = decide_inscribable(g)
        dihedral_angles(cert, dual(g))
        assert verify_certificate(cert, g) == (True, [])
        assert built == [6]  # the cube's dual, the octahedron

    def test_antiprism_40(self):
        # a phase 1 that runs past its objective's 0 makes hundreds of
        # degenerate pivots on this dual
        g = generate("antiprism", 40)
        cert = decide_inscribable(g)
        assert (cert.answer, cert.margin, cert.iterations) == ("yes", F(1, 4), 1)
        assert verify_certificate(cert, g) == (True, [])


class TestDualityConsistency:
    @pytest.mark.parametrize("family,n", [
        ("tetrahedron", None),
        ("cube", None),
        ("wheel", 5),
        ("kleetope(tetrahedron)", None),
    ])
    def test_both_directions(self, family, n):
        g = generate(family, n)
        pair = dual(g)
        assert decide_inscribable(g).answer == decide_circumscribable(pair.dual).answer
        # the reverse direction runs the LP on the double dual, an
        # independently renumbered copy of g
        assert decide_circumscribable(g).answer == decide_inscribable(pair.dual).answer


class TestRandomPolyhedralGraphs:
    def test_answers_are_certified_and_consistent(self):
        rng = random.Random(20261018)
        for _ in range(40):
            name, g = random_polyhedral_graph(rng)
            pair = dual(g)
            insc, circ = decide_inscribable(g), decide_circumscribable(g)
            for cert in (insc, circ):
                back = certificate_from_json(certificate_to_json(cert))
                assert back == cert, name
                assert verify_certificate(back, g) == (True, []), name
                assert cert.iterations == len(cert.cuts) + 1, name
                assert len(set(cert.cuts)) == len(cert.cuts), name
                if cert.is_yes:
                    assert cert.weights is not None, name
                    assert cert.margin is not None and cert.margin > 0, name
            assert insc.answer == decide_circumscribable(pair.dual).answer, name
            assert circ.answer == decide_inscribable(pair.dual).answer, name
            if g.vertex_count <= 12:
                full, _ = solve_full_enumeration(pair.dual)
                full_yes = full.status == "optimal" and full.margin > 0
                assert insc.is_yes == full_yes, name
                if insc.is_yes:
                    assert insc.margin == full.margin, name


class TestDihedralAngles:
    def test_third_weight_gives_pi_over_three(self):
        g = generate("tetrahedron")
        pair = dual(g)
        cert = decide_inscribable(g)
        angles = dihedral_angles(cert, pair)
        assert angles == (F(1, 3),) * 6

    def test_quarter_weight_gives_right_angle(self):
        # the octahedron's dual is the cube; unit sums over quadrilateral
        # faces force uniform dual weight 1/4, so every ideal dihedral
        # angle is pi/2
        g = generate("octahedron")
        pair = dual(g)
        cert = decide_inscribable(g)
        assert all(x == F(1, 4) for x in cert.weights)
        angles = dihedral_angles(cert, pair)
        assert angles == (F(1, 2),) * 12

    def test_rejects_no_certificates(self):
        g = generate("kleetope(tetrahedron)")
        cert = decide_inscribable(g)
        with pytest.raises(ValueError):
            dihedral_angles(cert, dual(g))

    def test_rejects_weights_that_miss_a_face_sum(self):
        g = generate("cube")
        cert = certificate_from_json(
            certificate_to_json(decide_inscribable(g)).replace('"1/3"', '"1/5"', 1)
        )
        with pytest.raises(ValueError, match="sums to"):
            dihedral_angles(cert, dual(g))

    def test_rejects_coefficient_outside_open_interval(self):
        # every face of K4 has one edge of each perfect matching, so 1/2
        # on one matching and 1/4 elsewhere keeps the unit face sums but
        # gives angle coefficient 0
        g = generate("tetrahedron")
        pair = dual(g)
        u, v = pair.dual.edges[0]
        w = tuple(
            F(1, 2) if {a, b} == {u, v} or not {a, b} & {u, v} else F(1, 4)
            for a, b in pair.dual.edges
        )
        cert = decide_inscribable(g)._replace(weights=w)
        with pytest.raises(ValueError, match="outside"):
            dihedral_angles(cert, pair)

    def test_rejects_primal_role(self):
        g = generate("tetrahedron")
        cert = decide_circumscribable(g)
        with pytest.raises(ValueError):
            dihedral_angles(cert, dual(g))

    def test_rejects_another_graphs_dual(self):
        cert = decide_inscribable(generate("tetrahedron"))
        with pytest.raises(ValueError, match="^certificate does not match the dual graph$"):
            dihedral_angles(cert, dual(generate("cube")))


class TestCertificateSerialization:
    def test_roundtrip(self):
        for family in ("tetrahedron", "kleetope(tetrahedron)"):
            g = generate(family)
            cert = decide_inscribable(g)
            text = certificate_to_json(cert)
            back = certificate_from_json(text)
            assert back == cert

    def test_byte_identical_reruns(self):
        g = generate("bipyramid", 5)
        a = certificate_to_json(decide_inscribable(g))
        b = certificate_to_json(decide_inscribable(g))
        assert a == b

    def test_rationals_serialized_as_p_over_q(self):
        cert = decide_circumscribable(generate("tetrahedron"))
        text = certificate_to_json(cert)
        assert '"margin": "1/6"' in text
        assert '"1/3"' in text

    @pytest.mark.parametrize("family,tamper,message", [
        ("cube", lambda d: d.update(angles=dict.fromkeys(d["angles"], "1/7")),
         "angle of edge 0 is not 1 - 2 w"),
        ("cube", lambda d: d["angles"].pop("11"), "11 angles for 12 edges"),
        ("cube", lambda d: d["edge_bijection"].update({"0": 99}),
         "edge_bijection value 99 names no weighted edge"),
        ("kleetope(tetrahedron)",
         lambda d: d.update(weights={str(e): "1/3" for e in range(18)},
                            angles={str(e): "1/3" for e in range(18)}),
         "angles belong only to a dual-role yes"),
    ], ids=["every-angle-1/7", "angle-missing", "bijection-out-of-range", "no-with-angles"])
    def test_angles_must_follow_from_the_weights(self, family, tamper, message):
        g = generate(family)
        cert = decide_inscribable(g)
        angles = dihedral_angles(cert, dual(g)) if cert.is_yes else None
        doc = json.loads(certificate_to_json(cert, angles))
        assert certificate_from_json(json.dumps(doc)) == cert
        tamper(doc)
        with pytest.raises(ValueError, match=message):
            certificate_from_json(json.dumps(doc))

    # a format-1 yes with no weights or margin, as the removed
    # 4-connected fast path wrote it, less its `fast_path` key, which is
    # now unknown, and with the `multipliers` key that the parser requires
    BARE_SKIPPED_YES = """{
  "answer": "yes",
  "graph_role": "dual",
  "margin": null,
  "weights": null,
  "angles": null,
  "cuts": [],
  "iterations": 0,
  "lp_status": "skipped",
  "multipliers": null,
  "edge_bijection": null
}
"""

    @pytest.mark.parametrize("change,problem", [
        ({"answer": "no"}, "no certificate lacks multipliers"),
        ({"margin": "1/4"}, "yes certificate lacks weights or margin"),
        ({"weights": {str(e): "1/4" for e in range(12)}},
         "yes certificate lacks weights or margin"),
        ({}, "yes certificate lacks weights or margin"),
    ], ids=["answer-no", "with-margin", "with-weights", "bare-yes"])
    def test_skipped_status_is_rejected(self, change, problem):
        # every answer comes from the LP, so no certificate skips it: the
        # status was format 1's, and without it the answer has no proof
        doc = {**json.loads(self.BARE_SKIPPED_YES), **change}
        with pytest.raises(ValueError, match="certificate format 1 is not read"):
            certificate_from_json(json.dumps(doc))
        del doc["iterations"], doc["lp_status"]
        cert = certificate_from_json(json.dumps(doc))
        assert verify_certificate(cert, generate("cube")) == (
            False, ["recorded edge bijection does not match the dual", problem])


class TestGoldenCertificates:
    """Certificates pinned byte for byte, the multi-round ones and three noes: a
    change to the LP kernel must keep the pivot sequence, so every
    optimum, every cut and every multiplier stays the same."""

    @pytest.mark.parametrize("name", GOLDENS)
    def test_certificate_bytes(self, name):
        decide, graph = GOLDENS[name]
        expected = (DATA / f"{name}.json").read_text()
        assert certificate_to_json(decide(graph())) == expected

    # every corpus graph and four kleetopes (kleetope(tetrahedron) again,
    # kleetope(antiprism) 6 of several rounds): 68 decisions
    DIGEST_SPECS = CORPUS_SPECS + [
        ("kleetope(tetrahedron)", None),
        ("kleetope(wheel)", 4),
        ("kleetope(bipyramid)", 3),
        ("kleetope(antiprism)", 6),
    ]

    def test_certificate_digest(self):
        # both questions on each graph; pinned: when the simplex reduces
        # a row by its gcd changes no certificate byte, while solving the
        # dual from the last basis moved it
        digest = hashlib.sha256()
        for family, n in self.DIGEST_SPECS:
            g = generate(family, n)
            for decide in (decide_inscribable, decide_circumscribable):
                digest.update(certificate_to_json(decide(g)).encode())
        assert digest.hexdigest() == (
            "b0245b08f579ad0c7f082213d3520a4120a7cebf7c15b06664c39aa5d964320e")


class TestVerifyCertificate:
    def test_yes_certificate_passes(self):
        g = generate("antiprism", 4)
        ok, problems = verify_certificate(decide_inscribable(g), g)
        assert ok, problems

    def test_no_certificate_passes(self):
        g = generate("kleetope(tetrahedron)")
        ok, problems = verify_certificate(decide_inscribable(g), g)
        assert ok, problems

    @pytest.mark.parametrize("decide,family", [
        (decide_circumscribable, "cube"),
        (decide_inscribable, "dodecahedron"),
    ])
    def test_yes_runs_the_oracle_once(self, monkeypatch, decide, family):
        g = generate(family)
        cert = decide(g)
        assert cert.is_yes
        calls = []

        def counted(g, w, limit):
            calls.append(limit)
            return min_nonfacial_circuit(g, w, limit)

        for module in (separation_module, decide_module):
            monkeypatch.setattr(module, "min_nonfacial_circuit", counted)
        ok, problems = verify_certificate(cert, g)
        assert ok, problems
        # a genuine yes's margin is its bound slack, the limit verify uses
        assert calls == [1 + cert.margin]

    def test_tampered_weights_fail(self):
        g = generate("tetrahedron")
        cert = decide_inscribable(g)
        tampered = certificate_from_json(
            certificate_to_json(cert).replace('"1/3"', '"1/4"')
        )
        ok, problems = verify_certificate(tampered, g)
        assert not ok
        assert problems

    def test_tampered_answer_fails(self):
        g = generate("kleetope(tetrahedron)")
        cert = decide_inscribable(g)
        flipped = Certificate(
            answer="yes",
            graph_role=cert.graph_role,
            margin=F(1, 10),
            weights=decide_inscribable(generate("tetrahedron")).weights,
            cuts=cert.cuts,
            edge_bijection=cert.edge_bijection,
        )
        ok, _ = verify_certificate(flipped, g)
        assert not ok
        # a null margin is an infeasible LP, which no yes has
        cube = generate("cube")
        infeasible = decide_inscribable(cube)._replace(margin=None)
        ok, problems = verify_certificate(infeasible, cube)
        assert not ok
        assert problems == ["yes certificate lacks weights or margin"]

    def test_yes_cuts_are_checked(self):
        g = generate("kleetope(bipyramid)", 3)
        doc = json.loads((DATA / "kleetope_bipyramid_3_circumscribable.json").read_text())
        assert doc["answer"] == "yes"
        doc.update(cuts=[[0, 1, 999]])
        ok, problems = verify_certificate(certificate_from_json(json.dumps(doc)), g)
        assert not ok
        assert problems == [
            "cut [0, 1, 999] does not rebuild: edge set names an unknown edge",
        ]

    @pytest.mark.parametrize("graph,cut", [
        (lambda: generate("kleetope(bipyramid)", 3), [0, 2, 16, 0]),
        (lambda: generate("kleetope(bipyramid)", 3), [16, 2, 0]),
        (lambda: generate("kleetope(bipyramid)", 3), [2, 16, 0]),
        (lambda: stack_on_faces(generate("prism", 3), [1, 3, 4]), [11, 13, 15, 11]),
    ], ids=["yes-closed-up", "yes-reversed", "yes-rotated", "no-closed-up"])
    def test_cut_out_of_canonical_form_fails(self, graph, cut):
        # the first cut's edges in another order rebuild the same row
        g = graph()
        cert = decide_circumscribable(g)
        canonical = list(cert.cuts[0])
        assert set(cut) == set(canonical) and cut != canonical
        assert verify_certificate(cert, g) == (True, [])
        tampered = cert._replace(cuts=(tuple(cut),) + cert.cuts[1:])
        assert verify_certificate(tampered, g) == (False, [
            f"cut {cut} does not rebuild: its canonical form is {canonical}",
        ])

    @pytest.mark.parametrize("decide,family,change,problem", [
        (decide_inscribable, "cube", {"edge_bijection": None},
         "recorded edge bijection does not match the dual"),
        (decide_circumscribable, "cube", {"edge_bijection": tuple(range(12))},
         "primal certificate records an edge bijection"),
        (decide_inscribable, "kleetope(tetrahedron)", {"weights": (F(1, 3),) * 18},
         "no certificate carries weights"),
        (decide_inscribable, "cube", {"margin": F(1, 100)},
         "recomputed slack 1/6 differs from recorded margin 1/100"),
        (decide_inscribable, "cube", {"multipliers": (F(0),) * 20},
         "yes certificate carries multipliers"),
        (decide_inscribable, "kleetope(tetrahedron)", {"multipliers": None},
         "no certificate lacks multipliers"),
        (decide_inscribable, "kleetope(tetrahedron)", {"margin": None},
         "ray gives y^T b = 2, not below 0"),
        (decide_inscribable, "kleetope(tetrahedron)", {"margin": F(1, 9)},
         "no certificate records positive margin 1/9"),
    ], ids=["dual-without-bijection", "primal-with-bijection", "no-with-weights",
            "yes-below-optimum", "yes-with-multipliers", "no-without-multipliers",
            "optimal-no-without-margin", "no-with-positive-margin"])
    def test_bijection_weights_and_margin_are_checked(self, decide, family, change, problem):
        g = generate(family)
        ok, problems = verify_certificate(decide(g)._replace(**change), g)
        assert (ok, problems) == (False, [problem])

    # corruptions of the bipyramid-3 yes: weights 5/16 on the six
    # spokes, 3/8 on the rim, margin 1/8, one cut (the rim)
    @pytest.mark.parametrize("corrupt,problems", [
        (lambda c: {"weights": (c.weights[0] + F(1, 97),) + c.weights[1:]},
         ["face 0 sums to 98/97", "face 1 sums to 98/97"]),
        (lambda c: {"weights": (-c.weights[0],) + c.weights[1:]},
         ["bound violations on edges (0,)", "face 0 sums to 3/8", "face 1 sums to 3/8"]),
        (lambda c: {"weights": (F(1, 2),) * 9},
         ["bound violations on edges (0, 1, 2, 3, 4, 5, 6, 7, 8)"]
         + [f"face {i} sums to 3/2" for i in range(6)]),
        (lambda c: {"weights": (F(0),) * 9},
         ["bound violations on edges (0, 1, 2, 3, 4, 5, 6, 7, 8)"]
         + [f"face {i} sums to 0" for i in range(6)]
         + ["circuit (0, 1, 5, 3) weighs 0 <= 1"]),
        (lambda c: {"weights": (F(1, 3),) * 9},
         ["circuit (6, 7, 8) weighs 1 <= 1"]),
        (lambda c: {"weights": c.weights[1:] + c.weights[:1]},
         ["face 2 sums to 15/16", "face 3 sums to 17/16"]),
        (lambda c: {"margin": c.margin / 2},
         ["recomputed slack 1/8 differs from recorded margin 1/16"]),
        (lambda c: {"margin": F(0)},
         ["margin 0 is not positive", "recomputed slack 1/8 differs from recorded margin 0"]),
    ], ids=["weight-plus-1/97", "weight-negated", "all-half", "all-zero", "all-third",
            "rotated", "margin-halved", "margin-zero"])
    def test_each_yes_failure_is_listed(self, corrupt, problems):
        g = generate("bipyramid", 3)
        cert = decide_circumscribable(g)
        assert (cert.margin, cert.cuts) == (F(1, 8), ((6, 7, 8),))
        assert verify_certificate(cert._replace(**corrupt(cert)), g) == (False, problems)

    @pytest.mark.parametrize("decide,family,n,cuts", [
        (decide_inscribable, "kleetope(tetrahedron)", None, 0),
        (decide_circumscribable, "kleetope(bipyramid)", 3, 3),
    ])
    def test_iterations_are_derived_from_the_cuts(self, decide, family, n, cuts):
        cert = decide(generate(family, n))
        assert (len(cert.cuts), cert.iterations) == (cuts, cuts + 1)
        # a property of the cuts: neither a field nor a JSON key
        with pytest.raises(ValueError, match="iterations"):
            cert._replace(iterations=42)
        assert "iterations" not in json.loads(certificate_to_json(cert))


class TestNoMultipliers:
    """A no is verified from its LP multipliers, with no LP solved."""

    @pytest.mark.parametrize("case", NO_CASES)
    def test_verify_solves_no_lp(self, monkeypatch, case):
        decide, graph = NO_CASES[case]
        g = graph()
        cert = decide(g)
        assert not cert.is_yes and cert.multipliers is not None
        monkeypatch.setattr(decide_module, "maximize_margin", None)
        monkeypatch.setattr(lp_module, "_solve_lp", None)
        assert verify_certificate(cert, g) == (True, [])

    def test_one_row_of_each_kind(self):
        decide, graph = NO_CASES["stacked-prism-3"]
        g = graph()
        cert = decide(g)
        assert (cert.margin, len(cert.cuts)) == (0, 1)
        y = cert.multipliers
        assert len(y) == g.edge_count + len(trace_faces(g)) + 1
        assert y[6] == F(2, 3)  # upper row of edge 6
        assert y[-1] == F(-1, 3)  # the circuit row of the one cut

    @pytest.mark.parametrize("case,change,problems", [
        ("stacked-prism-3", lambda y: y[:6] + [-y[6]] + y[7:], [
            "multiplier 6 of upper row 6 is -2/3, not >= 0",
            "columns [6, 20] of y^T A fall below e_s",
            "multipliers bound the margin by -10/3, not 0",
        ]),
        ("stacked-prism-3", lambda y: y[:-1] + [-y[-1]], [
            "multiplier 33 of circuit row (11, 13, 15) is 1/3, not <= 0",
            "multipliers bound the margin by 2, not 0",
        ]),
        ("kleetope-bipyramid-3", lambda y: y[:27] + [F(1, 9)] + y[28:], [
            "multipliers bound the margin by 1/3, not -1/18",
        ]),
        ("kleetope-bipyramid-3", lambda y: y[:-1], ["37 multipliers for 38 rows"]),
        ("cuboctahedron", lambda y: [-x for x in y], ["ray gives y^T b = 4, not below 0"]),
    ], ids=["upper-sign-flipped", "circuit-sign-flipped", "face-entry-changed",
            "entry-dropped", "ray-negated"])
    def test_corrupted_multipliers_fail(self, case, change, problems):
        decide, graph = NO_CASES[case]
        g = graph()
        cert = decide(g)
        tampered = cert._replace(multipliers=tuple(change(list(cert.multipliers))))
        assert verify_certificate(tampered, g) == (False, problems)

    def test_decide_checks_the_multipliers(self, monkeypatch):
        def no_ray(system):
            return lp_module.maximize_margin(system)._replace(
                multipliers=(F(0),) * len(system.rows),
            )

        monkeypatch.setattr(decide_module, "maximize_margin", no_ray)
        with pytest.raises(InternalError, match="LP multipliers fail: ray gives"):
            decide_circumscribable(cuboctahedron())
