from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import inscribe.decide as decide_module
import inscribe.separation as separation_module
from inscribe import (
    Certificate,
    IterationLimitError,
    WeightVector,
    certificate_from_json,
    certificate_to_json,
    check_conditions,
    decide_circumscribable,
    decide_inscribable,
    dihedral_angles,
    dual,
    fast_path_four_connected,
    generate,
    min_nonfacial_circuit,
    solve_full_enumeration,
    stack_on_faces,
    verify_certificate,
)

F = Fraction

DATA = Path(__file__).parent / "data"


class TestDecideCircumscribable:
    def test_tetrahedron(self):
        cert = decide_circumscribable(generate("tetrahedron"))
        assert cert.answer == "yes"
        assert cert.graph_role == "primal"
        assert cert.margin == F(1, 6)
        assert all(x == F(1, 3) for x in cert.weights)
        assert cert.lp_status == "optimal"

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
        assert check_conditions(g, cert.weights).ok

    def test_iteration_cap(self):
        # bipyramid(3) needs a cut, so one LP solve cannot finish
        with pytest.raises(IterationLimitError):
            decide_circumscribable(generate("bipyramid", 3), max_iterations=1)

    def test_kleetope_icosahedron(self):
        # the largest multi-round decision in the suite
        g = generate("kleetope(icosahedron)")
        cert = decide_circumscribable(g)
        assert cert.answer == "yes"
        assert cert.margin == F(1, 8)
        assert len(cert.cuts) == 6
        assert cert.iterations == 7
        ok, problems = verify_certificate(cert, g)
        assert ok, problems

    def test_cut_list_reproduces_final_lp(self):
        # prism(3) inscribability goes through its dual and needs a cut
        g = dual(generate("prism", 3)).dual
        cert = decide_circumscribable(g)
        assert cert.answer == "yes"
        assert len(cert.cuts) >= 1
        ok, problems = verify_certificate(cert, g)
        assert ok, problems


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

    @pytest.mark.parametrize("decide,family,n", [
        (decide_inscribable, "kleetope(bipyramid)", 3),
        (decide_inscribable, "kleetope(octahedron)", None),
        (decide_circumscribable, "bipyramid", 3),
    ])
    def test_separation_sees_only_positive_weights(self, monkeypatch, decide, family, n):
        calls = []

        def checked(g, w, faces=None):
            assert all(x > 0 for x in w)
            calls.append(w)
            return min_nonfacial_circuit(g, w, faces)

        monkeypatch.setattr(decide_module, "min_nonfacial_circuit", checked)
        cert = decide(generate(family, n))
        # one oracle call per round, except in the last round of a no
        assert len(calls) == cert.iterations - (not cert.is_yes)


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
        assert check_conditions(pair.dual, cert.weights).ok
        assert tuple(cert.edge_bijection) == pair.primal_to_dual


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


class TestFastPath:
    def test_octahedron_shortcut(self):
        assert fast_path_four_connected(generate("octahedron")) is True

    def test_cube_absent_but_lp_says_yes(self):
        g = generate("cube")
        assert fast_path_four_connected(g) is None
        assert decide_inscribable(g).answer == "yes"
        assert decide_circumscribable(g).answer == "yes"

    def test_antiprism5_shortcut_agrees_with_lp(self):
        g = generate("antiprism", 5)
        assert fast_path_four_connected(g) is True
        assert decide_inscribable(g).answer == "yes"
        assert decide_circumscribable(g).answer == "yes"

    @staticmethod
    def skipped_certificate(graph_role):
        return Certificate(
            answer="yes",
            graph_role=graph_role,
            margin=None,
            weights=None,
            cuts=(),
            iterations=0,
            lp_status="skipped",
        )

    @pytest.mark.parametrize("graph_role", ["primal", "dual"])
    def test_skipped_certificate_verifies_on_four_connected_only(self, graph_role):
        cert = certificate_from_json(
            certificate_to_json(self.skipped_certificate(graph_role))
        )
        assert cert.lp_status == "skipped"
        assert verify_certificate(cert, generate("octahedron")) == (True, [])
        ok, problems = verify_certificate(cert, generate("cube"))
        assert not ok
        assert "not 4-connected" in problems[0]

    @pytest.mark.parametrize("change", [
        {"answer": "no"},
        {"margin": F(1, 4)},
        {"weights": WeightVector((F(1, 4),) * 12)},
    ], ids=["answer-no", "with-margin", "with-weights"])
    def test_skipped_needs_a_bare_yes(self, change):
        cert = replace(self.skipped_certificate("primal"), **change)
        with pytest.raises(ValueError, match="lp_status 'skipped' is not one of"):
            certificate_from_json(certificate_to_json(cert))


class TestDihedralAngles:
    def test_third_weight_gives_pi_over_three(self):
        g = generate("tetrahedron")
        pair = dual(g)
        cert = decide_inscribable(g)
        angles = dihedral_angles(cert, pair)
        assert all(a == F(1, 3) for a in angles.coefficients)

    def test_quarter_weight_gives_right_angle(self):
        # the octahedron's dual is the cube; unit sums over quadrilateral
        # faces force uniform dual weight 1/4, so every ideal dihedral
        # angle is pi/2
        g = generate("octahedron")
        pair = dual(g)
        cert = decide_inscribable(g)
        assert all(x == F(1, 4) for x in cert.weights)
        angles = dihedral_angles(cert, pair)
        assert all(a == F(1, 2) for a in angles.coefficients)

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
        cert = replace(decide_inscribable(g), weights=WeightVector(w))
        with pytest.raises(ValueError, match="outside"):
            dihedral_angles(cert, pair)

    def test_rejects_primal_role(self):
        g = generate("tetrahedron")
        cert = decide_circumscribable(g)
        with pytest.raises(ValueError):
            dihedral_angles(cert, dual(g))


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


class TestGoldenCertificates:
    """Multi-round certificates pinned byte for byte: a change to the LP
    kernel must keep the pivot sequence, so every optimum and every cut
    stays the same."""

    CASES = {
        "kleetope_antiprism_4_circumscribable": (
            decide_circumscribable, lambda: generate("kleetope(antiprism)", 4)),
        "kleetope_bipyramid_3_circumscribable": (
            decide_circumscribable, lambda: generate("kleetope(bipyramid)", 3)),
        "stacked_bipyramid_3_0_4_5_circumscribable": (
            decide_circumscribable,
            lambda: stack_on_faces(generate("bipyramid", 3), [0, 4, 5])),
        "kleetope_cube_inscribable": (
            decide_inscribable, lambda: generate("kleetope(cube)")),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_certificate_bytes(self, name):
        decide, graph = self.CASES[name]
        expected = (DATA / f"{name}.json").read_text()
        assert certificate_to_json(decide(graph())) == expected


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

        def counted(g, w, faces=None):
            calls.append(w)
            return min_nonfacial_circuit(g, w, faces)

        for module in (separation_module, decide_module):
            monkeypatch.setattr(module, "min_nonfacial_circuit", counted)
        ok, problems = verify_certificate(cert, g)
        assert ok, problems
        assert len(calls) == 1

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
            iterations=cert.iterations,
            lp_status="optimal",
            edge_bijection=cert.edge_bijection,
        )
        ok, _ = verify_certificate(flipped, g)
        assert not ok
