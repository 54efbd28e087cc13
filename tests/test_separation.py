import random
from fractions import Fraction

import pytest

from inscribe import (
    Circuit,
    VertexCapError,
    WeightVector,
    all_nonfacial_circuits,
    brute_force_min_nonfacial,
    check_conditions,
    generate,
    min_cycle_through_edge,
    min_nonfacial_circuit,
    trace_faces,
)

THIRD = Fraction(1, 3)


def uniform(g, value=THIRD):
    return WeightVector.uniform(g.edge_count, value)


class TestCircuit:
    def test_canonical_form_rotation_and_reflection(self):
        g = generate("cube")
        c = all_nonfacial_circuits(g)[0]
        ids = c.edge_ids
        rotated = ids[2:] + ids[:2]
        reflected = tuple(reversed(ids))
        assert Circuit.from_cycle_edges(g, rotated) == c
        assert Circuit.from_cycle_edges(g, reflected) == c

    def test_from_edge_set_matches_cycle_order(self):
        g = generate("octahedron")
        for c in all_nonfacial_circuits(g)[:10]:
            assert Circuit.from_edge_set(g, set(c.edge_ids)) == c

    def test_rejects_non_cycles(self):
        g = generate("cube")
        with pytest.raises(ValueError):
            Circuit.from_edge_set(g, {0, 1, 2})  # path, not a cycle


class TestMinCycleThroughEdge:
    def test_k4_facial_triangle(self):
        g = generate("tetrahedron")
        circuit, weight = min_cycle_through_edge(g, uniform(g), g.edge_id(0, 1))
        assert weight == 1
        assert len(circuit) == 3

    def test_k4_forbidden_pair_forces_long_way(self):
        g = generate("tetrahedron")
        w = uniform(g)
        e = g.edge_id(0, 1)
        forbidden = {g.edge_id(0, 2), g.edge_id(1, 3)}
        circuit, weight = min_cycle_through_edge(g, w, e, forbidden)
        # independent derivation: scan every cycle of K4 through e that
        # avoids the forbidden edges
        best = min(
            c.weight(w)
            for c in _all_cycles(g)
            if e in c.edge_ids and not forbidden & set(c.edge_ids)
        )
        assert weight == best == Fraction(4, 3)
        expected = {e, g.edge_id(0, 3), g.edge_id(3, 2), g.edge_id(2, 1)}
        assert set(circuit.edge_ids) == expected

    def test_isolated_endpoint_returns_none(self):
        g = generate("tetrahedron")
        e = g.edge_id(0, 1)
        others_at_0 = {x for x in g.rotation[0] if x != e}
        assert min_cycle_through_edge(g, uniform(g), e, others_at_0) is None

    def test_forbidding_required_edge_rejected(self):
        g = generate("tetrahedron")
        with pytest.raises(ValueError):
            min_cycle_through_edge(g, uniform(g), 0, {0})

    def test_negative_weights_rejected(self):
        g = generate("tetrahedron")
        w = WeightVector.of([-1] + [1] * 5)
        with pytest.raises(ValueError):
            min_cycle_through_edge(g, w, 1)


def _all_cycles(g):
    """All simple cycles: every face boundary plus every non-facial circuit."""
    facial = [Circuit.from_edge_set(g, f.edge_ids) for f in trace_faces(g)]
    return facial + list(all_nonfacial_circuits(g))


class TestMinNonfacialCircuit:
    def test_k4_hamiltonian(self):
        g = generate("tetrahedron")
        circuit, weight = min_nonfacial_circuit(g, uniform(g))
        assert weight == Fraction(4, 3)
        assert len(circuit) == 4

    def test_octahedron_equator(self):
        g = generate("octahedron")
        circuit, weight = min_nonfacial_circuit(g, uniform(g))
        assert weight == Fraction(4, 3)
        assert len(circuit) == 4

    def test_cube_with_one_cheap_face(self):
        g = generate("cube")
        cheap = trace_faces(g)[0].edge_ids
        w = WeightVector.of(
            Fraction(1, 10) if e in cheap else THIRD for e in range(g.edge_count)
        )
        _, weight = min_nonfacial_circuit(g, w)
        _, uniform_weight = min_nonfacial_circuit(g, uniform(g))
        assert weight < uniform_weight
        assert weight == brute_force_min_nonfacial(g, w)[1]

    def test_returned_circuit_is_nonfacial_and_weight_consistent(self):
        g = generate("antiprism", 5)
        w = WeightVector.of(
            Fraction(i % 7 + 1, 11) for i in range(g.edge_count)
        )
        circuit, weight = min_nonfacial_circuit(g, w)
        assert frozenset(circuit.edge_ids) not in {f.edge_ids for f in trace_faces(g)}
        assert circuit.weight(w) == weight

    def test_zero_weights_give_zero(self):
        g = generate("cube")
        _, weight = min_nonfacial_circuit(g, WeightVector.uniform(g.edge_count, 0))
        assert weight == 0

    def test_monotone_in_each_weight(self):
        g = generate("tetrahedron")
        rng = random.Random(3)
        for _ in range(25):
            vals = [Fraction(rng.randint(0, 8), 4) for _ in range(g.edge_count)]
            base = min_nonfacial_circuit(g, WeightVector.of(vals))[1]
            e = rng.randrange(g.edge_count)
            vals[e] += Fraction(rng.randint(1, 4), 4)
            bumped = min_nonfacial_circuit(g, WeightVector.of(vals))[1]
            assert bumped >= base

    def test_deterministic(self):
        g = generate("prism", 5)
        w = WeightVector.of(Fraction(i % 5, 7) for i in range(g.edge_count))
        assert min_nonfacial_circuit(g, w) == min_nonfacial_circuit(g, w)


class TestBruteForce:
    def test_matches_oracle_on_random_weightings(self):
        rng = random.Random(20260810)
        for fam, n in [
            ("tetrahedron", None),
            ("octahedron", None),
            ("cube", None),
            ("wheel", 6),
            ("kleetope(tetrahedron)", None),
        ]:
            g = generate(fam, n)
            for _ in range(40):
                w = WeightVector.of(
                    Fraction(rng.randint(0, 96), rng.choice([1, 2, 3, 4, 8, 16]))
                    for _ in range(g.edge_count)
                )
                assert (
                    brute_force_min_nonfacial(g, w)[1]
                    == min_nonfacial_circuit(g, w)[1]
                )

    def test_same_circuit_under_ties(self):
        # few distinct weights make many circuits tie for the minimum; both
        # oracles must pick the least canonical edge sequence among them
        rng = random.Random(20261018)
        for fam, n in [
            ("tetrahedron", None),
            ("octahedron", None),
            ("cube", None),
            ("wheel", 6),
            ("prism", 5),
            ("bipyramid", 4),
            ("kleetope(tetrahedron)", None),
        ]:
            g = generate(fam, n)
            for _ in range(100):
                w = WeightVector.of(
                    Fraction(rng.randint(0, 6), 2) for _ in range(g.edge_count)
                )
                assert min_nonfacial_circuit(g, w) == brute_force_min_nonfacial(g, w)

    def test_vertex_cap(self):
        g = generate("dodecahedron")
        with pytest.raises(VertexCapError):
            brute_force_min_nonfacial(g, uniform(g))
        # configurable cap admits larger graphs
        circuit, weight = brute_force_min_nonfacial(g, uniform(g), vertex_cap=20)
        assert weight == min_nonfacial_circuit(g, uniform(g))[1]

    def test_enumeration_counts(self):
        # classical cycle counts minus the face boundaries
        assert len(all_nonfacial_circuits(generate("tetrahedron"))) == 7 - 4
        assert len(all_nonfacial_circuits(generate("cube"))) == 28 - 6
        assert len(all_nonfacial_circuits(generate("octahedron"))) == 63 - 8


class TestCheckConditions:
    def test_k4_uniform_third_is_witness(self):
        g = generate("tetrahedron")
        report = check_conditions(g, uniform(g))
        assert report.ok
        assert report.bound_violations == ()
        assert report.face_violations == ()
        assert report.circuit_violation is None

    def test_k4_uniform_half_violates_bounds_and_faces(self):
        g = generate("tetrahedron")
        report = check_conditions(g, WeightVector.uniform(6, Fraction(1, 2)))
        assert set(report.bound_violations) == set(range(6))
        assert {total for _, total in report.face_violations} == {Fraction(3, 2)}
        assert not report.ok

    def test_octahedron_uniform_quarter_violates_faces_only(self):
        g = generate("octahedron")
        report = check_conditions(g, WeightVector.uniform(12, Fraction(1, 4)))
        assert report.bound_violations == ()
        assert len(report.face_violations) == 8
        assert {total for _, total in report.face_violations} == {Fraction(3, 4)}

    def test_circuit_condition_violation_reported(self):
        # bipyramid: rim edges at 1/15, spokes at 7/15 keep every face
        # (spoke + rim + spoke) at 1 and every weight inside (0, 1/2),
        # but the rim triangle is a non-facial circuit of weight 1/5
        g = generate("bipyramid", 3)
        w = WeightVector.of(
            Fraction(1, 15) if 0 not in g.edges[e] and 1 not in g.edges[e]
            else Fraction(7, 15)
            for e in range(g.edge_count)
        )
        report = check_conditions(g, w)
        assert report.bound_violations == ()
        assert report.face_violations == ()
        assert report.circuit_violation is not None
        circuit, weight = report.circuit_violation
        assert weight == Fraction(1, 5)
        assert len(circuit) == 3
        assert not report.ok

    def test_negative_weight_skips_circuit_scan(self):
        g = generate("tetrahedron")
        w = WeightVector.of([Fraction(-1, 4)] + [THIRD] * 5)
        report = check_conditions(g, w)
        assert 0 in report.bound_violations
        assert not report.circuit_checked
        assert not report.ok
