import random
from fractions import Fraction

import pytest

from inscribe import (
    Circuit,
    ConstraintSystem,
    DuplicateCircuitError,
    Row,
    add_circuit_constraint,
    all_nonfacial_circuits,
    dual,
    generate,
    maximize_margin,
    new_system,
    trace_faces,
)

F = Fraction


def row_counts(system):
    counts = {}
    for row in system.rows:
        counts[row.kind] = counts.get(row.kind, 0) + 1
    return counts


def uv_point(solution):
    """The solution's weights and margin as the LP variables (u, s)."""
    t = solution.margin
    return tuple(w - t for w in solution.weights) + (t + 1,)


class TestNewSystem:
    @pytest.mark.parametrize(
        "family,bounds,faces,variables",
        [("tetrahedron", 12, 4, 7), ("octahedron", 24, 8, 13), ("cube", 24, 6, 13)],
    )
    def test_row_counts(self, family, bounds, faces, variables):
        # of the 2E edge bounds only the E upper rows are rows; the lower
        # bounds w_e >= t are u_e >= 0, and t >= -1 is s >= 0
        g = generate(family)
        s = new_system(g)
        assert row_counts(s) == {"upper": bounds // 2, "face": faces}
        assert s.variable_count == variables
        assert s.margin_index == g.edge_count
        uppers = [row for row in s.rows if row.kind == "upper"]
        assert [row.ref for row in uppers] == list(range(g.edge_count))
        for row in uppers:
            assert row.terms == ((row.ref, 1), (s.margin_index, 2))
            assert (row.relation, row.rhs) == ("<=", F(5, 2))
        face_rows = [row for row in s.rows if row.kind == "face"]
        for face, row in zip(trace_faces(g), face_rows):
            size = len(face.edge_ids)
            assert row.ref == face.id
            assert row.terms == tuple((e, 1) for e in sorted(face.edge_ids)) + (
                (s.margin_index, size),
            )
            assert (row.relation, row.rhs) == ("=", size + 1)


class TestAddCircuit:
    def test_adds_unit_coefficient_row(self):
        g = generate("tetrahedron")
        s = new_system(g)
        c = all_nonfacial_circuits(g)[0]
        s2 = add_circuit_constraint(s, c)
        row = s2.rows[-1]
        assert row.kind == "circuit"
        assert row.ref == c.edge_ids
        assert row.relation == ">="
        assert row.rhs == 4
        assert row.terms == tuple((e, 1) for e in c.edge_ids) + ((s2.margin_index, 3),)
        assert s2.rows[:-1] == s.rows
        # the original system is unchanged
        assert "circuit" not in row_counts(s)

    def test_duplicate_rejected(self):
        g = generate("tetrahedron")
        s = new_system(g)
        c = all_nonfacial_circuits(g)[0]
        s2 = add_circuit_constraint(s, c)
        with pytest.raises(DuplicateCircuitError):
            add_circuit_constraint(s2, c)

    def test_facial_circuit_rejected(self):
        g = generate("octahedron")
        s = new_system(g)
        facial = Circuit.from_edge_set(g, trace_faces(g)[0].edge_ids)
        with pytest.raises(ValueError):
            add_circuit_constraint(s, facial)


class TestMaximizeMargin:
    def test_k4_without_circuit_rows(self):
        sol = maximize_margin(new_system(generate("tetrahedron")))
        assert sol.status == "optimal"
        assert sol.margin == F(1, 6)
        assert all(x == F(1, 3) for x in sol.weights)

    def test_k4_with_all_circuit_rows(self):
        g = generate("tetrahedron")
        s = new_system(g)
        for c in all_nonfacial_circuits(g):
            s = add_circuit_constraint(s, c)
        sol = maximize_margin(s)
        assert sol.margin == F(1, 6)
        assert all(x == F(1, 3) for x in sol.weights)

    def test_contradictory_face_equalities_infeasible(self):
        # one variable asked to be 1 and 1/3 at once
        rows = (
            Row(((0, F(1)),), "=", F(1), "face", 0),
            Row(((0, F(1)),), "=", F(1, 3), "face", 1),
        )
        s = ConstraintSystem(1, rows, frozenset(), frozenset())
        sol = maximize_margin(s)
        assert sol.status == "infeasible"
        assert sol.margin is None and sol.weights is None

    def test_single_edge_face_row_binds_margin_negative(self):
        # w0 = 1 with w0 + t <= 1/2 forces t <= -1/2; the closed system
        # stays feasible because t may go down to -1 (s >= 0).  In (u, s):
        # u0 + s = 2 and u0 + 2s <= 5/2 give s = 1/2, u0 = 3/2.
        rows = (
            Row(((0, F(1)), (1, F(2))), "<=", F(5, 2), "upper", 0),
            Row(((0, F(1)), (1, F(1))), "=", F(2), "face", 0),
        )
        s = ConstraintSystem(1, rows, frozenset(), frozenset())
        sol = maximize_margin(s)
        assert sol.status == "optimal"
        assert sol.margin == F(-1, 2)
        assert sol.weights[0] == 1
        assert uv_point(sol) == (F(3, 2), F(1, 2))

    def test_solution_satisfies_every_row_exactly(self):
        g = generate("prism", 5)
        s = new_system(g)
        for c in all_nonfacial_circuits(g)[:10]:
            s = add_circuit_constraint(s, c)
        sol = maximize_margin(s)
        x = uv_point(sol)
        assert all(v >= 0 for v in x)
        assert all(row.satisfied_by(x) for row in s.rows)
        # the same rows in the original weights and margin
        w, t = sol.weights, sol.margin
        for face in trace_faces(g):
            assert sum(w[e] for e in face.edge_ids) == 1
        for key in s.circuit_keys:
            assert sum(w[e] for e in key) - t >= 1

    @pytest.mark.parametrize("graph,cuts", [
        (lambda: generate("prism", 5), 10),
        (lambda: generate("bipyramid", 4), 12),
        (lambda: generate("octahedron"), 20),
        (lambda: dual(generate("kleetope(bipyramid)", 3)).dual, 0),
    ], ids=["prism5", "bipyramid4", "octahedron", "kleetope-bipyramid3-dual"])
    def test_bounds_hold_without_bound_rows(self, graph, cuts):
        # w_e >= t and t >= -1 hold through u, s >= 0, not through rows
        g = graph()
        s = new_system(g)
        circuits = list(all_nonfacial_circuits(g))
        random.Random(3).shuffle(circuits)
        for c in circuits[:cuts]:
            s = add_circuit_constraint(s, c)
        sol = maximize_margin(s)
        assert sol.status == "optimal"
        t = sol.margin
        assert t >= -1
        for w in sol.weights:
            assert w >= t
            assert w + t <= F(1, 2)

    def test_adding_circuits_never_increases_margin(self):
        g = generate("bipyramid", 4)
        s = new_system(g)
        last = maximize_margin(s).margin
        rng = random.Random(11)
        circuits = list(all_nonfacial_circuits(g))
        rng.shuffle(circuits)
        for c in circuits[:12]:
            s = add_circuit_constraint(s, c)
            current = maximize_margin(s).margin
            assert current <= last
            last = current

    def test_scale_invariance(self):
        g = generate("cube")
        s = new_system(g)
        for c in all_nonfacial_circuits(g)[:4]:
            s = add_circuit_constraint(s, c)
        base = maximize_margin(s)
        scale = F(7, 3)
        scaled_rows = tuple(
            Row(
                tuple((j, scale * c) for j, c in row.terms),
                row.relation,
                scale * row.rhs,
                row.kind,
                row.ref,
            )
            for row in s.rows
        )
        scaled = maximize_margin(
            ConstraintSystem(s.edge_count, scaled_rows, s.circuit_keys, s.face_edge_sets)
        )
        assert scaled.margin == base.margin
        assert tuple(scaled.weights) == tuple(base.weights)

    def test_deterministic(self):
        g = generate("antiprism", 4)
        s = new_system(g)
        a = maximize_margin(s)
        b = maximize_margin(s)
        assert a.margin == b.margin
        assert tuple(a.weights) == tuple(b.weights)

    def test_degenerate_random_systems_terminate(self):
        # highly symmetric systems with duplicate-looking rows stress the
        # anti-cycling safeguard
        rng = random.Random(5)
        g = generate("octahedron")
        for _ in range(10):
            s = new_system(g)
            circuits = list(all_nonfacial_circuits(g))
            rng.shuffle(circuits)
            for c in circuits[:20]:
                s = add_circuit_constraint(s, c)
            sol = maximize_margin(s)
            assert sol.status == "optimal"
            assert sol.margin == F(1, 6)
