import itertools
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from helpers import CORPUS_SPECS
from reference import reference_eliminate

import inscribe.decide as decide_module
import inscribe.lp as lp_module
from inscribe import (
    ConstraintSystem,
    InternalError,
    MarginSolution,
    Row,
    add_circuit_constraint,
    all_nonfacial_circuits,
    decide_circumscribable,
    decide_inscribable,
    dual,
    generate,
    maximize_margin,
    new_system,
    trace_faces,
)
from inscribe.lp import multiplier_problems, point_problem
from inscribe.separation import canonical_circuit

F = Fraction


def row_counts(system):
    counts = {}
    for row in system.rows:
        counts[row.kind] = counts.get(row.kind, 0) + 1
    return counts


def uv_point(solution):
    """The solution's weights and margin as the LP variables (U, S)."""
    t = solution.margin
    return tuple(2 * (w - t) for w in solution.weights) + (2 * (t + 1),)


RELATIONS = {operator.le: "<=", operator.eq: "=", operator.ge: ">="}


def relation(row):
    """The relation that the row's kind gives it."""
    return RELATIONS[lp_module._KINDS[row.kind][0]]


def is_integer_row(row):
    return all(type(c) is int for _, c in row.terms) and type(row.rhs) is int


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
        assert all(is_integer_row(row) for row in s.rows)
        uppers = [row for row in s.rows if row.kind == "upper"]
        assert [row.ref for row in uppers] == list(range(g.edge_count))
        for row in uppers:
            assert row.terms == ((row.ref, 1), (s.margin_index, 2))
            assert (relation(row), row.rhs) == ("<=", 5)
        face_rows = [row for row in s.rows if row.kind == "face"]
        for face, row in zip(trace_faces(g), face_rows):
            size = len(face.edge_ids)
            assert row.ref == face.id
            assert row.terms == tuple((e, 1) for e in sorted(face.edge_ids)) + (
                (s.margin_index, size),
            )
            assert (relation(row), row.rhs) == ("=", 2 * size + 2)

    def test_row_is_its_terms_rhs_kind_and_ref(self):
        assert Row._fields == ("terms", "rhs", "kind", "ref")


class TestAddCircuit:
    def test_adds_unit_coefficient_row(self):
        g = generate("tetrahedron")
        s = new_system(g)
        c = all_nonfacial_circuits(g)[0]
        s2 = add_circuit_constraint(s, c)
        row = s2.rows[-1]
        assert row.kind == "circuit"
        assert row.ref == c
        assert relation(row) == ">="
        assert is_integer_row(row)
        assert row.rhs == 8
        assert row.terms == tuple((e, 1) for e in c) + ((s2.margin_index, 3),)
        assert s2.rows[:-1] == s.rows
        # the original system is unchanged
        assert "circuit" not in row_counts(s)

    def test_duplicate_rejected(self):
        g = generate("tetrahedron")
        s = new_system(g)
        c = all_nonfacial_circuits(g)[0]
        s2 = add_circuit_constraint(s, c)
        with pytest.raises(ValueError, match="already present"):
            add_circuit_constraint(s2, c)

    def test_facial_circuit_rejected(self):
        g = generate("octahedron")
        s = new_system(g)
        facial = canonical_circuit(g, trace_faces(g)[0].edge_ids)
        with pytest.raises(ValueError, match="bounds a face"):
            add_circuit_constraint(s, facial)

    def test_unknown_edge_rejected(self):
        s = new_system(generate("tetrahedron"))
        with pytest.raises(ValueError, match="^circuit references an unknown edge$"):
            add_circuit_constraint(s, (0, 3, 6))


class TestMaximizeMargin:
    def test_k4_without_circuit_rows(self):
        sol = maximize_margin(new_system(generate("tetrahedron")))
        assert sol.status == "optimal"
        assert sol.margin == F(1, 6)
        assert all(x == F(1, 3) for x in sol.weights)

    def test_status_is_read_off_the_margin(self):
        assert MarginSolution._fields == ("margin", "weights", "multipliers")
        assert MarginSolution(None, None, ()).status == "infeasible"
        assert MarginSolution(F(0), (), ()).status == "optimal"

    def test_k4_with_all_circuit_rows(self):
        g = generate("tetrahedron")
        s = new_system(g)
        for c in all_nonfacial_circuits(g):
            s = add_circuit_constraint(s, c)
        sol = maximize_margin(s)
        assert sol.margin == F(1, 6)
        assert all(x == F(1, 3) for x in sol.weights)

    # one variable asked to be 1 and 1/3 at once
    CONTRADICTORY_FACES = (Row(((0, 1),), 1, "face", 0), Row(((0, 3),), 1, "face", 1))

    def test_contradictory_face_equalities_infeasible(self):
        # an upper row bounds both columns, so the dual has a point; the
        # rows have none, so the dual grows without bound along a ray
        s = ConstraintSystem(1, (Row(((0, 1), (1, 1)), 5, "upper", 0),) + self.CONTRADICTORY_FACES)
        sol = maximize_margin(s)
        assert sol.status == "infeasible"
        assert sol.margin is None and sol.weights is None
        assert multiplier_problems(s, sol.multipliers, None) == []

    def test_contradictory_face_equalities_unbounded_raises(self):
        # without a row that bounds S the dual has no point, which the
        # solver reports even though the rows have no point either
        s = ConstraintSystem(1, self.CONTRADICTORY_FACES)
        with pytest.raises(InternalError, match="^no row bounds column 1$"):
            maximize_margin(s)

    def test_column_no_row_bounds_raises(self):
        # no row bounds S, so the dual's phase 1 ends below 0
        s = ConstraintSystem(1, (Row(((0, 1),), 1, "upper", 0),))
        with pytest.raises(InternalError, match="^no row bounds column 1$"):
            maximize_margin(s)

    def test_single_edge_face_row_binds_margin_negative(self):
        # w0 = 1 with w0 + t <= 1/2 forces t <= -1/2; the closed system
        # stays feasible because t may go down to -1 (S >= 0).  In (U, S):
        # U0 + S = 4 and U0 + 2S <= 5 give S = 1, U0 = 3.
        rows = (
            Row(((0, 1), (1, 2)), 5, "upper", 0),
            Row(((0, 1), (1, 1)), 4, "face", 0),
        )
        s = ConstraintSystem(1, rows)
        sol = maximize_margin(s)
        assert sol.status == "optimal"
        assert sol.margin == F(-1, 2)
        assert sol.weights[0] == 1
        assert uv_point(sol) == (3, 1)

    def test_solution_satisfies_every_row_exactly(self):
        g = generate("prism", 5)
        s = new_system(g)
        for c in all_nonfacial_circuits(g)[:10]:
            s = add_circuit_constraint(s, c)
        sol = maximize_margin(s)
        assert point_problem(s, uv_point(sol)) is None
        # the same rows in the original weights and margin
        w, t = sol.weights, sol.margin
        for face in trace_faces(g):
            assert sum(w[e] for e in face.edge_ids) == 1
        for row in s.rows:
            if row.kind == "circuit":
                assert sum(w[e] for e in row.ref) - t >= 1

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
        scale = 7
        scaled_rows = tuple(
            Row(tuple((j, scale * c) for j, c in row.terms), scale * row.rhs, row.kind, row.ref)
            for row in s.rows
        )
        scaled_system = ConstraintSystem(s.edge_count, scaled_rows)
        scaled = maximize_margin(scaled_system)
        assert scaled.margin == base.margin
        assert tuple(scaled.weights) == tuple(base.weights)
        assert multiplier_problems(scaled_system, scaled.multipliers, scaled.margin) == []

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


def dual_with_cuts(family, n, cuts, seed=7):
    """Margin system of the dual of a generated graph with ``cuts``
    seeded-shuffled non-facial circuit rows."""
    g = dual(generate(family, n)).dual
    s = new_system(g)
    circuits = list(all_nonfacial_circuits(g))
    random.Random(seed).shuffle(circuits)
    for c in circuits[:cuts]:
        s = add_circuit_constraint(s, c)
    return s


class TestPointRecheck:
    """maximize_margin re-checks the solver's point against every row."""

    # over (U0, U1, U2, S): the optimum is S = 1, U1 = U2 = 3 and U0
    # in [0, 3]; U0, U1 and U2 each lie in rows of one kind only
    SYSTEM = ConstraintSystem(3, (
        Row(((0, 1), (3, 2)), 5, "upper", 0),
        Row(((2, 1), (3, 2)), 5, "upper", 2),
        Row(((1, 1), (3, 1)), 4, "face", 0),
        Row(((2, 1), (3, 1)), 4, "circuit", (2,)),
    ))

    def test_true_optimum_passes(self):
        sol = maximize_margin(self.SYSTEM)
        assert (sol.status, sol.margin) == ("optimal", F(-1, 2))

    @pytest.mark.parametrize("index,nudge,problem", [
        (0, 6, "a point violating a upper row"),
        (1, -1, "a point violating a face row"),
        (2, -2, "a point violating a circuit row"),
        (3, -2, "a negative variable"),
    ], ids=["upper", "face", "circuit", "negative"])
    def test_nudged_point_raises(self, monkeypatch, index, nudge, problem):
        solve = lp_module._solve_lp

        def nudged(*args):
            # the point leaves the solver as integer numerators over one
            # denominator d, so a nudge of n is n d in the numerator
            x, y = solve(*args)
            nums, d = x
            nums[index] += nudge * d
            return x, y

        monkeypatch.setattr(lp_module, "_solve_lp", nudged)
        with pytest.raises(InternalError, match=f"^solver returned {problem}$"):
            maximize_margin(self.SYSTEM)


class TestBlandsRule:
    @pytest.mark.parametrize("family,n,cuts", [
        ("tetrahedron", None, 8),
        ("dodecahedron", None, 8),
        ("cube", None, 8),
        ("prism", 5, 8),
        ("bipyramid", 5, 8),
        ("kleetope(bipyramid)", 3, 0),
        ("kleetope(tetrahedron)", None, 0),
    ])
    def test_bland_from_first_degenerate_pivot_keeps_the_margin(
        self, monkeypatch, family, n, cuts
    ):
        s = dual_with_cuts(family, n, cuts)
        default = maximize_margin(s)
        # s now carries its solved tableau; a copy of its rows solves cold
        s = cold(s)
        ran_bland = []
        maximize = lp_module._Tableau.maximize

        def recording(tab):
            status = maximize(tab)
            ran_bland.append(tab.bland)
            return status

        monkeypatch.setattr(lp_module._Tableau, "maximize", recording)
        monkeypatch.setattr(lp_module, "_STALL_THRESHOLD", -1)
        bland = maximize_margin(s)
        assert any(ran_bland)
        assert bland.status == default.status == "optimal"
        assert bland.margin == default.margin


def _solve_square(a, b):
    """Unique solution of the square system a x = b, None if singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def vertex_enumeration_margin(s):
    """(status, margin) of the margin LP by trying every vertex: each
    choice of n constraints (rows or x_j >= 0) solved as equalities,
    keeping the feasible point with the largest S, at margin S/2 - 1."""
    n = s.variable_count
    planes = []
    for row in s.rows:
        dense = [F(0)] * n
        for j, c in row.terms:
            dense[j] = F(c)
        planes.append((dense, F(row.rhs)))
    planes += [([F(int(i == j)) for i in range(n)], F(0)) for j in range(n)]
    best = None
    for subset in itertools.combinations(planes, n):
        x = _solve_square([a for a, _ in subset], [b for _, b in subset])
        if x is None or point_problem(s, x) is not None:
            continue
        if best is None or x[s.margin_index] > best:
            best = x[s.margin_index]
    if best is None:
        return "infeasible", None
    return "optimal", best / 2 - 1


NEGATED = {"upper": "circuit", "face": "face", "circuit": "upper"}


def integer_row(terms, kind, rhs, ref=None):
    """The rational row  sum(c x_j) R rhs, R the relation of ``kind``,
    as an integer row with rhs >= 0: scaled by its denominators' lcm, and
    negated, an upper row into a circuit row and back, when rhs < 0."""
    scale = math.lcm(rhs.denominator, *(c.denominator for _, c in terms))
    if rhs < 0:
        scale, kind = -scale, NEGATED[kind]
    return Row(tuple((j, int(c * scale)) for j, c in terms), int(rhs * scale), kind, ref)


def random_small_system(rng):
    """2-3 U variables plus S, each bounded above, and random small
    rows of the three kinds, drawn over the rationals with a right-hand
    side of either sign and stored as integer rows; some rows hold at a
    random point, and some systems repeat a face row."""
    n = rng.randint(2, 3) + 1
    point = [F(rng.randint(0, 6), 2) for _ in range(n)]
    rows = [
        integer_row(((j, F(1)),), "upper", F(rng.randint(1, 8), rng.randint(1, 2)), j)
        for j in range(n)
    ]
    for _ in range(rng.randint(1, 3)):
        terms = tuple(
            (j, F(c, rng.randint(1, 3)))
            for j in range(n)
            if (c := rng.choice((-3, -2, -1, 1, 2, 3))) and rng.random() < 0.8
        ) or ((0, F(1)),)
        kind = rng.choice(("upper", "circuit", "face"))
        if rng.random() < 0.5:
            rhs = sum((c * point[j] for j, c in terms), F(0))
        else:
            rhs = F(rng.randint(-6, 6), rng.randint(1, 3))
        rows.append(integer_row(terms, kind, rhs))
    equalities = [row for row in rows if row.kind == "face"]
    if equalities and rng.random() < 0.5:
        rows.append(rng.choice(equalities))
    return ConstraintSystem(n - 1, tuple(rows))


class TestReferenceVertexEnumeration:
    def test_random_small_systems_match(self, monkeypatch):
        rng = random.Random(2024)
        statuses = {}
        kinds = set()  # of the drawn rows, some of them negated
        pivots = []  # per pivot, whether the artificial was basic before it
        phase_1 = {}  # draws by their phase-1 pivot count
        # per pivot and per ray, whether the entering column has one U
        # entry: the random upper rows' columns, with no S entry, and
        # some others, derived until they enter
        one_u, derived_pivots, derived_rays = set(), [], []
        pivot = lp_module._Tableau.pivot
        maximize = lp_module._Tableau.maximize

        def counted_pivot(tab, r, c):
            pivots.append(ART in tab.basis)
            derived_pivots.append(c in one_u)
            pivot(tab, r, c)

        def counted_maximize(tab):
            ray = maximize(tab)
            if ray is not None:
                enter, _ = ray
                derived_rays.append(enter in one_u)
            return ray

        monkeypatch.setattr(lp_module._Tableau, "pivot", counted_pivot)
        monkeypatch.setattr(lp_module._Tableau, "maximize", counted_maximize)
        for _ in range(120):
            s = random_small_system(rng)
            one_u = one_u_columns(s)
            assert all(is_integer_row(row) and row.rhs >= 0 for row in s.rows)
            kinds.update(row.kind for row in s.rows if row.ref is None)
            first = len(pivots)
            sol = maximize_margin(s)
            count = sum(pivots[first:])
            phase_1[count] = phase_1.get(count, 0) + 1
            expected = vertex_enumeration_margin(s)
            assert (sol.status, sol.margin) == expected, s.rows
            # a dual solution proving the optimum, or a Farkas ray
            assert multiplier_problems(s, sol.multipliers, sol.margin) == [], s.rows
            statuses[sol.status] = statuses.get(sol.status, 0) + 1
        assert statuses.get("optimal", 0) >= 20
        assert statuses.get("infeasible", 0) >= 20
        assert kinds == set(lp_module._KINDS)
        # pinned: unlike every system new_system builds, many of these
        # take more than one pivot while the artificial is basic
        assert (len(pivots), sum(pivots)) == (291, 182)
        assert phase_1 == {1: 70, 2: 38, 3: 12}
        # pinned: derived columns enter, and are the entering column of
        # rays, as stored ones are
        assert sum(derived_pivots) == 79
        assert (len(derived_rays), sum(derived_rays)) == (statuses["infeasible"], 10) == (31, 10)


class TestRowChecks:
    @pytest.mark.parametrize("row,message", [
        (Row(((0, 1),), 1, "lower", 0), "unknown row kind 'lower'"),
        (Row(((0, 1),), -1, "circuit", (0,)), "circuit row (0,) has right-hand side -1 < 0"),
        (Row(((0, 1),), -1, "face", 0), "face row 0 has right-hand side -1 < 0"),
    ], ids=["unknown-kind", "negative-circuit-rhs", "negative-face-rhs"])
    def test_unknown_kind_or_negative_rhs_raises(self, row, message):
        s = ConstraintSystem(1, (Row(((0, 1), (1, 1)), 1, "upper", 0), row))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            maximize_margin(s)


# columns of random_elimination's rows: the pivot column is 0, the
# right-hand side is in both rows, the denominator only in the updated one
RHS, DEN = 9, 10


def random_elimination(rng):
    """Arguments of one row update: a row with entry a in pivot column 0
    and its denominator d in its basic column DEN, and a pivot row with
    p > 0 there, which lacks DEN.  p is 1, a divisor of a or random; when
    p divides a, some of the row's entries are a / p times the pivot
    row's, so they cancel; the row's right-hand side is of either sign,
    as the objective row's is.  d is small, near 2^30 over a small factor
    or above 2^30, so the new denominator falls on either side of the
    bound at which the update reduces the row; the row is primitive or a
    small multiple of a primitive row, as a row carried unreduced may
    be."""
    p = rng.choice((1, 2, 6, rng.randint(1, 40)))
    prow = {j: rng.choice((-1, 1)) * rng.randint(1, 30) for j in range(1, 8) if rng.random() < 0.5}
    prow[0] = p
    k = rng.choice((-3, -1, 1, 2))
    a = rng.choice((k * p, k * rng.choice((2, 3)), rng.choice((-1, 1)) * rng.randint(1, 40)))
    row = {j: rng.choice((-1, 1)) * rng.randint(1, 30) for j in range(1, 9) if rng.random() < 0.5}
    if a == k * p:
        row.update((j, k * y) for j, y in prow.items() if j and rng.random() < 0.5)
    row[0] = a
    row[RHS] = rng.randint(-30, 30)
    row[DEN] = rng.choice((
        1,
        rng.randint(1, 30),
        max(1, (1 << 30) // rng.randint(1, 40) + rng.randint(-2, 2)),
        rng.randint(1 << 30, 1 << 40),
    ))
    prow[RHS] = rng.randint(0, 30)
    g = math.gcd(*row.values())
    m = rng.choice((1, 1, 2, 6))  # the common factor of a row carried unreduced
    row = {j: m * x // g for j, x in row.items() if x}
    return row, DEN, row[0], {j: y for j, y in prow.items() if y}, p


# the real pivot, which TestTableauInvariant replaces by a checking wrapper
PIVOT = lp_module._Tableau.pivot


def unreduced_denominator(d, a, p):
    """The denominator d p / gcd(p, a) of a row update before any gcd."""
    return d * (p // math.gcd(p, a))


def check_pivot(tab, r, c):
    """``_Tableau.pivot`` on (r, c), checked against
    ``reference_eliminate``, the fully reduced update, and return the
    number of rows it updated.  The pivot row becomes primitive, signed
    so that its pivot entry p is positive; every other row with entry a
    in c equals the reference's update by that row as rationals, with
    only nonzeros stored, and the rows without one are left as they are;
    each row is rewritten in its own map, the basis names c in row r and
    nothing is returned.  An updated row's new denominator, its entry in
    its basic column, is d p / gcd(p, a), and once that reaches 2^30 the
    row is reduced to exactly the reference's primitive form, and
    otherwise left there."""
    rows, basis = tab.rows, list(tab.basis)
    prow = rows[r]
    g = math.gcd(*prow.values()) * (1 if prow[c] > 0 else -1)
    reduced = {j: x // g for j, x in prow.items()}
    p = reduced[c]
    before = [dict(row) for row in rows]
    maps = [id(row) for row in rows]
    expected = {
        i: reference_eliminate(row, basis[i], row[c], reduced, p)
        for i, row in enumerate(before)
        if i != r and row.get(c)
    }
    assert PIVOT(tab, r, c) is None
    assert [id(row) for row in rows] == maps
    assert rows[r] == reduced and p > 0 and is_primitive(rows[r])
    assert tab.basis == basis[:r] + [c] + basis[r + 1:]
    for i, row in enumerate(rows):
        if i == r:
            continue
        if i not in expected:
            assert row == before[i]
            continue
        new, bc = expected[i], basis[i]
        assert 0 not in row.values() and row.keys() == new.keys()
        d, rd = row[bc], new[bc]
        assert d > 0 and all(x * rd == new[j] * d for j, x in row.items())
        unreduced = unreduced_denominator(before[i][bc], before[i][c], p)
        if unreduced >= lp_module._REDUCE_AT:
            assert row == new
        else:
            assert d == unreduced
    return len(expected)


class TestRowUpdate:
    def test_matches_the_copying_update(self):
        # a pivot on the pivot row of random_elimination in a tableau of
        # it and the row it updates
        rng = random.Random(2025)
        seen = set()
        for _ in range(2000):
            row, bc, a, prow, _ = random_elimination(rng)
            before = dict(row)
            d = row[bc]
            p = prow[0] // math.gcd(*prow.values())  # the pivot entry once prow is reduced
            unreduced = unreduced_denominator(d, a, p)
            tab = lp_module._Tableau([row, prow], [bc, None], [], {}, None)
            assert check_pivot(tab, 1, 0) == 1
            nd = row[bc]
            seen.update(name for name, hit in (
                ("p = 1", p == 1),
                ("p shares a factor with a", p > 1 and math.gcd(p, a) > 1),
                ("negative a", a < 0),
                ("d = 1", d == 1),
                ("d > 1", d > 1),
                ("the row is not primitive", not is_primitive(before)),
                ("an entry cancels", any(j and j not in row for j in prow)),
                ("negative rhs", before.get(RHS, 0) < 0),
                ("new denominator 1", nd == 1),
                ("carried unreduced below 2^30",
                 unreduced < lp_module._REDUCE_AT and not is_primitive(row)),
                ("reduced from 2^30 to below it", unreduced >= lp_module._REDUCE_AT > nd),
                ("reduced, still at least 2^30", unreduced > nd >= lp_module._REDUCE_AT),
            ) if hit)
        assert len(seen) == 12, seen


def is_primitive(row):
    return math.gcd(*row.values()) == 1


Z, ART = lp_module._Z, lp_module._ART


def reference_objective(rows, basis, cost):
    """The reduced costs c - c_B B^-1 A, nonzeros only, and the value
    c_B B^-1 b of the integer cost map ``cost``, as ``Fraction``s: the
    constraint rows are B^-1 [A | b], row i over its entry in its basic
    column, with b in the artificial's column ART, which starts as b."""
    reduced = {j: F(c) for j, c in cost.items()}
    value = F(0)
    for row, bc in zip(rows[:-1], basis):
        cb = cost.get(bc, 0)
        if not cb:
            continue
        d = row[bc]
        for j, x in row.items():
            reduced[j] = reduced.get(j, 0) - F(cb * x, d)
        value += F(cb * row.get(ART, 0), d)
    return {j: x for j, x in reduced.items() if x and j != ART}, value


def face_columns(s):
    """The dual's free columns: one per face row of s."""
    return {s.edge_count + 1 + i for i, row in enumerate(s.rows) if row.kind == "face"}


def dual_columns(s):
    """Each dual column of s by its tableau column, as its entries by
    dual row (j for U_j, E for S) and its cost, computed apart from the
    solver: a row's y has -A_j in the row of U_j, A_S in the row of S and
    cost -b, and a circuit row's z = -y the negation of each."""
    e = s.edge_count
    columns = {}
    for i, row in enumerate(s.rows):
        sign = -1 if row.kind == "circuit" else 1
        entries = {j: sign * c if j == e else -sign * c for j, c in row.terms}
        columns[e + 1 + i] = entries, -sign * row.rhs
    return columns


def one_u_columns(s):
    """The dual columns of s that are not free and have one U entry."""
    e = s.edge_count
    return {c for c, (entries, _) in dual_columns(s).items()
            if c not in face_columns(s) and sum(j < e for j in entries) == 1}


def initial_entry(row, entries, cost, e):
    """A column's entry in a tableau row, from its initial entries and
    cost: the initial basis columns, slack j for the row of U_j and the
    artificial for the row of S, carry the inverse of the basis, and z
    the objective's scale."""
    units = sum(row.get(j if j < e else ART, 0) * a for j, a in entries.items())
    return units + row.get(Z, 0) * cost


def full_rows(tab):
    """The tableau's rows with each derived column's entry, read off its
    group (a_S, cost, a_U) as a_S row[ART] + cost row[Z] + a_U row[u],
    filled in; nonzeros only."""
    full = []
    for row in tab.rows:
        row = dict(row)
        for (a_s, cost, a_u), group in tab.derived.items():
            for c, u in group.items():
                if v := a_s * row.get(ART, 0) + cost * row.get(Z, 0) + a_u * row.get(u, 0):
                    row[c] = v
        full.append(row)
    return full


def over_denominator(row, bc):
    """A tableau row over its entry in its basic column bc: its other
    entries and minus its right-hand side, its entry in ART, as
    ``Fraction``s."""
    d = row[bc]
    return {j: F(x, d) for j, x in row.items() if j not in (ART, bc)}, F(-row.get(ART, 0), d)


class TestTableauInvariant:
    """Rows store only nonzeros, each is its own map and equals the
    fully reduced row as rationals, and the basis stays an identity:
    each row's basic entry is its positive denominator, and the column
    is absent from every other.  The open rows are the constraint rows
    whose basic column is not free; only the others may have a negative
    right-hand side, which is each row's entry in ART: the basic columns
    times the basic values it gives are the dual's right-hand side e_S.
    A row is primitive once its denominator reaches 2^30, and the pivot
    row always is.  Every stored column, free or not, reads in each row
    what its initial entries and cost, as the dual builds them, give
    through the initial basis columns: no column is ever negated.  So
    does each derived column, read off its group; a column with one U
    entry that is not free is derived until it enters, stored from then
    on, and never basic while derived.  The last row is the objective,
    checked as every other row is, with z as its basic column; as each
    ``maximize`` starts and after every pivot, phase 1 included, it
    equals the reduced costs and minus the value of the dual's costs,
    computed apart from the tableau's arithmetic.  While the artificial
    is basic its row, the one phase 1 prices, is likewise the reduced
    costs and minus the value of -art."""

    @staticmethod
    def check(tab, s):
        e = s.edge_count
        basic = set(tab.basis)
        # a pivot rewrites each row's map in place, so no two may share one
        maps = {id(row) for row in tab.rows}
        assert len(maps) == len(tab.rows) == len(tab.basis)
        assert tab.basis.index(Z) == len(tab.rows) - 1
        for row, bc in zip(tab.rows, tab.basis):
            # each row holds its own basic column and no other, so z is
            # in the objective row alone
            assert basic & row.keys() == {bc}
            assert 0 not in row.values() and row[bc] > 0
            if row[bc] >= lp_module._REDUCE_AT:
                assert is_primitive(row)
        faces = face_columns(s)
        assert tab.open == [i for i, bc in enumerate(tab.basis[:-1]) if bc not in faces]
        held = {bc for bc in tab.basis if bc in faces}
        assert held | set(tab.free) <= faces and not held & set(tab.free)
        for i in tab.open:
            assert tab.rows[i].get(ART, 0) >= 0
        columns = dual_columns(s)
        # the initial basis columns and the surplus, -1 in the row of S
        columns.update({j: ({j: 1}, 0) for j in range(e)})
        columns.update({ART: ({e: 1}, 0), e: ({e: -1}, 0)})
        derived = {c for group in tab.derived.values() for c in group}
        stored = set().union(*tab.rows) - {Z}
        assert derived <= one_u_columns(s) and not derived & (stored | basic)
        assert one_u_columns(s) - derived <= stored
        full = full_rows(tab)
        for row in full:
            for c, (entries, cost) in columns.items():
                assert row.get(c, 0) == initial_entry(row, entries, cost, e), c
        # the basic columns times the basic values are e_S
        rhs = {}
        for row, bc in zip(full[:-1], tab.basis):
            for j, a in columns[bc][0].items():
                rhs[j] = rhs.get(j, 0) + a * F(row.get(ART, 0), row[bc])
        assert {j: x for j, x in rhs.items() if x} == {e: 1}
        cost = {c: cost for c, (_, cost) in columns.items() if cost}
        assert over_denominator(full[-1], Z) == reference_objective(full, tab.basis, cost)
        if ART in basic:
            # the artificial is basic in the row of S alone, below 0 in -art
            art = tab.basis.index(ART)
            assert art == len(tab.rows) - 2
            reduced, value = reference_objective(full, tab.basis, {ART: -1})
            assert over_denominator(full[art], ART) == (reduced, value)
            assert value < 0

    @pytest.mark.parametrize("make,pivots_per_maximize", [
        (lambda: dual_with_cuts("cube", None, 0), [[1, 12]]),
        (lambda: dual_with_cuts("prism", 5, 8), [[1, 15]]),
        (lambda: dual_with_cuts("kleetope(bipyramid)", 3, 0), [[1, 18]]),
        (lambda: dual_with_cuts("kleetope(tetrahedron)", None, 0), [[1, 10]]),
        # a decision of four rounds, each later one from the last basis
        (lambda: generate("kleetope(bipyramid)", 3), [[1, 29], [0, 5], [0, 1], [0, 3]]),
    ], ids=["cube", "prism-5-8-cuts", "kleetope-bipyramid-3-dual", "kleetope-tetrahedron-dual",
            "kleetope-bipyramid-3-decision"])
    def test_after_every_pivot(self, monkeypatch, make, pivots_per_maximize):
        pivots = []  # per maximize call, its pivots with and without the artificial basic
        updates = [0]  # rows updated by the pivots, each checked
        systems = []  # each system whose tableau is built or extended
        maximize = lp_module._Tableau.maximize
        add_columns = lp_module._add_columns
        new_tableau = lp_module._new_tableau

        def checked_pivot(tab, r, c):
            pivots[-1][ART not in tab.basis] += 1
            updates[0] += check_pivot(tab, r, c)
            self.check(tab, systems[-1])

        def counted_maximize(tab):
            pivots.append([0, 0])
            self.check(tab, systems[-1])
            return maximize(tab)

        def recorded_add_columns(tab, s):
            systems.append(s)
            add_columns(tab, s)

        def recorded_new_tableau(s):
            systems.append(s)
            return new_tableau(s)

        monkeypatch.setattr(lp_module._Tableau, "pivot", checked_pivot)
        monkeypatch.setattr(lp_module._Tableau, "maximize", counted_maximize)
        monkeypatch.setattr(lp_module, "_add_columns", recorded_add_columns)
        monkeypatch.setattr(lp_module, "_new_tableau", recorded_new_tableau)
        system_or_graph = make()
        if isinstance(system_or_graph, ConstraintSystem):
            assert maximize_margin(system_or_graph).status == "optimal"
        else:
            assert decide_circumscribable(system_or_graph).is_yes
        # one maximize per solve, and phase 1 is one pivot: the least
        # face column takes the artificial's place
        assert pivots == pivots_per_maximize
        assert updates[0] > 0


def priced_value(tab):
    """Whether the artificial is basic, and the value of the row that
    ``maximize`` then prices: -art while it is (phase 1), over the row
    of S, and the objective's after."""
    if ART in tab.basis:
        return True, over_denominator(tab.rows[-2], ART)[1]
    return False, over_denominator(tab.rows[-1], Z)[1]


def record_pivots(monkeypatch):
    """Wrap ``_Tableau.maximize`` and ``_Tableau.pivot`` to log every
    pivot of a solve as (maximize call, phase 1, value before it): the
    call's index from 0, None outside every call, then
    :func:`priced_value` before the pivot.  Also returns a list holding
    the last call's index."""
    log, call, inside = [], [-1], [False]
    pivot = lp_module._Tableau.pivot
    maximize = lp_module._Tableau.maximize

    def logging_pivot(tab, r, c):
        log.append((call[0] if inside[0] else None, *priced_value(tab)))
        pivot(tab, r, c)

    def logging_maximize(tab):
        call[0] += 1
        inside[0] = True
        try:
            return maximize(tab)
        finally:
            inside[0] = False

    monkeypatch.setattr(lp_module._Tableau, "pivot", logging_pivot)
    monkeypatch.setattr(lp_module._Tableau, "maximize", logging_maximize)
    return log, call


def all_triples_system(duplicate=False):
    """Four edge variables and s, with the upper rows and one 3-edge
    face equality for each triple of edges; ``duplicate`` repeats the
    first face row, which makes it redundant."""
    E = 4
    rows = [Row(((e, 1), (E, 2)), 5, "upper", e) for e in range(E)]
    faces = [
        Row(tuple((e, 1) for e in f) + ((E, 3),), 8, "face", i)
        for i, f in enumerate(itertools.combinations(range(E), 3))
    ]
    rows += faces + faces[:1] * duplicate
    return ConstraintSystem(E, tuple(rows))


class TestPhaseOneStop:
    """Phase 1 prices the row of S, where the dual's one artificial is
    basic, which as rationals is the row of -art, never positive; the
    artificial, the least column, leaves on any tie, so it leaves as
    soon as -art reaches 0, and the same ``maximize`` then prices the
    objective."""

    @pytest.mark.parametrize("family,n,cuts", [
        ("octahedron", None, 0),
        ("icosahedron", None, 0),
        ("antiprism", 8, 0),
        ("prism", 5, 8),
        ("kleetope(bipyramid)", 3, 0),
    ])
    def test_no_pivot_at_value_0(self, monkeypatch, family, n, cuts):
        log, call = record_pivots(monkeypatch)
        solution = maximize_margin(dual_with_cuts(family, n, cuts))
        assert solution.status == "optimal"
        assert call == [0]
        # phase 1 comes first, and once it ends it never starts again
        phases = [ph1 for _, ph1, _ in log]
        assert phases == sorted(phases, reverse=True)
        phase_1 = [value for _, ph1, value in log if ph1]
        assert phase_1 and 0 not in phase_1

    def test_antiprism_8_pivot_count(self, monkeypatch):
        # the dual's phase 1 reaches 0 after one pivot, and the optimum
        # is then reached: phase 2 makes none
        log, _ = record_pivots(monkeypatch)
        solution = maximize_margin(dual_with_cuts("antiprism", 8, 0))
        assert solution.margin == F(1, 4)
        assert len(log) == 1

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_the_artificial_leaves_in_phase_1(self, monkeypatch, duplicate):
        s = all_triples_system(duplicate)
        log, call = record_pivots(monkeypatch)
        states = []  # (artificial basic, free columns basic) before each pivot and at the end
        pivot = lp_module._Tableau.pivot
        maximize = lp_module._Tableau.maximize

        def state(tab):
            states.append((ART in tab.basis, len(face_columns(s) & set(tab.basis))))

        def recording_pivot(tab, r, c):
            state(tab)
            pivot(tab, r, c)

        def recording_maximize(tab):
            status = maximize(tab)
            state(tab)
            return status

        monkeypatch.setattr(lp_module._Tableau, "pivot", recording_pivot)
        monkeypatch.setattr(lp_module._Tableau, "maximize", recording_maximize)
        solution = maximize_margin(s)
        # one pivot brings phase 1 to 0, a face column in place of the
        # artificial; the same maximize then prices the objective, and
        # the duplicate face row's column, once the other is basic, has
        # a reduced cost of 0 and never enters
        assert call == [0]
        assert [ph1 for _, ph1, _ in log] == [True] + [False] * (len(log) - 1)
        assert states[:2] == [(True, 0), (False, 1)] and states[-1] == (False, 4)
        assert (solution.status, solution.margin) == vertex_enumeration_margin(s)
        assert solution.margin == F(1, 6)
        assert multiplier_problems(s, solution.multipliers, solution.margin) == []

    @pytest.mark.parametrize("decide", [decide_inscribable, decide_circumscribable])
    def test_corpus_pivots_only_inside_maximize(self, monkeypatch, decide):
        log, _ = record_pivots(monkeypatch)
        for family, n in CORPUS_SPECS:
            decide(generate(family, n))
        assert log and all(ph is not None for ph, _, _ in log)
        # pinned: how a row update is computed changes no pivot
        assert len(log) == {decide_inscribable: 288, decide_circumscribable: 433}[decide]

    def test_many_round_decision_pivot_count(self, monkeypatch):
        # one maximize per round: the first from a new tableau, phase 1
        # one pivot of it, and each later one from the last basis
        log, call = record_pivots(monkeypatch)
        cert = decide_circumscribable(generate("kleetope(antiprism)", 8))
        assert (cert.answer, cert.margin, cert.iterations) == ("yes", F(1, 8), 9)
        assert call == [cert.iterations - 1]
        assert len(log) == 181
        assert sum(ph1 for _, ph1, _ in log) == 1


def cold(s):
    """A copy of s's rows that carries no tableau, so it solves cold."""
    return ConstraintSystem(s.edge_count, s.rows)


def count_new_tableaus(monkeypatch):
    """Count the solves that build a new tableau."""
    calls = []
    new_tableau = lp_module._new_tableau

    def counted(s):
        calls.append(len(s.rows))
        return new_tableau(s)

    monkeypatch.setattr(lp_module, "_new_tableau", counted)
    return calls


class TestWarmStart:
    """A solve goes on from the last basis when the system's rows are its
    tableau's rows followed by new circuit rows, and solves cold
    otherwise; either way it reaches the optimum a cold solve reaches."""

    @pytest.mark.parametrize("family,n,rounds", [
        ("kleetope(antiprism)", 8, 9),
        ("kleetope(icosahedron)", None, 11),
    ])
    def test_each_round_matches_a_cold_solve(self, monkeypatch, family, n, rounds):
        systems = []

        def checked(system):
            warm = lp_module.maximize_margin(system)
            again = lp_module.maximize_margin(cold(system))
            assert warm.margin == again.margin
            for solution in (warm, again):
                assert multiplier_problems(system, solution.multipliers, solution.margin) == []
            systems.append(system)
            return warm

        monkeypatch.setattr(decide_module, "maximize_margin", checked)
        built = count_new_tableaus(monkeypatch)
        cert = decide_circumscribable(generate(family, n))
        assert (cert.answer, cert.margin, cert.iterations) == ("yes", F(1, 8), rounds)
        # one tableau for the decision, and one for each cold check
        assert len(built) == 1 + rounds
        assert [len(s.rows) for s in systems] == [len(systems[0].rows) + k for k in range(rounds)]

    def test_two_cuts_on_one_parent(self, monkeypatch):
        g = generate("kleetope(tetrahedron)")
        parent = new_system(g)
        solution = maximize_margin(parent)
        margin, w = solution.margin, solution.weights
        # two circuits that the parent's optimum violates
        violated = [c for c in all_nonfacial_circuits(g) if sum(w[e] for e in c) - margin < 1]
        first, second = (add_circuit_constraint(parent, c) for c in violated[:2])
        built = count_new_tableaus(monkeypatch)
        expected = [maximize_margin(cold(s)).margin for s in (first, second)]
        assert len(built) == 2
        # the first child goes on from the parent's basis; the second,
        # whose rows do not extend the first's, and the parent, whose
        # tableau the first child moved on, solve cold
        for s, value, cold_solves in ((first, expected[0], 2), (second, expected[1], 3),
                                      (parent, margin, 4)):
            solution = maximize_margin(s)
            assert solution.margin == value
            assert multiplier_problems(s, solution.multipliers, solution.margin) == []
            assert len(built) == cold_solves
        assert max(expected) < margin

    def test_new_rows_other_than_circuits_solve_cold(self, monkeypatch):
        s = new_system(generate("cube"))
        maximize_margin(s)
        extended = ConstraintSystem(s.edge_count, s.rows + s.rows[-1:])
        extended._tableau = s._tableau
        built = count_new_tableaus(monkeypatch)
        assert maximize_margin(extended).margin == maximize_margin(s).margin == F(1, 4)
        assert built == [len(s.rows) + 1]

    @pytest.mark.parametrize("row", [
        Row(((0, 1),), 1, "circuit", (0,)),
        Row(((3, 1), (12, 1)), 4, "circuit", (3,)),
    ], ids=["no-s-term", "s-term"])
    def test_a_one_u_circuit_row_is_derived_warm_and_cold(self, monkeypatch, row):
        # the cube's optimum, margin 1/4 with every U_e = 0, violates the
        # row, whose column, with one U entry, stays out of the rows until
        # it enters, whether added to the last basis or built cold
        s = new_system(generate("cube"))
        assert maximize_margin(s).margin == F(1, 4)
        extended = ConstraintSystem(s.edge_count, s.rows + (row,))
        extended._tableau = s._tableau
        c = s.edge_count + len(extended.rows)
        derived = []  # per maximize call, whether c starts derived
        maximize = lp_module._Tableau.maximize

        def recorded_maximize(tab):
            derived.append(any(c in group for group in tab.derived.values()))
            return maximize(tab)

        monkeypatch.setattr(lp_module._Tableau, "maximize", recorded_maximize)
        built = count_new_tableaus(monkeypatch)
        warm = maximize_margin(extended)
        again = maximize_margin(cold(extended))
        assert built == [len(extended.rows)] and derived == [True, True]
        assert warm.margin == again.margin < F(1, 4)
        for solution in (warm, again):
            assert multiplier_problems(extended, solution.multipliers, solution.margin) == []
            # the row binds: its column entered
            assert solution.multipliers[-1] < 0

    def test_a_resolve_makes_no_pivot(self, monkeypatch):
        s = dual_with_cuts("prism", 5, 8)
        margin = maximize_margin(s).margin
        log, _ = record_pivots(monkeypatch)
        assert maximize_margin(s).margin == margin
        assert log == []
