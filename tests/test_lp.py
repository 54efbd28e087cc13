import itertools
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from helpers import CORPUS_SPECS
from reference import reference_eliminate

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

    def test_contradictory_face_equalities_infeasible(self):
        # one variable asked to be 1 and 1/3 at once
        rows = (
            Row(((0, 1),), 1, "face", 0),
            Row(((0, 3),), 1, "face", 1),
        )
        s = ConstraintSystem(1, rows)
        sol = maximize_margin(s)
        assert sol.status == "infeasible"
        assert sol.margin is None and sol.weights is None

    def test_column_no_row_bounds_raises(self):
        # no upper row bounds S, so phase 2 finds no leaving row for it
        s = ConstraintSystem(1, (Row(((0, 1),), 1, "upper", 0),))
        with pytest.raises(InternalError, match="no row bounds entering column 1"):
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
        (0, F(6), "a point violating a upper row"),
        (1, F(-1), "a point violating a face row"),
        (2, F(-2), "a point violating a circuit row"),
        (3, F(-2), "a negative variable"),
    ], ids=["upper", "face", "circuit", "negative"])
    def test_nudged_point_raises(self, monkeypatch, index, nudge, problem):
        solve = lp_module._solve_lp

        def nudged(*args):
            x, y = solve(*args)
            x[index] += nudge
            return x, y

        monkeypatch.setattr(lp_module, "_solve_lp", nudged)
        with pytest.raises(InternalError, match=f"^solver returned {problem}$"):
            maximize_margin(self.SYSTEM)


class TestBlandsRule:
    @pytest.mark.parametrize("family,n,cuts", [
        ("tetrahedron", None, 8),
        ("octahedron", None, 8),
        ("cube", None, 8),
        ("prism", 5, 8),
        ("bipyramid", 4, 8),
        ("kleetope(bipyramid)", 3, 0),
        ("kleetope(tetrahedron)", None, 0),
    ])
    def test_bland_from_first_degenerate_pivot_keeps_the_margin(
        self, monkeypatch, family, n, cuts
    ):
        s = dual_with_cuts(family, n, cuts)
        default = maximize_margin(s)
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
    def test_random_small_systems_match(self):
        rng = random.Random(2024)
        statuses = {}
        kinds = set()  # of the drawn rows, some of them negated
        for _ in range(120):
            s = random_small_system(rng)
            assert all(is_integer_row(row) and row.rhs >= 0 for row in s.rows)
            kinds.update(row.kind for row in s.rows if row.ref is None)
            sol = maximize_margin(s)
            expected = vertex_enumeration_margin(s)
            assert (sol.status, sol.margin) == expected, s.rows
            # a dual solution proving the optimum, or a Farkas ray
            assert multiplier_problems(s, sol.multipliers, sol.margin) == [], s.rows
            statuses[sol.status] = statuses.get(sol.status, 0) + 1
        assert statuses.get("optimal", 0) >= 20
        assert statuses.get("infeasible", 0) >= 20
        assert kinds == set(lp_module._KINDS)


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


def random_elimination(rng):
    """Arguments of one row update: a row (row, b) / d with entry a in
    pivot column 0, and a pivot row (prow, pb) / p with p > 0 there.  p
    is 1, a divisor of a or random; when p divides a, some of the row's
    entries are a / p times the pivot row's, so they cancel; b is of
    either sign, as the objective's -value is.  d is small, near 2^30
    over a small factor or above 2^30, so the new denominator falls on
    either side of the bound at which the update reduces the row; the
    row is primitive or a small multiple of a primitive row, as a row
    carried unreduced may be."""
    p = rng.choice((1, 2, 6, rng.randint(1, 40)))
    prow = {j: rng.choice((-1, 1)) * rng.randint(1, 30) for j in range(1, 8) if rng.random() < 0.5}
    prow[0] = p
    k = rng.choice((-3, -1, 1, 2))
    a = rng.choice((k * p, k * rng.choice((2, 3)), rng.choice((-1, 1)) * rng.randint(1, 40)))
    row = {j: rng.choice((-1, 1)) * rng.randint(1, 30) for j in range(1, 9) if rng.random() < 0.5}
    if a == k * p:
        row.update((j, k * y) for j, y in prow.items() if j and rng.random() < 0.5)
    row[0] = a
    b = rng.randint(-30, 30)
    d = rng.choice((
        1,
        rng.randint(1, 30),
        max(1, (1 << 30) // rng.randint(1, 40) + rng.randint(-2, 2)),
        rng.randint(1 << 30, 1 << 40),
    ))
    g = math.gcd(*row.values(), b, d)
    m = rng.choice((1, 1, 2, 6))  # the common factor of a row carried unreduced
    row = {j: m * x // g for j, x in row.items()}
    return row, m * b // g, m * d // g, m * a // g, prow, rng.randint(0, 30), p


# the real update, which TestTableauInvariant replaces by a checking wrapper
ELIMINATE = lp_module._eliminate


def unreduced_denominator(d, a, p):
    """The denominator d p / gcd(p, a) of a row update before any gcd."""
    return d * (p // math.gcd(p, a))


def check_eliminate(row, b, d, a, prow, pb, p):
    """``_eliminate`` on these arguments, checked against
    ``reference_eliminate``, the fully reduced update: equal as
    rationals, with only nonzeros stored, the row rewritten in its own
    map and the pivot row left as it is.  Its new denominator is
    d p / gcd(p, a), and once that reaches 2^30 the row is reduced to
    exactly the reference's primitive form, and otherwise left there."""
    expected = reference_eliminate(row, b, d, a, prow, pb, p)
    before = dict(prow)
    result = ELIMINATE(row, b, d, a, prow, pb, p)
    assert result[0] is row
    assert prow == before
    new, nb, nd = result
    ref, rb, rd = expected
    assert 0 not in new.values() and new.keys() == ref.keys()
    assert nd > 0 and nb * rd == rb * nd
    assert all(x * rd == ref[j] * nd for j, x in new.items())
    unreduced = unreduced_denominator(d, a, p)
    if unreduced >= lp_module._REDUCE_AT:
        assert result == expected
    else:
        assert nd == unreduced
    return result


class TestEliminate:
    def test_matches_the_copying_update(self):
        rng = random.Random(2025)
        seen = set()
        for _ in range(2000):
            row, b, d, a, prow, pb, p = random_elimination(rng)
            before = dict(row)
            unreduced = unreduced_denominator(d, a, p)
            new, nb, nd = check_eliminate(row, b, d, a, prow, pb, p)
            seen.update(name for name, hit in (
                ("p = 1", p == 1),
                ("p shares a factor with a", p > 1 and math.gcd(p, a) > 1),
                ("negative a", a < 0),
                ("d = 1", d == 1),
                ("d > 1", d > 1),
                ("the row is not primitive", math.gcd(*before.values(), b, d) > 1),
                ("an entry cancels", any(j and j not in new for j in prow)),
                ("negative rhs", b < 0),
                ("new denominator 1", nd == 1),
                ("carried unreduced below 2^30",
                 unreduced < lp_module._REDUCE_AT and math.gcd(*new.values(), nb, nd) > 1),
                ("reduced from 2^30 to below it", unreduced >= lp_module._REDUCE_AT > nd),
                ("reduced, still at least 2^30", unreduced > nd >= lp_module._REDUCE_AT),
            ) if hit)
        assert len(seen) == 12, seen


def is_primitive(row, b, d):
    return math.gcd(*row.values(), b, d) == 1


class TestTableauInvariant:
    """Rows store only nonzeros, each is its own map and equals the
    fully reduced row as rationals, the basis stays an identity, and in
    phase 2 every artificial still basic sits at 0.  A row is primitive
    once its denominator reaches 2^30, and the pivot row and a fresh
    objective always are."""

    @staticmethod
    def check(tab):
        basic = set(tab.basis)
        # a pivot rewrites each row's map in place, so no two may share one
        maps = {id(row) for row in tab.rows}
        assert len(maps) == len(tab.rows) and id(tab.reduced) not in maps
        for i, row in enumerate(tab.rows):
            assert 0 not in row.values()
            if tab.den[i] >= lp_module._REDUCE_AT:
                assert is_primitive(row, tab.rhs[i], tab.den[i])
            assert row[tab.basis[i]] == tab.den[i] > 0
            assert basic & row.keys() == {tab.basis[i]}
            # phase 2 prices no artificial; in phase 1 none is unpriced
            if tab.basis[i] >= tab.priced:
                assert tab.rhs[i] == 0
        assert 0 not in tab.reduced.values()
        if tab.obj_den >= lp_module._REDUCE_AT:
            assert is_primitive(tab.reduced, tab.value, tab.obj_den)
        assert not basic & tab.reduced.keys()

    @pytest.mark.parametrize("family,n,cuts,phase2_pivots", [
        ("cube", None, 0, 0),
        ("prism", 5, 8, 0),
        ("kleetope(bipyramid)", 3, 0, 2),
        # phase 2 moves a zero artificial out on a negative entry
        ("kleetope(tetrahedron)", None, 0, 1),
    ])
    def test_after_every_pivot(self, monkeypatch, family, n, cuts, phase2_pivots):
        pivots = []  # one count per maximize call: phase 1, then phase 2
        updates = [0]  # calls of _eliminate, each checked
        pivot = lp_module._Tableau.pivot
        maximize = lp_module._Tableau.maximize

        def checked_pivot(tab, r, c):
            pivot(tab, r, c)
            pivots[-1] += 1
            assert is_primitive(tab.rows[r], tab.rhs[r], tab.den[r])
            self.check(tab)

        def counted_maximize(tab):
            pivots.append(0)
            # set_objective has just reduced the objective
            assert is_primitive(tab.reduced, tab.value, tab.obj_den)
            self.check(tab)
            return maximize(tab)

        def checked_eliminate(*args):
            updates[0] += 1
            return check_eliminate(*args)

        monkeypatch.setattr(lp_module._Tableau, "pivot", checked_pivot)
        monkeypatch.setattr(lp_module._Tableau, "maximize", counted_maximize)
        monkeypatch.setattr(lp_module, "_eliminate", checked_eliminate)
        solution = maximize_margin(dual_with_cuts(family, n, cuts))
        assert solution.status == "optimal"
        assert len(pivots) == 2 and pivots[0] > 0
        assert pivots[1] == phase2_pivots
        assert updates[0] > 0


def record_pivots(monkeypatch):
    """Wrap ``_Tableau.maximize`` and ``_Tableau.pivot`` to log every
    pivot of a solve as (phase, objective value before it): phase 0 or 1
    inside the first or second ``maximize`` call, None between them."""
    log, phase, inside = [], [-1], [False]
    pivot = lp_module._Tableau.pivot
    maximize = lp_module._Tableau.maximize

    def logging_pivot(tab, r, c):
        log.append((phase[0] if inside[0] else None, tab.value))
        pivot(tab, r, c)

    def logging_maximize(tab):
        phase[0] += 1
        inside[0] = True
        try:
            return maximize(tab)
        finally:
            inside[0] = False

    monkeypatch.setattr(lp_module._Tableau, "pivot", logging_pivot)
    monkeypatch.setattr(lp_module._Tableau, "maximize", logging_maximize)
    return log, phase


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
    """Phase 1 maximizes minus the sum of the artificials, which is
    never positive, so it stops as soon as its value reaches 0."""

    @pytest.mark.parametrize("family,n,cuts", [
        ("octahedron", None, 0),
        ("icosahedron", None, 0),
        ("antiprism", 8, 0),
        ("prism", 5, 8),
        ("kleetope(bipyramid)", 3, 0),
    ])
    def test_no_pivot_at_value_0(self, monkeypatch, family, n, cuts):
        log, phase = record_pivots(monkeypatch)
        solution = maximize_margin(dual_with_cuts(family, n, cuts))
        assert solution.status == "optimal"
        assert phase == [1]
        phase_1 = [value for ph, value in log if ph == 0]
        assert phase_1 and 0 not in phase_1

    def test_antiprism_8_pivot_count(self, monkeypatch):
        # the dual's phase 1 reaches 0 after one pivot, and phase 2 makes
        # none, as the zero artificials stay basic
        log, _ = record_pivots(monkeypatch)
        solution = maximize_margin(dual_with_cuts("antiprism", 8, 0))
        assert solution.margin == F(1, 4)
        assert len(log) == 1

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_zero_artificials_stay_in_phase_2(self, monkeypatch, duplicate):
        s = all_triples_system(duplicate)
        art_start = s.variable_count + row_counts(s)["upper"]
        art_rows = row_counts(s)["face"]
        ends = []  # (value, basic artificials, rows) as each phase ends
        log, _ = record_pivots(monkeypatch)
        maximize = lp_module._Tableau.maximize

        def recording(tab):
            status = maximize(tab)
            ends.append((tab.value, sum(bc >= art_start for bc in tab.basis), len(tab.rows)))
            return status

        monkeypatch.setattr(lp_module._Tableau, "maximize", recording)
        solution = maximize_margin(s)
        # phase 1 stops at 0 with all but one artificial still basic;
        # no pivot runs between the phases, and phase 2 ends with every
        # row, the redundant duplicate too
        assert ends[0] == (0, art_rows - 1, len(s.rows))
        assert [ph for ph, _ in log if ph is None] == []
        assert len(ends) == 2 and ends[1][2] == len(s.rows)
        assert (solution.status, solution.margin) == vertex_enumeration_margin(s)
        assert solution.margin == F(1, 6)
        assert multiplier_problems(s, solution.multipliers, solution.margin) == []

    @pytest.mark.parametrize("decide", [decide_inscribable, decide_circumscribable])
    def test_corpus_pivots_only_inside_maximize(self, monkeypatch, decide):
        log, _ = record_pivots(monkeypatch)
        for family, n in CORPUS_SPECS:
            decide(generate(family, n))
        assert log and all(ph is not None for ph, _ in log)
        # pinned: how a row update is computed changes no pivot
        assert len(log) == {decide_inscribable: 385, decide_circumscribable: 567}[decide]
