"""Exact rational linear programming for the margin feasibility system.

The margin system has one weight w_e per edge plus a shared margin t;
maximizing t decides strict feasibility of the open weighting conditions:
the open region is nonempty exactly when the closed system admits t > 0.
It is stated over the nonnegative variables U_e = 2(w_e - t) and
S = 2(t + 1), so the bounds w_e >= t and t >= -1 hold by construction,
and every row is an integer row with a right-hand side >= 0:

    upper    U_e + 2S <= 5                        w_e + t <= 1/2
    face     sum(U over f) + |f| S = 2|f| + 2     sum(w over f) = 1
    circuit  sum(U over C) + (|C| - 1) S >= 2|C|  sum(w over C) >= 1 + t

A row's kind fixes its relation.  The point each solve returns is
re-checked against every row exactly, on integer numerators over one
denominator (:func:`point_problem`).

The solver is a two-phase simplex on sparse fraction-free integer rows:
each row is a map of its nonzero integer entries over one positive
denominator, so a pivot touches only nonzeros, the pivot loop builds no
``Fraction`` and there is no floating point anywhere; feasibility and
optimality are exact.  A row updated by a pivot is reduced by its gcd
only once its denominator reaches 2^30 (:data:`_REDUCE_AT`); it equals
its reduced form as rationals, and no comparison the simplex makes
depends on a positive row scale, so neither does any pivot or result.
The pivot rule is steepest reduced cost with a permanent switch to
Bland's rule after a run of degenerate pivots, which guarantees
termination.  Phase 1 maximizes minus the sum of the artificial
variables, which is never positive, so it stops the moment its value
reaches 0, its known optimum, rather than pivoting on until no reduced
cost is positive.  Every artificial still basic then sits at 0, and
phase 2 keeps it there: its row blocks an entering column at ratio 0
whatever the sign of the entry, so it leaves only in a degenerate pivot,
and on a redundant row it stays basic.

Every solve also yields exact LP multipliers y, one per row, read off
the final tableau as it returns (``MarginSolution.multipliers``).  Each
row's artificial column stays in the tableau through phase 2 without
being priced, so it never enters the basis; with the rows' slack
columns it carries the inverse of the final basis, whose reduced costs
are -y.  By LP duality, y proves the optimum from the rows alone:
signed >= 0 on upper rows, <= 0 on circuit rows and free on face rows,
with y^T A at least e_s, the unit vector of S, in every column and
y^T b = 2(margin + 1).  The factor 2 scales the variables, not the rows:
A is the matrix of the same rows over w - t and t + 1 and only b
doubles, so the point doubles while y and every pivot stay as they are
over those variables.  When phase 1 ends above 0, the same columns give
a Farkas ray: y^T A >= 0 and y^T b < 0.  :func:`multiplier_problems`
checks either with a few sparse sums and no solver.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InternalError
from .graph import PolyhedralGraph, trace_faces
from .separation import _scaled

_F0 = Fraction(0)

#: Each row kind's relation, the coefficient of its slack column, which
#: is the sign of its multiplier, and that sign in words.
_KINDS = {
    "upper": (operator.le, 1, ">= 0"),
    "face": (operator.eq, 0, "free"),
    "circuit": (operator.ge, -1, "<= 0"),
}

#: Degenerate pivots in a row before the simplex switches to Bland's rule.
_STALL_THRESHOLD = 64

#: A row update divides the row by its gcd only once the row's
#: denominator reaches this: below it the denominator fits in one CPython
#: int digit, so carrying a common factor costs less than the gcd that
#: would remove it, and above it reducing keeps the integers from growing.
_REDUCE_AT = 1 << 30


class Row(NamedTuple):
    """One integer row over the nonnegative variables (U, S).

    ``terms`` lists the nonzero ``(index, coeff)`` pairs; index e < E is
    U_e and index E is S.  Coefficients and ``rhs`` are ``int``, and
    ``rhs`` is at least 0.  ``kind`` is the row family, and with it the
    relation (:data:`_KINDS`): ``upper`` rows are '<=' and carry the edge
    id in ``ref``, ``face`` rows are '=' and carry the face id, and
    ``circuit`` rows are '>=' and carry the canonical edge id tuple.
    """

    terms: tuple[tuple[int, int], ...]
    rhs: int
    kind: str
    ref: object = None


class ConstraintSystem(NamedTuple):
    """Immutable snapshot of the margin LP's rows over U >= 0, S >= 0.

    Always contains, for every edge e, U_e + 2S <= 5 (w_e + t <= 1/2),
    and per face f, sum(U over f) + |f| S = 2|f| + 2 (unit face sum).
    Rows for circuits are added on demand.  Variable ``margin_index`` is S.
    The rows are the whole system: a circuit row's ``ref`` is its key
    and a face row's terms name the face's edges.
    """

    edge_count: int
    rows: tuple[Row, ...]

    @property
    def variable_count(self) -> int:
        return self.edge_count + 1

    @property
    def margin_index(self) -> int:
        return self.edge_count


def new_system(g: PolyhedralGraph) -> ConstraintSystem:
    """Upper-bound and face-equality rows for g; no circuit rows yet."""
    s_index = g.edge_count
    rows = [Row(((e, 1), (s_index, 2)), 5, "upper", e) for e in range(g.edge_count)]
    for f in trace_faces(g):
        size = len(f.edge_ids)
        terms = tuple((e, 1) for e in sorted(f.edge_ids)) + ((s_index, size),)
        rows.append(Row(terms, 2 * size + 2, "face", f.id))
    return ConstraintSystem(g.edge_count, tuple(rows))


def add_circuit_constraint(s: ConstraintSystem, key: tuple[int, ...]) -> ConstraintSystem:
    """New system with the row  sum(w over C) - t >= 1  appended, stated
    as  sum(U over C) + (|C| - 1) S >= 2|C|.  ``key`` must be C's
    canonical edge id tuple, as :func:`~inscribe.separation.canonical_circuit`
    and the oracles return it.  Raises ValueError if C is already a row,
    bounds a face or names an unknown edge."""
    edges = {*key, s.margin_index}
    for row in s.rows:
        if row.kind == "circuit" and row.ref == key:
            raise ValueError(f"circuit {key} already present")
        if row.kind == "face" and {j for j, _ in row.terms} == edges:
            raise ValueError(f"circuit {key} bounds a face")
    if any(not 0 <= e < s.edge_count for e in key):
        raise ValueError("circuit references an unknown edge")
    terms = tuple((e, 1) for e in key) + ((s.margin_index, len(key) - 1),)
    return ConstraintSystem(s.edge_count, s.rows + (Row(terms, 2 * len(key), "circuit", key),))


class MarginSolution(NamedTuple):
    """Exact optimum of the margin LP, or None for ``margin`` and
    ``weights`` when the rows have no point.

    ``multipliers`` holds the LP multipliers of the solved system's
    rows, in row order.  With a margin they prove that no point has a
    margin above it, without one that the rows have no point at all (a
    Farkas ray); :func:`multiplier_problems` checks either.  They are the
    same over (U, S) as over (U/2, S/2): only the point scales.
    """

    margin: Fraction | None
    weights: tuple[Fraction, ...] | None
    multipliers: tuple[Fraction, ...]

    @property
    def status(self) -> str:
        return "infeasible" if self.margin is None else "optimal"


def maximize_margin(s: ConstraintSystem) -> MarginSolution:
    """Exact maximum of t over the closed system.

    The optimum exists whenever the system is feasible: the upper rows
    and U, S >= 0 keep the region compact.  The returned point is
    re-verified by :func:`point_problem`, in integers, to be nonnegative
    and to satisfy every row exactly, and InternalError names what it
    fails; it is then mapped back to t = S/2 - 1 and w_e = U_e/2 + t.
    A row of unknown kind or with a negative right-hand side raises
    ValueError.
    """
    x, multipliers = _solve_lp(s.variable_count, s.rows, s.margin_index)
    if x is None:
        return MarginSolution(None, None, multipliers)
    problem = point_problem(s, x)
    if problem is not None:
        raise InternalError(f"solver returned {problem}")
    t = x[s.margin_index] / 2 - 1
    return MarginSolution(t, tuple(u / 2 + t for u in x[: s.edge_count]), multipliers)


def point_problem(s: ConstraintSystem, x: Sequence[Fraction]) -> str | None:
    """What keeps x from being a point of s: ``'a negative variable'``,
    or ``'a point violating a <kind> row'`` for the first row it misses;
    None when x >= 0 satisfies every row exactly.

    x is scaled once to integer numerators X over their least common
    denominator D, and a row holds when sum(c X_j) compares to rhs D as
    its kind says, so the rows' integers build no ``Fraction``.
    """
    nums, d = _scaled(x)
    if any(v < 0 for v in nums):
        return "a negative variable"
    for row in s.rows:
        lhs = sum(c * nums[j] for j, c in row.terms)
        if not _KINDS[row.kind][0](lhs, row.rhs * d):
            return f"a point violating a {row.kind} row"
    return None


def multiplier_problems(
    s: ConstraintSystem, y: Sequence[Fraction], margin: Fraction | None
) -> list[str]:
    """What keeps y from proving, with no solver, that no point of s
    has a margin above ``margin`` (or, with ``margin`` None, that s has
    no point at all); an empty list when y proves it.

    y holds one multiplier per row of s, >= 0 on upper ('<=') rows,
    <= 0 on circuit ('>=') rows and free on face ('=') rows, so every
    point x of the rows has y^T A x <= y^T b.  Over x >= 0, columns of
    y^T A at least e_s, the unit vector of S, then give S <= y^T b, the
    margin bound y^T b / 2 - 1, which must equal ``margin``; columns of
    y^T A at least 0 with y^T b < 0 leave no point.  The cost is one pass
    over the rows' nonzero terms.
    """
    if len(y) != len(s.rows):
        return [f"{len(y)} multipliers for {len(s.rows)} rows"]
    problems = []
    # integer sums in units of 1 / d, d the multipliers' denominator
    nums, d = _scaled(y)
    column = [0] * s.variable_count
    value = 0
    for i, (row, n) in enumerate(zip(s.rows, nums)):
        if not n:
            continue
        _, sign, rule = _KINDS[row.kind]
        if n * sign < 0:
            problems.append(f"multiplier {i} of {row.kind} row {row.ref} is {y[i]}, not {rule}")
        for j, c in row.terms:
            column[j] += n * c
        value += n * row.rhs
    if margin is not None:
        column[s.margin_index] -= d
    short = [j for j, c in enumerate(column) if c < 0]
    if short:
        bound = "0" if margin is None else "e_s"
        problems.append(f"columns {short} of y^T A fall below {bound}")
    value = Fraction(value, d)
    if margin is None:
        if value >= 0:
            problems.append(f"ray gives y^T b = {value}, not below 0")
    elif value != 2 * (margin + 1):
        problems.append(f"multipliers bound the margin by {value / 2 - 1}, not {margin}")
    return problems


class _Tableau:
    """Simplex tableau on fraction-free integer rows of nonzeros.

    Row i stands for ``rows[i] / den[i]``, a ``{column: int}`` map of its
    nonzero entries, with right-hand side ``rhs[i] / den[i]``; the
    objective row is ``reduced / obj_den``, a map of the nonzero reduced
    costs, with value ``value / obj_den``.  Every denominator is positive.
    A row need not be primitive (the gcd of its integers and its
    denominator 1) but equals its primitive form as rationals: the pivot
    row and a new objective are reduced, and a row the pivot updates only
    once its denominator reaches :data:`_REDUCE_AT`.  The tableau owns
    its maps: a pivot rewrites each row it touches in place.  A basic
    column reads ``den[i]`` in its own row and is absent elsewhere.
    ``maximize`` runs to an optimum; every LP here is bounded, so a
    column that no row bounds raises InternalError.  ``bland`` records
    whether the last ``maximize`` fell back to Bland's rule.  Only
    columns below ``priced`` may enter the basis, and a basic column at
    or above it stays at 0.  While
    ``nonpositive`` is set the objective can never exceed 0 (phase 1),
    so ``maximize`` stops as soon as its value reaches 0.
    """

    def __init__(self, rows, rhs, basis, priced):
        self.rows = rows
        self.rhs = rhs
        self.den = [1] * len(rows)
        self.basis = basis
        self.priced = priced
        self.nonpositive = False
        self.reduced = {}
        self.value = 0
        self.obj_den = 1
        self.bland = False

    def set_objective(self, cost):
        """Reduced costs and value of the sparse integer cost map ``cost``."""
        basic = [(i, cost[bc]) for i, bc in enumerate(self.basis) if cost.get(bc)]
        d = math.lcm(*(self.den[i] for i, _ in basic))
        reduced = {j: c * d for j, c in cost.items()}
        value = 0
        for i, cb in basic:
            f = cb * (d // self.den[i])
            for j, x in self.rows[i].items():
                reduced[j] = reduced.get(j, 0) - f * x
            value += f * self.rhs[i]
        # a basic column's own row cancels its cost, so it drops out as 0
        reduced = {j: x for j, x in reduced.items() if x}
        g = math.gcd(*reduced.values(), value, d)
        self.reduced = {j: x // g for j, x in reduced.items()}
        self.value = value // g
        self.obj_den = d // g

    def pivot(self, r, c):
        rows, rhs, den = self.rows, self.rhs, self.den
        row = rows[r]
        # divide by the row's gcd, signed so that the pivot entry p > 0
        g = math.gcd(*row.values(), rhs[r]) * (1 if row[c] > 0 else -1)
        if g != 1:
            for j, x in row.items():
                row[j] = x // g
        p = row[c]
        b = rhs[r] = rhs[r] // g
        den[r] = p
        for i, other in enumerate(rows):
            a = other.get(c)
            if a and i != r:
                _, rhs[i], den[i] = _eliminate(other, rhs[i], den[i], a, row, b, p)
        # (reduced, -value) updates like a constraint row (row, rhs); the
        # entering column's reduced cost is positive
        _, value, self.obj_den = _eliminate(
            self.reduced, -self.value, self.obj_den, self.reduced[c], row, b, p
        )
        self.value = -value
        self.basis[r] = c

    def maximize(self):
        self.bland = False
        stall = 0
        priced = self.priced
        rows, rhs, basis = self.rows, self.rhs, self.basis
        while True:
            if self.nonpositive and self.value == 0:
                return
            reduced = self.reduced
            improving = [j for j, v in reduced.items() if v > 0 and j < priced]
            if not improving:
                return
            # Bland: the lowest improving column; otherwise the steepest
            # reduced cost, the lowest column on ties
            if self.bland:
                enter = min(improving)
            else:
                enter = max(improving, key=lambda j: (reduced[j], -j))
            # minimum ratio rhs[i] / rows[i][enter] over positive entries,
            # compared by cross-multiplying (den[i] cancels); a row whose
            # basic column is unpriced sits at 0 and blocks a negative
            # entry too, at ratio 0, so that column stays at 0
            leave = -1
            best_b = best_a = 0
            for i, row in enumerate(rows):
                a = row.get(enter)
                if not a or (a < 0 and basis[i] < priced):
                    continue
                a = abs(a)
                b = rhs[i]
                if leave < 0:
                    better = True
                else:
                    left, right = b * best_a, best_b * a
                    better = left < right or (left == right and basis[i] < basis[leave])
                if better:
                    best_b, best_a = b, a
                    leave = i
            if leave < 0:
                raise InternalError(f"no row bounds entering column {enter}")
            degenerate = best_b == 0
            self.pivot(leave, enter)
            if degenerate:
                stall += 1
                if stall > _STALL_THRESHOLD:
                    self.bland = True
            else:
                stall = 0


def _eliminate(row, b, d, a, prow, pb, p):
    """Clear entry a of the row (row, b) / d with the pivot row
    (prow, pb) / p, whose pivot entry is p > 0:  (p row - a prow) / (d p).
    Rows are maps of their nonzeros, and ``row`` is rewritten in place:
    scaled only when p does not divide a, and reduced to primitive form
    only once its new denominator reaches :data:`_REDUCE_AT`, so a row
    equals its reduced form as rationals but need not be primitive."""
    g = math.gcd(p, a)
    if g != 1:
        p //= g
        a //= g
    if p != 1:
        for j, x in row.items():
            row[j] = p * x
        b *= p
        d *= p
    for j, y in prow.items():
        x = row.get(j, 0) - a * y
        if x:
            row[j] = x
        else:
            del row[j]
    b -= a * pb
    if d >= _REDUCE_AT:
        g = math.gcd(*row.values(), b, d)
        if g > 1:
            for j, x in row.items():
                row[j] = x // g
            b //= g
            d //= g
    return row, b, d


def _solve_lp(n_vars, rows, target):
    """Maximize x[target] over x >= 0 subject to the integer rows.

    Each row gets a slack column whose coefficient its kind gives
    (:data:`_KINDS`): +1 on an upper row, -1 on a circuit row and none on
    a face row; each row without a +1 slack gets an artificial variable.
    Phase 1 maximizes minus their sum and stops as soon as that reaches
    0; below 0 at its optimum the rows have no point.  Phase 2 then
    maximizes x[target], which the rows must bound, with the artificials
    unpriced: one left basic at 0 stays at 0, so tableau row i is row i
    for the whole solve.  Returns (x, y): x holds Fractions, None when
    the rows have no point, and y the LP multipliers of the rows (a
    Farkas ray without a point), read off the final reduced costs.  A
    row of unknown kind or with a negative right-hand side raises
    ValueError.
    """
    matrix: list[dict[int, int]] = []
    basis: list[int | None] = []
    next_slack = n_vars
    for row in rows:
        if row.kind not in _KINDS:
            raise ValueError(f"unknown row kind {row.kind!r}")
        if row.rhs < 0:
            raise ValueError(f"{row.kind} row {row.ref} has right-hand side {row.rhs} < 0")
        vec = {j: c for j, c in row.terms if c}  # fresh: pivots rewrite it in place
        sign = _KINDS[row.kind][1]
        if sign:
            vec[next_slack] = sign
            next_slack += 1
        matrix.append(vec)
        # a +1 slack is the row's first basic column
        basis.append(next_slack - 1 if sign > 0 else None)

    art_start = next_slack
    art_rows = [i for i, bc in enumerate(basis) if bc is None]
    tab = _Tableau(matrix, [row.rhs for row in rows], basis, art_start + len(art_rows))
    for k, i in enumerate(art_rows):
        matrix[i][art_start + k] = 1
        basis[i] = art_start + k
    # each row's first basic column is a unit column of the original
    # rows: its reduced cost is its cost less the row's multiplier
    unit_columns = tuple(basis)
    if art_rows:
        cost = {art_start + k: -1 for k in range(len(art_rows))}
        tab.set_objective(cost)
        tab.nonpositive = True
        tab.maximize()
        if tab.value != 0:
            return None, _multipliers(tab, cost, unit_columns)
        # artificial columns stay in the rows, never to enter again;
        # those still basic sit at 0 and stay there
        tab.priced = art_start
        tab.nonpositive = False

    cost = {target: 1}
    tab.set_objective(cost)
    tab.maximize()
    x = [_F0] * n_vars
    for i, bc in enumerate(tab.basis):
        if bc < n_vars:
            x[bc] = Fraction(tab.rhs[i], tab.den[i])
    return x, _multipliers(tab, cost, unit_columns)


def _multipliers(tab, cost, unit_columns):
    """y read off the tableau's current reduced costs: y_i = cost(c) -
    d(c) for row i's unit column c."""
    reduced, obj_den = tab.reduced, tab.obj_den
    return tuple(
        Fraction(cost.get(c, 0) * obj_den - reduced.get(c, 0), obj_den) for c in unit_columns
    )
