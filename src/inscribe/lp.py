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

The solver runs the simplex on the LP's dual, min b^T y over y^T A >= e_s,
the unit vector of S, with y_i >= 0 on an upper row, y_i <= 0 on a
circuit row and y_i free on a face row.  The dual has one row per
variable of the margin LP, E + 1 of them however many circuit rows
there are, and one column per row of it:

    U_e   -sum(A_ie y_i) + slack_e = 0        the slack basic at 0
    S      sum(A_iS y_i) - surplus + art = 1  the one artificial basic

An upper row's column is its y >= 0, a circuit row's is z = -y >= 0 with
its entries negated, and a face row's is its free y.  The objective
maximizes -b^T y, whose optimum is -S at the margin LP's optimum.  One
loop runs both phases.  Phase 1 maximizes -art, and while the artificial
is basic it is absent from every other row, so its own row, the row of
S, is as rationals phase 1's objective row: phase 1 prices that row,
which each pivot updates as it updates the objective row.  The
artificial is the least column, so it leaves the basis on any ratio tie,
exactly when -art reaches 0, its known optimum; from then on the
objective row is priced, and the artificial never again.  If no column
improves while the artificial is basic, -art stays below 0: no y meets
the dual's rows, which means some direction raises S with every row
still met, so that no row bounds S, and InternalError says so.  A free
column enters before any other column whose reduced cost is nonzero,
those of fewest terms first, in the direction of that cost: where it is
negative, the ratio test reads the column's entries negated, and the
pivot makes its pivot entry positive, so no column is ever negated and
the basic value of a free column's row is its y itself.  Once basic a
free column never leaves, as the ratio test skips its row.  Each free
column thus enters at most once, and the other pivots are those of the
ordinary simplex, with steepest reduced cost and a permanent switch to
Bland's rule after a run of degenerate pivots, which guarantees
termination.

The results are read off the final tableau.  The point (U, S) is the
dual's own dual: the initial basis columns, the slacks and the
artificial, carry the inverse of the final basis, so the objective row's
reduced costs there are U and -S, and the point leaves the tableau as
those integer entries over the row's one denominator, with no
``Fraction``.  The multipliers y of the margin LP's rows
(``MarginSolution.multipliers``) are the dual's basic values, with a
circuit column's sign undone, one ``Fraction`` for each basic row
column.  By LP duality they prove the optimum from the rows alone:
signed by row kind, with y^T A at least e_s in every column and
y^T b = 2(margin + 1).  The factor 2 scales the variables, not the rows:
A is the matrix of the same rows over w - t and t + 1 and only b
doubles, so the point doubles while y and every pivot stay as they are
over those variables.  When a column enters that no row bounds, the
dual grows without bound and the rows have no point; that column's
direction, 1 in the column (-1 for a free column that entered against
its entries) and what each basic column loses along it, is a Farkas
ray: y^T A >= 0 and y^T b < 0.  :func:`multiplier_problems` checks
either with a few sparse sums and no solver.

A circuit row added to the margin LP is one more column of the dual, and
the last optimal basis stays feasible when a column is added, so each
cut round goes on from where the last solve stopped: the tableau rides
on the system it solved, :func:`add_circuit_constraint` hands it on,
and the new column enters the tableau through the inverse of the basis
that the initial basis columns carry.  A system whose rows are not the
tableau's rows followed by new circuit rows solves from scratch.

The tableau is sparse and fraction-free: each row is a map of its
nonzero integer entries, and its denominator is its entry in its basic
column, so a pivot touches only nonzeros, the pivot loop builds no
``Fraction`` and there is no floating point anywhere; feasibility and
optimality are exact.  A row updated by a pivot is reduced by its gcd
only once its denominator reaches 2^30 (:data:`_REDUCE_AT`); it equals
its reduced form as rationals, and no comparison the simplex makes
depends on a positive row scale, so neither does any pivot or result.
The right-hand side is no column of its own: it and the artificial's
column both start as the unit vector of S's row with cost 0, and every
row operation is linear, so a row's entry in the artificial is its
right-hand side.  The objective is the tableau's last row, with a basic
column z of its own: its entries are the reduced costs, and its entry
in the artificial minus the objective's value.  A new tableau starts at
the basis of the slacks and the artificial, whose costs are 0, so its
objective row is the cost of each column as it stands, and each pivot
updates it as it updates every constraint row.

Not every column is stored.  The initial basis columns carry the inverse
of the basis and z the objective's scale, so a column whose entries are
a_j and whose cost is c reads sum(row[u_j] a_j) + row[z] c in every
row, u_j the initial basis column of U_j's row or S's.  A column that is
not free and has one U entry, as every upper row's y has, therefore
reads a_S row[art] + c row[z] + a_U row[u] and is derived: it is kept
out of the rows, priced with the columns of its group, those that share
(a_S, c, a_U), at one multiply for the group and one lookup per column,
and written into every row only when it enters, to stay from then on.
Each value it is priced or ratio-tested at is the entry a stored column
would hold, on the same row's scale, so no pivot changes: only the row
updates touch fewer entries.
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

#: Each row kind's relation, the sign of its multiplier (0 when free),
#: and that sign in words.
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

#: Tableau columns that no pricing sees, below every priced column, which
#: is >= 0: the objective's basic column z, and the dual's one
#: artificial, whose entry in each row is the row's right-hand side; it is
#: the least column, so that it leaves the basis on any tie.
_Z, _ART = -1, -2


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


class _Rows(NamedTuple):
    edge_count: int
    rows: tuple[Row, ...]


class ConstraintSystem(_Rows):
    """Immutable snapshot of the margin LP's rows over U >= 0, S >= 0.

    Always contains, for every edge e, U_e + 2S <= 5 (w_e + t <= 1/2),
    and per face f, sum(U over f) + |f| S = 2|f| + 2 (unit face sum).
    Rows for circuits are added on demand.  Variable ``margin_index`` is S.
    The rows are the whole system: a circuit row's ``ref`` is its key
    and a face row's terms name the face's edges.  A solve leaves its
    tableau on the system it solved, and :func:`add_circuit_constraint`
    hands it on, so that the next solve goes on from the last basis; it
    is no part of the system's value.
    """

    _tableau = None

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
    bounds a face or names an unknown edge.  The new system takes over
    s's tableau."""
    edges = {*key, s.margin_index}
    for row in s.rows:
        if row.kind == "circuit" and row.ref == key:
            raise ValueError(f"circuit {key} already present")
        if row.kind == "face" and {j for j, _ in row.terms} == edges:
            raise ValueError(f"circuit {key} bounds a face")
    if any(not 0 <= e < s.edge_count for e in key):
        raise ValueError("circuit references an unknown edge")
    terms = tuple((e, 1) for e in key) + ((s.margin_index, len(key) - 1),)
    system = ConstraintSystem(
        s.edge_count, s.rows + (Row(terms, 2 * len(key), "circuit", key),))
    system._tableau = s._tableau
    return system


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

    The optimum exists whenever the system is feasible and its rows bound
    S, as the upper rows do with U, S >= 0; rows that leave S unbounded
    raise InternalError, whether or not they have a point.  The returned
    point is scaled once to integer numerators over one denominator d
    and re-verified by :func:`point_problem`'s check, in integers, to be
    nonnegative and to satisfy every row exactly, and InternalError names
    what it fails; it is then mapped back to t = S/2 - 1 and
    w_e = U_e/2 + t, each one ``Fraction`` of those integers.  A row of
    unknown kind or with a negative right-hand side raises ValueError.
    """
    x, multipliers = _solve_lp(s)
    if x is None:
        return MarginSolution(None, None, multipliers)
    nums, d = x
    problem = _point_problem(s, nums, d)
    if problem is not None:
        raise InternalError(f"solver returned {problem}")
    # t = (S - 2d) / 2d and w_e = (U_e + S - 2d) / 2d
    shift = nums[s.margin_index] - 2 * d
    return MarginSolution(
        Fraction(shift, 2 * d),
        tuple(Fraction(u + shift, 2 * d) for u in nums[: s.edge_count]),
        multipliers,
    )


def point_problem(s: ConstraintSystem, x: Sequence[Fraction]) -> str | None:
    """What keeps x from being a point of s: ``'a negative variable'``,
    or ``'a point violating a <kind> row'`` for the first row it misses;
    None when x >= 0 satisfies every row exactly.

    x is scaled once to integer numerators X over their least common
    denominator D, and a row holds when sum(c X_j) compares to rhs D as
    its kind says, so the rows' integers build no ``Fraction``.
    """
    return _point_problem(s, *_scaled(x))


def _point_problem(s: ConstraintSystem, nums: Sequence[int], d: int) -> str | None:
    """:func:`point_problem` of the point with numerators ``nums`` over d."""
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

    Each row is a ``{column: int}`` map of its nonzero entries.  ``basis``
    names one column per row, and row i stands for
    ``rows[i] / rows[i][basis[i]]``: a basic column reads the row's
    denominator, which is positive, in its own row and is absent from
    every other.  The artificial's entry in each row is the row's
    right-hand side.
    The last row is the objective, whose basic column :data:`_Z` is its
    own: its entries are the nonzero reduced costs and its entry in the
    artificial is minus the objective's value, so a pivot updates it as
    it updates every constraint row.  The row before it is the row of S,
    where the artificial is basic until phase 1 ends; ``maximize``
    prices that row until then, and the objective row after.  A row need
    not be primitive (the gcd of its entries 1) but equals its primitive
    form as rationals: the pivot row is reduced, and any other row only
    once its denominator reaches :data:`_REDUCE_AT`.  The tableau owns
    its maps: a pivot rewrites each row it touches in place.  Only
    columns >= 0 are priced.  ``derived`` holds the columns kept out of
    the rows, by group: ``{(a_S, cost, a_U): {column: u}}``, each column
    reading a_S row[art] + cost row[z] + a_U row[u] in every row; one
    that enters is written into the rows and leaves its group.  ``free``
    lists the free columns not yet basic, in the order they are to
    enter, and ``open`` the constraint rows whose basic column is not
    free, the only rows that may leave.  ``bland`` records whether the
    last ``maximize`` fell back to Bland's rule.  ``source`` is the
    (edge count, rows) pair of the margin LP whose dual the tableau is.
    """

    def __init__(self, rows, basis, free, derived, source):
        self.rows = rows
        self.basis = basis
        self.free = free
        self.derived = derived
        self.source = source
        self.open = list(range(len(rows) - 1))
        self.bland = False

    def pivot(self, r, c):
        """Pivot on column c in row r.  Each other row with entry a in c,
        whose basic column reads its denominator d, becomes
        (p row - a prow) / (d p), with p > 0 the pivot entry of the
        pivot row prow: scaled only when p does not divide a, and reduced
        to primitive form only once its new denominator reaches
        :data:`_REDUCE_AT`, so a row equals its reduced form as rationals
        but need not be primitive."""
        rows, basis, gcd = self.rows, self.basis, math.gcd
        prow = rows[r]
        # divide by the row's gcd, signed so that the pivot entry p > 0,
        # which is then the row's denominator
        g = gcd(*prow.values()) * (1 if prow[c] > 0 else -1)
        if g != 1:
            for j, x in prow.items():
                prow[j] = x // g
        p = prow[c]
        pivot_entries = prow.items()
        for row, bc in zip(rows, basis):
            a = row.get(c)
            if not a or row is prow:
                continue
            q = p
            g = gcd(p, a)
            if g != 1:
                q //= g
                a //= g
            if q != 1:
                for j, x in row.items():
                    row[j] = q * x
            for j, y in pivot_entries:
                x = row.get(j, 0) - a * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            if row[bc] >= _REDUCE_AT:
                g = gcd(*row.values())
                if g > 1:
                    for j, x in row.items():
                        row[j] = x // g
        basis[r] = c

    def maximize(self):
        """Pivot to an optimum and return None, or return the entering
        column that no row bounds and the sign, -1 for a free column that
        enters against its entries and 1 otherwise, of the direction
        along which the objective grows without bound.  While the
        artificial is basic (phase 1) the row priced is its own;
        InternalError when no column then improves, as no row bounds S."""
        self.bland = False
        stall = 0
        rows, basis, free, derived, open_rows = (
            self.rows, self.basis, self.free, self.derived, self.open)
        art = len(rows) - 2
        while True:
            phase_1 = basis[art] == _ART
            reduced = rows[art] if phase_1 else rows[-1]
            # a free column with a nonzero reduced cost enters first, in
            # the direction of that cost
            enter = next((j for j in free if j in reduced), None)
            sign = -1 if enter is not None and reduced[enter] < 0 else 1
            if enter is None:
                improving = {j: v for j, v in reduced.items() if v > 0 and j >= 0}
                for (a_s, cost, a_u), group in derived.items():
                    base = a_s * reduced.get(_ART, 0) + cost * reduced.get(_Z, 0)
                    improving |= {
                        j: v for j, u in group.items() if (v := base + a_u * reduced.get(u, 0)) > 0
                    }
                if not improving:
                    if phase_1:
                        raise InternalError(f"no row bounds column {art}")
                    return None
                # Bland: the lowest improving column; otherwise the
                # steepest reduced cost, the lowest column on ties
                if self.bland:
                    enter = min(improving)
                else:
                    enter = max(improving, key=lambda j: (improving[j], -j))
                if enter not in reduced:
                    # a derived column is written into the rows to enter,
                    # and leaves its group
                    for (a_s, cost, a_u), group in derived.items():
                        if enter in group:
                            u = group.pop(enter)
                            for row in rows:
                                v = a_s * row.get(_ART, 0) + cost * row.get(_Z, 0)
                                if v := v + a_u * row.get(u, 0):
                                    row[enter] = v
                            break
            # minimum ratio row[_ART] / row[enter] over positive entries
            # of the open rows, compared by cross-multiplying (the row's
            # denominator cancels), from the ratio 1/0, which every row
            # beats; the least basic column leaves on a tie
            leave, best_b, best_a = -1, 1, 0
            for i in open_rows:
                row = rows[i]
                a = sign * row.get(enter, 0)
                if a <= 0:
                    continue
                b = row.get(_ART, 0)
                left, right = b * best_a, best_b * a
                if left < right or (left == right and basis[i] < basis[leave]):
                    best_b, best_a = b, a
                    leave = i
            if leave < 0:
                return enter, sign
            if enter in free:
                free.remove(enter)
                open_rows.remove(leave)
            self.pivot(leave, enter)
            if best_b == 0:
                stall += 1
                if stall > _STALL_THRESHOLD:
                    self.bland = True
            else:
                stall = 0


def _solve_lp(s):
    """Maximize S over x >= 0 subject to the rows of s, through the dual.

    Goes on from the tableau that s carries when s's rows are that
    tableau's rows followed by new circuit rows, and from a new tableau
    otherwise; either way s then carries the tableau.  The point and the
    multipliers are read off the final tableau's stored columns: an
    entering column, derived or not, is stored by the time it enters.
    Returns (x, y): x is the point as (integer numerators, their one
    denominator), None when the rows have no point, and y the LP
    multipliers of the rows, without a point a Farkas ray along the
    direction the last entering column entered in.  No column is
    negated, so a multiplier's sign is undone only for a circuit row.  A
    row of unknown kind or with a negative right-hand side raises
    ValueError.
    """
    tab = s._tableau
    if tab is not None and _extends(s, tab.source):
        _add_columns(tab, s)
    else:
        tab = _new_tableau(s)
    ray = tab.maximize()
    s._tableau = tab
    e, rows, basis = s.edge_count, tab.rows, tab.basis
    if ray is None:
        # U and -S are the reduced costs at the initial basis columns,
        # over the objective row's denominator, its entry in z; the
        # multipliers are the basic values, read off the artificial's
        # column, the right-hand side
        objective = rows[-1]
        x = [-objective.get(j, 0) for j in range(e)] + [objective.get(_ART, 0)], objective[_Z]
        column, sign, value = _ART, 1, {}
    else:
        # the ray: 1 or -1 in the entering column, the direction it
        # entered in, and what each basic column loses per unit of it; a
        # derived column was written into the rows to enter
        column, direction = ray
        x, sign, value = None, -direction, {column: Fraction(direction)}
    # a multiplier is read only off a row's own column
    for row, bc in zip(rows, basis):
        if bc > e:
            value[bc] = Fraction(sign * row.get(column, 0), row[bc])
    y = []
    for i, row in enumerate(s.rows):
        c = e + 1 + i
        v = value.get(c, _F0)
        y.append(-v if row.kind == "circuit" else v)
    return x, tuple(y)


def _extends(s, source):
    """Whether s's rows are those of ``source``, an (edge count, rows)
    pair, followed by circuit rows only."""
    edge_count, rows = source
    return (
        s.edge_count == edge_count
        and s.rows[: len(rows)] == rows
        and all(row.kind == "circuit" for row in s.rows[len(rows):])
    )


def _dual_column(row, e):
    """The dual column of a row over the margin LP's e + 1 variables:
    its entries by dual row, one per variable, and its cost.  A circuit
    row's column is z = -y, and the others' y: in the row of U_j the
    entry is -A_j for y, and in the row of S (index e) it is A_S; the
    cost is -b for y.  Raises ValueError for a row of unknown kind or
    with a negative right-hand side."""
    if row.kind not in _KINDS:
        raise ValueError(f"unknown row kind {row.kind!r}")
    if row.rhs < 0:
        raise ValueError(f"{row.kind} row {row.ref} has right-hand side {row.rhs} < 0")
    sign = -1 if row.kind == "circuit" else 1
    return {j: sign * c if j == e else -sign * c for j, c in row.terms if c}, -sign * row.rhs


def _derived(groups, c, kind, column, cost, e):
    """Whether the dual column c of a row of this kind, with entries
    ``column`` and cost ``cost``, stays out of the rows: one that is not
    free and has exactly one U entry a_U, in the row of U_u, joins the
    group (a_S, cost, a_U) of ``groups`` as c: u, and reads
    a_S row[art] + cost row[z] + a_U row[u] in every row."""
    if kind == "face" or len(column) - (e in column) != 1:
        return False
    u = min(column)
    groups.setdefault((column.get(e, 0), cost, column[u]), {})[c] = u
    return True


def _new_tableau(s):
    """A new tableau of the dual of s, at the basis of its slacks and its
    artificial, with each stored column's cost in the objective row."""
    e = s.edge_count
    rows = [{j: 1} for j in range(e)] + [{_ART: 1, e: -1}, {_Z: 1}]
    faces, derived = [], {}
    for i, row in enumerate(s.rows):
        c = e + 1 + i
        column, cost = _dual_column(row, e)
        if _derived(derived, c, row.kind, column, cost, e):
            continue
        for j, a in column.items():
            rows[j][c] = a
        if cost:
            rows[-1][c] = cost
        if row.kind == "face":
            faces.append((len(row.terms), c))
    free = [c for _, c in sorted(faces)]
    return _Tableau(rows, [*range(e), _ART, _Z], free, derived, tuple(s))


def _add_columns(tab, s):
    """Add to the tableau, at its current basis, the dual column of each
    row of s past its source's.  The initial basis columns, slack j for
    the row of U_j and the artificial for the row of S, carry the inverse
    of the current basis, and z carries the objective's scale, so a
    column whose entries are a_j and whose cost is c reads
    sum(row[u_j] a_j) + row[z] c in each row; a column with one U entry
    is only added to its group."""
    first, e = len(tab.source[1]), s.edge_count
    columns = [(row.kind, *_dual_column(row, e)) for row in s.rows[first:]]
    for i, (kind, column, cost) in enumerate(columns, first):
        c = e + 1 + i
        if _derived(tab.derived, c, kind, column, cost, e):
            continue
        units = [(j if j < e else _ART, a) for j, a in column.items()]
        units.append((_Z, cost))
        for row in tab.rows:
            v = sum(row.get(u, 0) * a for u, a in units)
            if v:
                row[c] = v
    tab.source = tuple(s)
