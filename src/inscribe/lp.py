"""Exact rational linear programming for the margin feasibility system.

The margin system has one weight w_e per edge plus a shared margin t;
maximizing t decides strict feasibility of the open weighting conditions:
the open region is nonempty exactly when the closed system admits t > 0.
It is stated over the nonnegative variables u_e = w_e - t and s = t + 1,
so the bounds w_e >= t and t >= -1 hold by construction.  The rows are
built with ``int`` coefficients and right-hand sides, but for the upper
rows' shared 5/2; the solver and the checks take ``Fraction`` rows too.
The point each solve returns is re-checked against every row exactly,
on integer numerators over one denominator (:func:`point_problem`).

The solver is a two-phase simplex on sparse fraction-free integer rows:
each row is a map of its nonzero integer entries over one positive
denominator, so a pivot touches only nonzeros, the pivot loop builds no
``Fraction`` and there is no floating point anywhere; feasibility and
optimality are exact.  The pivot rule is
steepest reduced cost with a permanent switch to Bland's rule after a
run of degenerate pivots, which guarantees termination.  Phase 1
maximizes minus the sum of the artificial variables, which is never
positive, so it stops the moment its value reaches 0, its known optimum,
rather than pivoting on until no reduced cost is positive.  Every
artificial still basic then sits at 0, and phase 2 keeps it there: its
row blocks an entering column at ratio 0 whatever the sign of the
entry, so it leaves only in a degenerate pivot, and on a redundant row
it stays basic.

Every solve also yields exact LP multipliers y, one per row, read off
the final tableau as it returns (``MarginSolution.multipliers``).  Each
row's artificial column stays in the tableau through phase 2 without
being priced, so it never enters the basis; with the rows' slack
columns it carries the inverse of the final basis, whose reduced costs
are -y.  By LP duality, y proves the optimum from the rows alone:
signed >= 0 on '<=' rows, <= 0 on '>=' rows and free on '=' rows, with
every column of y^T A at least e_s and y^T b = margin + 1.  When phase 1
ends above 0, the same columns give a Farkas ray: y^T A >= 0 and
y^T b < 0.  :func:`multiplier_problems` checks either with a few sparse
sums and no solver.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalError
from .graph import PolyhedralGraph, trace_faces
from .separation import Circuit, _scaled

_F0 = Fraction(0)
#: Right-hand side of every upper row, u_e + 2s <= 5/2.
_UPPER_RHS = Fraction(5, 2)

#: Degenerate pivots in a row before the simplex switches to Bland's rule.
_STALL_THRESHOLD = 64


@dataclass(frozen=True)
class Row:
    """One linear constraint over the nonnegative variables (u, s).

    ``terms`` lists the nonzero ``(index, coeff)`` pairs; index e < E is
    u_e and index E is s.  Coefficients and right-hand side are rationals:
    ``int`` in the rows this module builds, where only the upper rows'
    5/2 is a ``Fraction``.  ``kind`` tags the row family: ``upper`` rows
    carry the edge id in ``ref``, ``face`` rows the face id and
    ``circuit`` rows the canonical edge id tuple.
    """

    terms: tuple[tuple[int, int | Fraction], ...]
    relation: str
    rhs: int | Fraction
    kind: str
    ref: object = None


@dataclass(frozen=True)
class ConstraintSystem:
    """Immutable snapshot of the margin LP's rows over u >= 0, s >= 0.

    Always contains, for every edge e, u_e + 2s <= 5/2 (w_e + t <= 1/2),
    and per face f, sum(u over f) + |f| s = |f| + 1 (unit face sum).
    Circuit rows are added on demand.  Variable ``margin_index`` is s.
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
    rows = [
        Row(((e, 1), (s_index, 2)), "<=", _UPPER_RHS, "upper", e)
        for e in range(g.edge_count)
    ]
    for f in trace_faces(g):
        size = len(f.edge_ids)
        terms = tuple((e, 1) for e in sorted(f.edge_ids)) + ((s_index, size),)
        rows.append(Row(terms, "=", size + 1, "face", f.id))
    return ConstraintSystem(g.edge_count, tuple(rows))


def add_circuit_constraint(s: ConstraintSystem, circuit: Circuit) -> ConstraintSystem:
    """New system with the row  sum(w over C) - t >= 1  appended, stated
    as  sum(u over C) + (|C| - 1) s >= |C|.  Raises ValueError if C is
    already a row, bounds a face or names an unknown edge."""
    key = circuit.edge_ids
    edges = {*key, s.margin_index}
    for row in s.rows:
        if row.kind == "circuit" and row.ref == key:
            raise ValueError(f"circuit {key} already present")
        if row.kind == "face" and {j for j, _ in row.terms} == edges:
            raise ValueError(f"circuit {key} bounds a face")
    if any(not 0 <= e < s.edge_count for e in key):
        raise ValueError("circuit references an unknown edge")
    terms = tuple((e, 1) for e in key) + ((s.margin_index, len(key) - 1),)
    row = Row(terms, ">=", len(key), "circuit", key)
    return ConstraintSystem(s.edge_count, s.rows + (row,))


@dataclass(frozen=True)
class MarginSolution:
    """Exact optimum of the margin LP.

    ``multipliers`` holds the LP multipliers of the solved system's
    rows, in row order.  For 'optimal' they prove that no point has a
    margin above ``margin``, for 'infeasible' that the rows have no
    point at all (a Farkas ray); :func:`multiplier_problems` checks
    either.
    """

    status: str  # 'optimal' | 'infeasible'
    margin: Fraction | None
    weights: tuple[Fraction, ...] | None
    multipliers: tuple[Fraction, ...]


def maximize_margin(s: ConstraintSystem) -> MarginSolution:
    """Exact maximum of t over the closed system.

    The optimum exists whenever the system is feasible: the upper rows
    and u, s >= 0 keep the region compact.  The returned point is
    re-verified by :func:`point_problem`, in integers, to be nonnegative
    and to satisfy every row exactly, and InternalError names what it
    fails; it is then mapped back to t = s - 1 and w_e = u_e + t.
    """
    status, x, multipliers = _solve_lp(s.variable_count, s.rows, s.margin_index)
    if status == "infeasible":
        return MarginSolution("infeasible", None, None, multipliers)
    problem = point_problem(s, x)
    if problem is not None:
        raise InternalError(f"solver returned {problem}")
    t = x[s.margin_index] - 1
    return MarginSolution(
        "optimal", t, tuple(u + t for u in x[: s.edge_count]), multipliers
    )


_RELATIONS = {"<=": operator.le, ">=": operator.ge, "=": operator.eq}


def point_problem(s: ConstraintSystem, x: Sequence[Fraction]) -> str | None:
    """What keeps x from being a point of s: ``'a negative variable'``,
    or ``'a point violating a <kind> row'`` for the first row it misses;
    None when x >= 0 satisfies every row exactly.

    x is scaled once to integer numerators X over their least common
    denominator D, and a row whose right-hand side is p/q holds when
    sum(c X_j) q compares to p D as its relation says, so the rows'
    integer coefficients build no ``Fraction``.
    """
    nums, d = _scaled(x)
    if any(v < 0 for v in nums):
        return "a negative variable"
    for row in s.rows:
        lhs = sum(c * nums[j] for j, c in row.terms)
        rhs = row.rhs
        if not _RELATIONS[row.relation](lhs * rhs.denominator, rhs.numerator * d):
            return f"a point violating a {row.kind} row"
    return None


_SIGN_RULES = {"<=": (1, ">= 0"), ">=": (-1, "<= 0"), "=": (0, "free")}


def multiplier_problems(
    s: ConstraintSystem, y: Sequence[Fraction], margin: Fraction | None
) -> list[str]:
    """What keeps y from proving, with no solver, that no point of s
    has a margin above ``margin`` (or, with ``margin`` None, that s has
    no point at all); an empty list when y proves it.

    y holds one multiplier per row of s, >= 0 on '<=' rows, <= 0 on
    '>=' rows and free on '=' rows, so every point x of the rows has
    y^T A x <= y^T b.  Over x >= 0, columns of y^T A at least e_s then give
    s <= y^T b, the margin bound y^T b - 1, which must equal ``margin``;
    columns of y^T A at least 0 with y^T b < 0 leave no point.  The cost is
    one pass over the rows' nonzero terms.
    """
    if len(y) != len(s.rows):
        return [f"{len(y)} multipliers for {len(s.rows)} rows"]
    problems = []
    used = [(i, row, yi) for i, (row, yi) in enumerate(zip(s.rows, y)) if yi]
    # integer sums in units of 1 / (d m): d clears the multipliers'
    # denominators and m the rows'
    d = math.lcm(*(yi.denominator for _, _, yi in used))
    m = math.lcm(
        *(c.denominator for _, row, _ in used for _, c in row.terms),
        *(row.rhs.denominator for _, row, _ in used),
    )
    column = [0] * s.variable_count
    value = 0
    for i, row, yi in used:
        sign, rule = _SIGN_RULES[row.relation]
        if yi.numerator * sign < 0:
            problems.append(f"multiplier {i} of {row.kind} row {row.ref} is {yi}, not {rule}")
        scaled = yi.numerator * (d // yi.denominator)
        for j, c in row.terms:
            column[j] += scaled * c.numerator * (m // c.denominator)
        value += scaled * row.rhs.numerator * (m // row.rhs.denominator)
    if margin is not None:
        column[s.margin_index] -= d * m
    short = [j for j, c in enumerate(column) if c < 0]
    if short:
        bound = "0" if margin is None else "e_s"
        problems.append(f"columns {short} of y^T A fall below {bound}")
    value = Fraction(value, d * m)
    if margin is None:
        if value >= 0:
            problems.append(f"ray gives y^T b = {value}, not below 0")
    elif value != margin + 1:
        problems.append(f"multipliers bound the margin by {value - 1}, not {margin}")
    return problems


class _Tableau:
    """Simplex tableau on fraction-free integer rows of nonzeros.

    Row i stands for ``rows[i] / den[i]``, a ``{column: int}`` map of its
    nonzero entries, with right-hand side ``rhs[i] / den[i]``; the
    objective row is ``reduced / obj_den``, a map of the nonzero reduced
    costs, with value ``value / obj_den``.  Every denominator is positive
    and every row is kept primitive (the gcd of its integers and its
    denominator is 1), so each row has one canonical form.  A basic
    column reads ``den[i]`` in its own row and is absent elsewhere.
    ``maximize`` runs to an optimum; every LP here is bounded, so a
    column that no row bounds raises InternalError.  ``bland`` records
    whether the last ``maximize`` fell back to Bland's rule.  Only
    columns below ``priced`` may enter the basis, and a basic column at
    or above it stays at 0.  While
    ``nonpositive`` is set the objective can never exceed 0 (phase 1),
    so ``maximize`` stops as soon as its value reaches 0.
    """

    def __init__(self, rows, rhs, den, basis, priced):
        self.rows = rows
        self.rhs = rhs
        self.den = den
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
        basic_cols = set(self.basis)
        reduced = {j: x for j, x in reduced.items() if x and j not in basic_cols}
        g = math.gcd(*reduced.values(), value, d)
        self.reduced = {j: x // g for j, x in reduced.items()}
        self.value = value // g
        self.obj_den = d // g

    def pivot(self, r, c):
        row = self.rows[r]
        # divide by the row's gcd, signed so that the pivot entry p > 0
        g = math.gcd(*row.values(), self.rhs[r]) * (1 if row[c] > 0 else -1)
        if g != 1:
            row = {j: x // g for j, x in row.items()}
        p = row[c]
        b = self.rhs[r] // g
        self.rows[r] = row
        self.rhs[r] = b
        self.den[r] = p
        for i, other in enumerate(self.rows):
            a = other.get(c)
            if a and i != r:
                self.rows[i], self.rhs[i], self.den[i] = _eliminate(
                    other, self.rhs[i], self.den[i], a, row, b, p
                )
        a = self.reduced.get(c)
        if a:
            # (reduced, -value) updates like a constraint row (row, rhs)
            self.reduced, value, self.obj_den = _eliminate(
                self.reduced, -self.value, self.obj_den, a, row, b, p
            )
            self.value = -value
        self.basis[r] = c

    def maximize(self):
        self.bland = False
        stall = 0
        priced = self.priced
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
            for i, row in enumerate(self.rows):
                a = row.get(enter, 0)
                if a < 0 and self.basis[i] >= priced:
                    a = -a
                if a > 0:
                    b = self.rhs[i]
                    if leave < 0:
                        better = True
                    else:
                        lhs, rhs = b * best_a, best_b * a
                        better = lhs < rhs or (
                            lhs == rhs and self.basis[i] < self.basis[leave]
                        )
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
    (prow, pb) / p, whose pivot entry is p:  (p row - a prow) / (d p),
    reduced to primitive form.  Rows are maps of their nonzeros."""
    new = {j: p * x for j, x in row.items()}
    for j, y in prow.items():
        x = new.get(j, 0) - a * y
        if x:
            new[j] = x
        else:
            del new[j]
    b = p * b - a * pb
    d *= p
    g = math.gcd(*new.values(), b, d)
    if g > 1:
        new = {j: x // g for j, x in new.items()}
        b //= g
        d //= g
    return new, b, d


def _solve_lp(n_vars, rows, target):
    """Maximize x[target] over x >= 0 subject to the rows.

    Each row is scaled to integers by the lcm of its denominators, which
    becomes the row's denominator; inequality rows get slacks, and each
    row without a positive slack gets an artificial variable.  Phase 1
    maximizes minus their sum and stops as soon as that reaches 0; below
    0 at its optimum the rows have no point.  Phase 2 then maximizes
    x[target], which the rows must bound, with the artificials unpriced:
    one left basic at 0 stays at 0, so tableau row i is row i for the
    whole solve.  Returns (status, x, y) with status 'optimal' or
    'infeasible'; x holds Fractions (None when infeasible), and y the LP
    multipliers of the rows (a Farkas ray when infeasible), read off the
    final reduced costs.
    """
    matrix: list[dict[int, int]] = []
    rhs: list[int] = []
    den: list[int] = []
    basis: list[int | None] = []
    # y_i = signs[i] * pi_i, pi the multipliers of the stored rows
    signs: list[int] = []
    next_slack = n_vars
    for row in rows:
        if row.relation not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {row.relation!r}")
        scale = math.lcm(row.rhs.denominator, *(c.denominator for _, c in row.terms))
        # a >= row is negated into a <= row; every inequality gets a slack
        sign = -1 if row.relation == ">=" else 1
        b = sign * row.rhs.numerator * (scale // row.rhs.denominator)
        vec = {
            j: sign * c.numerator * (scale // c.denominator) for j, c in row.terms if c
        }
        sc = None
        if row.relation != "=":
            sc = next_slack
            vec[sc] = scale
            next_slack += 1
        if b < 0:
            vec = {j: -x for j, x in vec.items()}
            b = -b
            sign = -sign
        matrix.append(vec)
        rhs.append(b)
        den.append(scale)
        signs.append(sign)
        # a slack that stayed positive is the row's first basic column
        basis.append(sc if sc is not None and vec[sc] > 0 else None)

    art_start = next_slack
    art_rows = [i for i, bc in enumerate(basis) if bc is None]
    tab = _Tableau(matrix, rhs, den, basis, art_start + len(art_rows))
    for k, i in enumerate(art_rows):
        matrix[i][art_start + k] = den[i]
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
            return "infeasible", None, _multipliers(tab, cost, unit_columns, signs)
        # artificial columns stay in the rows, never to enter again;
        # those still basic sit at 0 and stay there
        tab.priced = art_start
        tab.nonpositive = False

    cost = {target: 1}
    tab.set_objective(cost)
    tab.maximize()
    if any(v > 0 for j, v in tab.reduced.items() if j < art_start):
        raise InternalError("simplex stopped with a positive reduced cost")
    x = [_F0] * n_vars
    for i, bc in enumerate(tab.basis):
        if bc < n_vars:
            x[bc] = Fraction(tab.rhs[i], tab.den[i])
    return "optimal", x, _multipliers(tab, cost, unit_columns, signs)


def _multipliers(tab, cost, unit_columns, signs):
    """y read off the tableau's current reduced costs: pi_i = cost(c) -
    d(c) for row i's unit column c, and y_i = signs[i] pi_i undoes the
    row's sign flips (scaling left the unit columns unit)."""
    reduced, obj_den = tab.reduced, tab.obj_den
    y = []
    for c, sign in zip(unit_columns, signs):
        pi = cost.get(c, 0) * obj_den - reduced.get(c, 0)
        y.append(Fraction(sign * pi, obj_den) if pi else _F0)
    return tuple(y)
