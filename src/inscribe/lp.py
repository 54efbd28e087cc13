"""Exact rational linear programming for the margin feasibility system.

The margin system has one weight w_e per edge plus a shared margin t;
maximizing t decides strict feasibility of the open weighting conditions:
the open region is nonempty exactly when the closed system admits t > 0.
It is stated over the nonnegative variables u_e = w_e - t and s = t + 1,
so the bounds w_e >= t and t >= -1 hold by construction.

The solver is a dense two-phase simplex on fraction-free integer rows:
each row is a list of integers over one positive denominator, so the
pivot loop builds no ``Fraction`` and there is no floating point
anywhere; feasibility and optimality are exact.  The pivot rule is
steepest reduced cost with a permanent switch to Bland's rule after a
run of degenerate pivots, which guarantees termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DuplicateCircuitError, InternalError
from .graph import PolyhedralGraph, trace_faces
from .separation import Circuit, WeightVector

#: Exact rational scalar used throughout: arbitrary-precision numerator
#: and denominator, kept in canonical reduced form by the type itself.
Rational = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)
_F2 = Fraction(2)

#: Degenerate pivots in a row before the simplex switches to Bland's rule.
_STALL_THRESHOLD = 64
#: Pivots per phase after which the simplex is taken to be broken.
_PIVOT_CAP = 1_000_000


@dataclass(frozen=True)
class Row:
    """One linear constraint over the nonnegative variables (u, s).

    ``terms`` lists the nonzero ``(index, coeff)`` pairs; index e < E is
    u_e and index E is s.  ``kind`` tags the row family: ``upper`` rows
    carry the edge id in ``ref``, ``face`` rows the face id and
    ``circuit`` rows the canonical edge id tuple.
    """

    terms: tuple[tuple[int, Fraction], ...]
    relation: str
    rhs: Fraction
    kind: str
    ref: object = None

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        return sum((c * x[j] for j, c in self.terms), _F0)

    def satisfied_by(self, x: Sequence[Fraction]) -> bool:
        lhs = self.evaluate(x)
        if self.relation == "<=":
            return lhs <= self.rhs
        if self.relation == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass(frozen=True)
class ConstraintSystem:
    """Immutable snapshot of the margin LP's rows over u >= 0, s >= 0.

    Always contains, for every edge e, u_e + 2s <= 5/2 (w_e + t <= 1/2),
    and per face f, sum(u over f) + |f| s = |f| + 1 (unit face sum).
    Circuit rows are added on demand.  Variable ``margin_index`` is s.
    """

    edge_count: int
    rows: tuple[Row, ...]
    circuit_keys: frozenset[tuple[int, ...]]
    face_edge_sets: frozenset[frozenset[int]]

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
        Row(((e, _F1), (s_index, _F2)), "<=", Fraction(5, 2), "upper", e)
        for e in range(g.edge_count)
    ]
    faces = trace_faces(g)
    for f in faces:
        size = len(f.edge_ids)
        terms = tuple((e, _F1) for e in sorted(f.edge_ids)) + ((s_index, Fraction(size)),)
        rows.append(Row(terms, "=", Fraction(size + 1), "face", f.id))
    return ConstraintSystem(
        edge_count=g.edge_count,
        rows=tuple(rows),
        circuit_keys=frozenset(),
        face_edge_sets=frozenset(f.edge_ids for f in faces),
    )


def add_circuit_constraint(s: ConstraintSystem, circuit: Circuit) -> ConstraintSystem:
    """New system with the row  sum(w over C) - t >= 1  appended, stated
    as  sum(u over C) + (|C| - 1) s >= |C|."""
    key = circuit.edge_ids
    if key in s.circuit_keys:
        raise DuplicateCircuitError(f"circuit {key} already present")
    if frozenset(key) in s.face_edge_sets:
        raise ValueError(f"circuit {key} bounds a face")
    if any(not 0 <= e < s.edge_count for e in key):
        raise ValueError("circuit references an unknown edge")
    terms = tuple((e, _F1) for e in key) + ((s.margin_index, Fraction(len(key) - 1)),)
    row = Row(terms, ">=", Fraction(len(key)), "circuit", key)
    return ConstraintSystem(
        edge_count=s.edge_count,
        rows=s.rows + (row,),
        circuit_keys=s.circuit_keys | {key},
        face_edge_sets=s.face_edge_sets,
    )


@dataclass(frozen=True)
class MarginSolution:
    """Exact optimum of the margin LP."""

    status: str  # 'optimal' | 'infeasible'
    margin: Fraction | None
    weights: WeightVector | None


def maximize_margin(s: ConstraintSystem) -> MarginSolution:
    """Exact maximum of t over the closed system.

    The optimum exists whenever the system is feasible: the upper rows
    and u, s >= 0 keep the region compact.  The returned point is
    re-verified to be nonnegative and to satisfy every row exactly, then
    mapped back to t = s - 1 and w_e = u_e + t.
    """
    status, x = _solve_lp(s.variable_count, s.rows, s.margin_index)
    if status == "infeasible":
        return MarginSolution("infeasible", None, None)
    if status != "optimal":
        raise InternalError(f"margin LP cannot be {status}: bounds are built in")
    if any(v < 0 for v in x):
        raise InternalError("solver returned a negative variable")
    for row in s.rows:
        if not row.satisfied_by(x):
            raise InternalError(f"solver returned a point violating a {row.kind} row")
    t = x[s.margin_index] - 1
    return MarginSolution(
        "optimal", t, WeightVector(tuple(u + t for u in x[: s.edge_count]))
    )


class _Tableau:
    """Dense simplex tableau on fraction-free integer rows.

    Row i stands for ``matrix[i] / den[i]`` with right-hand side
    ``rhs[i] / den[i]``; the objective row is ``reduced / obj_den`` with
    value ``value / obj_den``.  Every denominator is positive and every
    row is kept primitive (the gcd of its integers and its denominator
    is 1), so each row has one canonical form.  A basic column reads
    ``den[i]`` in its own row and 0 elsewhere.  ``bland`` records whether
    the last ``maximize`` fell back to Bland's rule.
    """

    def __init__(self, matrix, rhs, den, basis, ncols):
        self.matrix = matrix
        self.rhs = rhs
        self.den = den
        self.basis = basis
        self.ncols = ncols
        self.reduced = [0] * ncols
        self.value = 0
        self.obj_den = 1
        self.bland = False

    def set_objective(self, cost):
        """Reduced costs and value of the integer cost vector ``cost``."""
        basic = [(i, cost[bc]) for i, bc in enumerate(self.basis) if cost[bc]]
        d = math.lcm(*(self.den[i] for i, _ in basic))
        reduced = [c * d for c in cost]
        value = 0
        for i, cb in basic:
            f = cb * (d // self.den[i])
            row = self.matrix[i]
            for j in range(self.ncols):
                if row[j]:
                    reduced[j] -= f * row[j]
            value += f * self.rhs[i]
        for bc in self.basis:
            reduced[bc] = 0
        g = math.gcd(*reduced, value, d)
        self.reduced = [x // g for x in reduced]
        self.value = value // g
        self.obj_den = d // g

    def pivot(self, r, c):
        row = self.matrix[r]
        p = row[c]
        b = self.rhs[r]
        if p < 0:
            row = [-x for x in row]
            p, b = -p, -b
        g = math.gcd(*row, b)
        if g > 1:
            row = [x // g for x in row]
            p, b = p // g, b // g
        self.matrix[r] = row
        self.rhs[r] = b
        self.den[r] = p
        for i, other in enumerate(self.matrix):
            a = other[c]
            if a and i != r:
                self.matrix[i], self.rhs[i], self.den[i] = _eliminate(
                    other, self.rhs[i], self.den[i], a, row, b, p
                )
        a = self.reduced[c]
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
        pivots = 0
        while True:
            enter = -1
            if self.bland:
                for j in range(self.ncols):
                    if self.reduced[j] > 0:
                        enter = j
                        break
            else:
                best = 0
                for j in range(self.ncols):
                    v = self.reduced[j]
                    if v > best:
                        best = v
                        enter = j
            if enter < 0:
                return "optimal"
            # minimum ratio rhs[i] / matrix[i][enter] over positive entries,
            # compared by cross-multiplying (den[i] cancels)
            leave = -1
            best_b = best_a = 0
            for i in range(len(self.matrix)):
                a = self.matrix[i][enter]
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
                return "unbounded"
            degenerate = best_b == 0
            self.pivot(leave, enter)
            pivots += 1
            if degenerate:
                stall += 1
                if stall > _STALL_THRESHOLD:
                    self.bland = True
            else:
                stall = 0
            if pivots > _PIVOT_CAP:
                raise InternalError("simplex exceeded its pivot cap")


def _eliminate(row, b, d, a, prow, pb, p):
    """Clear entry a of the row (row, b) / d with the pivot row
    (prow, pb) / p, whose pivot entry is p:  (p row - a prow) / (d p),
    reduced to primitive form."""
    new = [p * x - a * y for x, y in zip(row, prow)]
    b = p * b - a * pb
    d *= p
    g = math.gcd(*new, b, d)
    if g > 1:
        new = [x // g for x in new]
        b //= g
        d //= g
    return new, b, d


def _solve_lp(n_vars, rows, target):
    """Maximize x[target] over x >= 0 subject to the rows.

    Each row is scaled to integers by the lcm of its denominators, which
    becomes the row's denominator; inequality rows get slacks and phase 1
    drives artificial variables out.  Returns (status, x) with status
    'optimal', 'infeasible' or 'unbounded'; x holds Fractions.
    """
    ineq_count = sum(1 for r in rows if r.relation != "=")
    ncols = n_vars + ineq_count
    matrix: list[list[int]] = []
    rhs: list[int] = []
    den: list[int] = []
    slack_col: list[int | None] = []
    next_slack = n_vars
    for row in rows:
        if row.relation not in ("<=", ">=", "="):
            raise ValueError(f"unknown relation {row.relation!r}")
        scale = math.lcm(row.rhs.denominator, *(c.denominator for _, c in row.terms))
        # a >= row is negated into a <= row; every inequality gets a slack
        sign = -1 if row.relation == ">=" else 1
        b = sign * row.rhs.numerator * (scale // row.rhs.denominator)
        vec = [0] * ncols
        for j, c in row.terms:
            vec[j] = sign * c.numerator * (scale // c.denominator)
        sc = None
        if row.relation != "=":
            sc = next_slack
            vec[sc] = scale
            next_slack += 1
        if b < 0:
            vec = [-x for x in vec]
            b = -b
        matrix.append(vec)
        rhs.append(b)
        den.append(scale)
        slack_col.append(sc)

    m = len(matrix)
    basis: list[int | None] = [None] * m
    for i in range(m):
        sc = slack_col[i]
        if sc is not None and matrix[i][sc] > 0:
            basis[i] = sc
    art_rows = [i for i in range(m) if basis[i] is None]
    art_start = ncols
    if art_rows:
        n_art = len(art_rows)
        for i in range(m):
            matrix[i] = matrix[i] + [0] * n_art
        for k, i in enumerate(art_rows):
            matrix[i][art_start + k] = den[i]
            basis[i] = art_start + k
        tab = _Tableau(matrix, rhs, den, basis, art_start + n_art)
        phase1 = [0] * (art_start + n_art)
        for k in range(n_art):
            phase1[art_start + k] = -1
        tab.set_objective(phase1)
        if tab.maximize() != "optimal":
            raise InternalError("phase-1 objective is bounded by construction")
        if tab.value != 0:
            return "infeasible", None
        for i in range(len(tab.matrix) - 1, -1, -1):
            if tab.basis[i] >= art_start:
                row = tab.matrix[i]
                piv = next((j for j in range(art_start) if row[j]), None)
                if piv is None:
                    del tab.matrix[i]
                    del tab.rhs[i]
                    del tab.den[i]
                    del tab.basis[i]
                else:
                    tab.pivot(i, piv)
        tab.matrix = [r[:art_start] for r in tab.matrix]
        tab.ncols = art_start
    else:
        tab = _Tableau(matrix, rhs, den, basis, ncols)

    cost = [0] * tab.ncols
    cost[target] = 1
    tab.set_objective(cost)
    status = tab.maximize()
    if status == "unbounded":
        return "unbounded", None
    if any(v > 0 for v in tab.reduced):
        raise InternalError("simplex stopped with a positive reduced cost")
    x = [_F0] * n_vars
    for i, bc in enumerate(tab.basis):
        if bc < n_vars:
            x[bc] = Fraction(tab.rhs[i], tab.den[i])
    return "optimal", x
