"""Reference solvers that the tests check the decision procedures against."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from inscribe import (
    MarginSolution,
    PolyhedralGraph,
    add_circuit_constraint,
    brute_force_min_nonfacial,
    maximize_margin,
    new_system,
    require_polyhedral,
)
from inscribe.graph import edge_faces, trace_faces
from inscribe.separation import _numerators, _shortest_path


def solve_full_enumeration(g: PolyhedralGraph) -> tuple[MarginSolution, int]:
    """Optimum of the margin LP with ALL non-facial circuits as rows.

    Refines an active set against the exhaustive reference oracle:
    solve, take the least circuit over every non-facial circuit, add it
    while it is violated, repeat.  The least circuit is violated exactly
    when some circuit is, so on return the solution satisfies every
    row, and it is the exact optimum of the full system.  Returns the
    solution and the number of LP solves.
    """
    require_polyhedral(g)
    system = new_system(g)
    solves = 0
    while True:
        solution = maximize_margin(system)
        solves += 1
        if solution.status == "infeasible":
            return solution, solves
        circuit, weight = brute_force_min_nonfacial(g, solution.weights)
        if weight - solution.margin >= 1:
            return solution, solves
        system = add_circuit_constraint(system, circuit)


def reference_eliminate(row, bc, a, prow, p):
    """The simplex's row update written as a copy: clear entry a of
    ``row``, whose basic column bc reads its denominator d, with the
    pivot row ``prow``, whose pivot entry is p and which lacks bc:
    (p row - a prow) / (d p) in a new map, reduced to primitive form by
    the gcd of every entry.  A row's right-hand side is one more of its
    columns.  It is the fully reduced specification: the simplex's
    update may leave a common factor in a row whose denominator stays
    below 2^30, but must equal this as rationals.  The input maps are
    left as they are."""
    new = {j: p * x for j, x in row.items()}
    for j, y in prow.items():
        x = new.get(j, 0) - a * y
        if x:
            new[j] = x
        else:
            del new[j]
    g = math.gcd(*new.values())
    return {j: x // g for j, x in new.items()}


def reference_least_circuit(g, w, limit=None):
    """The separation oracle as it stood before its pre-check: the body
    of ``min_nonfacial_circuit`` with every banned search run, one for
    each choice of an avoided edge per face whose least edge is e, and
    no search to skip them.  The oracle must return what this returns."""
    nums, denom = _numerators(g, w, nonnegative=True)
    # no simple circuit weighs more than all the edges together
    cap = sum(nums) if limit is None else math.floor(limit * denom)
    faces = trace_faces(g)
    incident = edge_faces(g)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    best: tuple[int, tuple[int, ...]] | None = None
    for e in reversed(range(g.edge_count)):
        u, v = g.edges[e]
        # every circuit whose least edge is e weighs at least w(e)
        if nums[e] <= cap:
            # a face with an edge below e is never the path; a face whose
            # other edges all lie above e loses one of them in each search
            avoid = [
                faces[i].edge_ids - {e}
                for i in incident[e]
                if min(faces[i].edge_ids) == e
            ]
            for banned in itertools.product(*avoid):
                for source, target in ((u, v), (v, u)):
                    sp = _shortest_path(adj, nums, source, target, banned, cap - nums[e])
                    if sp is None:
                        # the graph is undirected: the reverse fails too
                        break
                    dist, path = sp
                    key = (dist + nums[e], (e,) + path)
                    if best is None or key < best:
                        best = key
                        cap = key[0]
        adj[u].append((e, v))
        adj[v].append((e, u))
    if best is None:
        if limit is not None:
            return None
        raise ValueError("graph has no non-facial circuit")
    weight, ids = best
    return ids, Fraction(weight, denom)
