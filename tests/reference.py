"""Reference solvers that the tests check the decision procedures against."""

from __future__ import annotations

from inscribe import (
    MarginSolution,
    PolyhedralGraph,
    add_circuit_constraint,
    brute_force_min_nonfacial,
    maximize_margin,
    new_system,
    require_polyhedral,
)


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
