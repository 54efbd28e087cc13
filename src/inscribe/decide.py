"""Decision procedures for inscribable and circumscribable type.

A graph is of circumscribable type exactly when its edges admit a
weighting with each weight strictly inside (0, 1/2), every face boundary
summing to 1, and every non-facial circuit summing to strictly more than
1.  Inscribable type is the same question asked of the planar dual.

The strict system is decided through its closed margin relaxation: we
maximize a shared slack t over the circuit rows generated so far.  That
optimum bounds the full (exponential) system's from above, so one of at
most 0 answers no.  Otherwise every weight is at least t > 0, and the
shortest-path oracle either finds a violated circuit row to add or shows
that the optimum is the full one, and the answer is yes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from .errors import IterationLimitError
from .graph import DualPair, PolyhedralGraph, dual, require_polyhedral, trace_faces
from .lp import MarginSolution, add_circuit_constraint, maximize_margin, new_system
from .separation import (
    Circuit,
    WeightVector,
    _scaled,
    all_nonfacial_circuits,
    check_conditions,
    min_nonfacial_circuit,
)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a type decision, reproducible from its cut list.

    For a yes answer, ``weights`` is a witness on the tested graph's
    edges and ``margin`` is its positive slack; a fast-path yes (LP
    status 'skipped') has neither.  For a no answer,
    ``margin`` is the optimum of the LP rebuilt from ``cuts`` (None if
    it is infeasible): at most 0, an upper bound on the full system's
    optimum that need not equal it.  ``graph_role`` says which graph
    carried the conditions: the input itself ('primal') or its planar
    dual ('dual'); in the dual case ``edge_bijection`` maps each input
    edge id to the tested dual edge id.
    """

    answer: str  # 'yes' | 'no'
    graph_role: str  # 'primal' | 'dual'
    margin: Fraction | None
    weights: WeightVector | None
    cuts: tuple[tuple[int, ...], ...]
    iterations: int
    lp_status: str  # 'optimal' | 'infeasible' | 'skipped' (fast path)
    edge_bijection: tuple[int, ...] | None = None

    @property
    def is_yes(self) -> bool:
        return self.answer == "yes"


@dataclass(frozen=True)
class DihedralAngles:
    """Ideal dihedral angles as exact rational multiples of pi.

    ``coefficients[e]`` is the angle coefficient for primal edge e,
    strictly between 0 and 1.
    """

    coefficients: tuple[Fraction, ...]

    def __getitem__(self, e: int) -> Fraction:
        return self.coefficients[e]

    def __len__(self) -> int:
        return len(self.coefficients)


def decide_circumscribable(
    g: PolyhedralGraph, *, max_iterations: int | None = None
) -> Certificate:
    """Decide circumscribable type of g by cut generation.

    Maximizes the margin and, while it is positive, asks the separation
    oracle for the cheapest non-facial circuit; one that weighs less than
    1 + t becomes a new row.  Each round adds a distinct circuit, so the
    loop terminates; the cap (default 10 E) signals a bug, not an input
    property.
    """
    require_polyhedral(g)
    faces = trace_faces(g)
    cap = max_iterations if max_iterations is not None else 10 * g.edge_count
    system = new_system(g)
    cuts: list[tuple[int, ...]] = []
    for iteration in range(1, cap + 1):
        solution = maximize_margin(system)
        if solution.status == "infeasible" or solution.margin <= 0:
            return Certificate(
                answer="no",
                graph_role="primal",
                margin=solution.margin,
                weights=None,
                cuts=tuple(cuts),
                iterations=iteration,
                lp_status=solution.status,
            )
        circuit, weight = min_nonfacial_circuit(g, solution.weights, faces)
        if weight - solution.margin < 1:
            system = add_circuit_constraint(system, circuit)
            cuts.append(circuit.edge_ids)
            continue
        return Certificate(
            answer="yes",
            graph_role="primal",
            margin=solution.margin,
            weights=solution.weights,
            cuts=tuple(cuts),
            iterations=iteration,
            lp_status="optimal",
        )
    raise IterationLimitError(f"cut loop exceeded {cap} iterations")


def decide_inscribable(
    g: PolyhedralGraph, *, max_iterations: int | None = None
) -> Certificate:
    """Decide inscribable type of g: its planar dual must be of
    circumscribable type.  The certificate's weights are indexed by dual
    edge ids; the bijection from primal edge ids is included."""
    pair = dual(g)
    cert = decide_circumscribable(pair.dual, max_iterations=max_iterations)
    return replace(cert, graph_role="dual", edge_bijection=pair.primal_to_dual)


def fast_path_four_connected(g: PolyhedralGraph) -> bool | None:
    """Shortcut: a 4-connected polyhedral graph is of both inscribable
    and circumscribable type.  Returns True in that case, None otherwise
    (no weight certificate either way)."""
    from .graph import is_k_vertex_connected

    require_polyhedral(g)
    if is_k_vertex_connected(g, 4):
        return True
    return None


def dihedral_angles(cert: Certificate, pair: DualPair) -> DihedralAngles:
    """Ideal dihedral angles of the inscribed realization.

    Requires a yes certificate produced on ``pair.dual`` for the
    inscribability of ``pair.primal``.  Each primal edge e gets the
    coefficient 1 - 2 w(e*) of pi, where w is the certificate weighting
    of the dual edge e*.  Raises ValueError if w misses a unit face sum
    or gives a coefficient outside (0, 1).
    """
    if not cert.is_yes:
        raise ValueError("dihedral angles require a yes certificate")
    if cert.graph_role != "dual" or cert.weights is None:
        raise ValueError("certificate was not produced on the planar dual")
    w = cert.weights
    if len(w) != pair.dual.edge_count:
        raise ValueError("certificate does not match the dual graph")
    for face in trace_faces(pair.dual):
        total = sum((w[e] for e in face.edge_ids), Fraction(0))
        if total != 1:
            raise ValueError(f"dual face {face.id} sums to {total}, not 1")
    coeffs = []
    for e in range(pair.primal.edge_count):
        c = 1 - 2 * w[pair.primal_to_dual[e]]
        if not 0 < c < 1:
            raise ValueError(f"angle coefficient {c} outside (0, 1)")
        coeffs.append(c)
    return DihedralAngles(tuple(coeffs))


def solve_full_enumeration(g: PolyhedralGraph) -> tuple[MarginSolution, int]:
    """Optimum of the margin LP with ALL non-facial circuits as rows.

    Enumerates every non-facial circuit up front, then refines an active
    set: solve, scan the complete list exactly for the most violated row,
    add it, repeat.  On return the solution has been checked against
    every enumerated row, so it is the exact optimum of the full system.
    Returns the solution and the number of LP solves.
    """
    require_polyhedral(g)
    circuits = all_nonfacial_circuits(g)
    system = new_system(g)
    solves = 0
    while True:
        solution = maximize_margin(system)
        solves += 1
        if solution.status == "infeasible":
            return solution, solves
        worst = _most_violated(circuits, solution)
        if worst is None:
            return solution, solves
        system = add_circuit_constraint(system, worst)


def _most_violated(
    circuits: tuple[Circuit, ...], solution: MarginSolution
) -> Circuit | None:
    """Most violated circuit row at the LP point, None if all hold.

    Scans with common-denominator integers so the comparison is exact.
    """
    nums, _ = _scaled((*solution.weights, 1 + solution.margin))
    threshold = nums.pop()
    worst = None
    worst_key = None
    for c in circuits:
        s = sum(nums[e] for e in c.edge_ids)
        if s < threshold:
            key = (s, c.edge_ids)
            if worst_key is None or key < worst_key:
                worst_key = key
                worst = c
    return worst


def verify_certificate(
    cert: Certificate, g: PolyhedralGraph
) -> tuple[bool, list[str]]:
    """Independently re-check a certificate against its input graph.

    Yes certificates: the recorded weighting must satisfy all three
    condition families exactly, and the minimum slack must reproduce a
    value at least the recorded margin.  A fast-path yes (LP status
    'skipped', no weights) holds exactly when the input is 4-connected.
    No certificates: rebuilding the LP from the recorded cut list must
    reproduce the recorded final state.  Returns (verdict, list of
    failure messages).
    """
    if cert.lp_status == "skipped":
        if fast_path_four_connected(g):
            return True, []
        return False, ["LP skipped but the graph is not 4-connected"]
    problems: list[str] = []
    if cert.graph_role == "dual":
        pair = dual(g)
        tested = pair.dual
        if cert.edge_bijection is not None and tuple(cert.edge_bijection) != pair.primal_to_dual:
            problems.append("recorded edge bijection does not match the dual")
    else:
        require_polyhedral(g)
        tested = g
    if cert.is_yes:
        if cert.weights is None or cert.margin is None:
            problems.append("yes certificate lacks weights or margin")
            return False, problems
        if len(cert.weights) != tested.edge_count:
            problems.append("weight count does not match the tested graph")
            return False, problems
        if cert.margin <= 0:
            problems.append(f"margin {cert.margin} is not positive")
        report = check_conditions(tested, cert.weights)
        if not report.ok:
            if report.bound_violations:
                problems.append(f"bound violations on edges {report.bound_violations}")
            for fid, total in report.face_violations:
                problems.append(f"face {fid} sums to {total}")
            if report.circuit_violation is not None:
                c, wt = report.circuit_violation
                problems.append(f"circuit {c.edge_ids} weighs {wt} <= 1")
        else:
            w = cert.weights
            slack = min(min(w), Fraction(1, 2) - max(w), report.min_circuit[1] - 1)
            if slack < cert.margin:
                problems.append(
                    f"recomputed slack {slack} below recorded margin {cert.margin}"
                )
    else:
        system = new_system(tested)
        for key in cert.cuts:
            try:
                system = add_circuit_constraint(
                    system, Circuit.from_edge_set(tested, key)
                )
            except ValueError as exc:
                problems.append(f"cut {list(key)} does not rebuild: {exc}")
                return False, problems
        solution = maximize_margin(system)
        if cert.lp_status == "infeasible":
            if solution.status != "infeasible":
                problems.append("recorded infeasible but the rebuilt LP is feasible")
        else:
            if solution.status != "optimal":
                problems.append("rebuilt LP is infeasible but certificate records an optimum")
            elif solution.margin != cert.margin:
                problems.append(
                    f"rebuilt optimum {solution.margin} differs from recorded {cert.margin}"
                )
            elif solution.margin > 0:
                problems.append("recorded no but the rebuilt optimum is positive")
    return not problems, problems


# --- certificate serialization -------------------------------------------

def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _frac_parse(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"rational {s!r} is not a 'p/q' string")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den) if den else 1)
    except ZeroDivisionError as exc:
        raise ValueError(f"rational {s!r} has a zero denominator") from exc


def _one_of(value, allowed: tuple[str, ...], field: str) -> str:
    if value not in allowed:
        raise ValueError(f"{field} {value!r} is not one of {', '.join(allowed)}")
    return value


def certificate_to_json(
    cert: Certificate, angles: DihedralAngles | None = None
) -> str:
    """Deterministic JSON serialization; rationals as 'p/q' strings."""
    doc: dict = {
        "answer": cert.answer,
        "graph_role": cert.graph_role,
        "margin": _frac_str(cert.margin) if cert.margin is not None else None,
        "weights": (
            {str(e): _frac_str(cert.weights[e]) for e in range(len(cert.weights))}
            if cert.weights is not None
            else None
        ),
        "angles": (
            {str(e): _frac_str(angles[e]) for e in range(len(angles))}
            if angles is not None
            else None
        ),
        "cuts": [list(c) for c in cert.cuts],
        "iterations": cert.iterations,
        "lp_status": cert.lp_status,
        "edge_bijection": (
            {str(e): d for e, d in enumerate(cert.edge_bijection)}
            if cert.edge_bijection is not None
            else None
        ),
    }
    return json.dumps(doc, indent=2) + "\n"


def certificate_from_json(text: str) -> Certificate:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("certificate is not a JSON object")
    weights = None
    if doc.get("weights") is not None:
        raw = doc["weights"]
        weights = WeightVector(
            tuple(_frac_parse(raw[str(e)]) for e in range(len(raw)))
        )
    bijection = None
    if doc.get("edge_bijection") is not None:
        raw = doc["edge_bijection"]
        bijection = tuple(int(raw[str(e)]) for e in range(len(raw)))
    answer = _one_of(doc["answer"], ("yes", "no"), "answer")
    margin = _frac_parse(doc["margin"]) if doc.get("margin") is not None else None
    # only a fast-path yes, which carries no weights or margin, skips the LP
    statuses = ("optimal", "infeasible")
    if answer == "yes" and weights is None and margin is None:
        statuses += ("skipped",)
    return Certificate(
        answer=answer,
        graph_role=_one_of(doc["graph_role"], ("primal", "dual"), "graph_role"),
        margin=margin,
        weights=weights,
        cuts=tuple(tuple(int(e) for e in c) for c in doc.get("cuts", [])),
        iterations=int(doc["iterations"]),
        lp_status=_one_of(doc.get("lp_status", "optimal"), statuses, "lp_status"),
        edge_bijection=bijection,
    )
