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
that the optimum is the full one, and the answer is yes.  A no carries
the LP multipliers that prove its bound, so it is checked, like a yes,
without solving an LP.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from .errors import InternalError
from .graph import (
    DualPair,
    PolyhedralGraph,
    dual,
    require_polyhedral,
    trace_faces,
)
from .lp import (
    add_circuit_constraint,
    maximize_margin,
    multiplier_problems,
    new_system,
)
from .separation import (
    _scaled,
    canonical_circuit,
    min_nonfacial_circuit,
    weighting_problems,
)


class Certificate(NamedTuple):
    """Outcome of a type decision, reproducible from its cut list.

    For a yes answer, ``weights`` is a witness on the tested graph's
    edges and ``margin`` is its positive slack; ``multipliers`` is None.
    For a no answer, ``margin`` is at most 0, or None exactly when the
    LP rebuilt from ``cuts`` is infeasible; it is an upper bound on the
    full system's optimum that need not equal it, and ``multipliers``
    proves it: one exact LP multiplier per row of that LP, in the order
    the rows are built (E ``upper`` rows by edge id, the ``face`` rows
    by face id, one ``circuit`` row per cut in order), >= 0 on upper
    rows, free on face rows and <= 0 on circuit rows, a Farkas ray when
    the margin is None.  ``decide`` records the exact LP optimum as the
    margin.  ``graph_role`` says which graph carried the conditions: the
    input itself ('primal') or its planar dual ('dual'); in the dual
    case ``edge_bijection`` maps each input edge id to the tested dual
    edge id.
    """

    answer: str  # 'yes' | 'no'
    graph_role: str  # 'primal' | 'dual'
    margin: Fraction | None
    weights: tuple[Fraction, ...] | None
    cuts: tuple[tuple[int, ...], ...]
    edge_bijection: tuple[int, ...] | None = None
    multipliers: tuple[Fraction, ...] | None = None

    @property
    def is_yes(self) -> bool:
        return self.answer == "yes"

    @property
    def iterations(self) -> int:
        """LP solves of the cut loop: one per cut, and the last."""
        return len(self.cuts) + 1


def decide_circumscribable(g: PolyhedralGraph) -> Certificate:
    """Decide circumscribable type of g by cut generation.

    Maximizes the margin and, while it is positive, asks the separation
    oracle for the cheapest non-facial circuit; one that weighs less than
    1 + t becomes a new row.  The oracle searches only up to 1 + t,
    since a heavier circuit is never a row, and a search that finds
    nothing there answers yes.  The loop ends by itself: maximize_margin
    re-checks every row exactly at the point it returns, so a circuit
    violated there is not yet a row, and add_circuit_constraint rejects
    repeats and faces besides.  Each round thus adds a distinct
    non-facial circuit, of which there are finitely many, so the loop
    solves the LP ``len(cuts) + 1`` times.  A no
    carries the final LP's multipliers, checked here as ``verify``
    checks them; a failed check raises InternalError.
    """
    require_polyhedral(g)
    system = new_system(g)
    cuts: list[tuple[int, ...]] = []
    while True:
        solution = maximize_margin(system)
        if solution.margin is None or solution.margin <= 0:
            y = solution.multipliers
            problems = multiplier_problems(system, y, solution.margin)
            if problems:
                raise InternalError("LP multipliers fail: " + "; ".join(problems))
            return Certificate(
                answer="no",
                graph_role="primal",
                margin=solution.margin,
                weights=None,
                cuts=tuple(cuts),
                multipliers=y,
            )
        found = min_nonfacial_circuit(g, solution.weights, 1 + solution.margin)
        if found is not None and found[1] - solution.margin < 1:
            system = add_circuit_constraint(system, found[0])
            cuts.append(found[0])
            continue
        return Certificate(
            answer="yes",
            graph_role="primal",
            margin=solution.margin,
            weights=solution.weights,
            cuts=tuple(cuts),
        )


def decide_inscribable(g: PolyhedralGraph) -> Certificate:
    """Decide inscribable type of g: its planar dual must be of
    circumscribable type.  The certificate's weights are indexed by dual
    edge ids; the bijection from primal edge ids is included."""
    pair = dual(g)
    cert = decide_circumscribable(pair.dual)
    return cert._replace(graph_role="dual", edge_bijection=pair.primal_to_dual)


def dihedral_angles(cert: Certificate, pair: DualPair) -> tuple[Fraction, ...]:
    """Ideal dihedral angles of the inscribed realization, as exact
    rational multiples of pi.

    Requires a yes certificate produced on ``pair.dual`` for the
    inscribability of g, where ``pair`` is ``dual(g)``.  Entry e is the
    coefficient of pi for primal edge e, strictly in (0, 1): 1 - 2 w(e*),
    where w is the certificate weighting of the dual edge
    e* = ``pair.primal_to_dual[e]``.  Raises ValueError if w misses a
    unit face sum or gives a coefficient outside (0, 1).
    """
    if not cert.is_yes:
        raise ValueError("dihedral angles require a yes certificate")
    if cert.graph_role != "dual" or cert.weights is None:
        raise ValueError("certificate was not produced on the planar dual")
    if len(cert.weights) != pair.dual.edge_count:
        raise ValueError("certificate does not match the dual graph")
    # the weights as numerators over one denominator d: a unit face sum
    # is d, and 1 - 2 w(e*) is (d - 2 n) / d
    nums, d = _scaled(cert.weights)
    for face in trace_faces(pair.dual):
        total = sum(nums[e] for e in face.edge_ids)
        if total != d:
            raise ValueError(f"dual face {face.id} sums to {Fraction(total, d)}, not 1")
    coeffs = []
    for e_star in pair.primal_to_dual:
        c = d - 2 * nums[e_star]
        if not 0 < c < d:
            raise ValueError(f"angle coefficient {Fraction(c, d)} outside (0, 1)")
        coeffs.append(Fraction(c, d))
    return tuple(coeffs)


def verify_certificate(
    cert: Certificate, g: PolyhedralGraph
) -> tuple[bool, list[str]]:
    """Independently re-check a certificate against its input graph.

    Every certificate: each recorded cut must be one simple cycle
    (:func:`~inscribe.separation.canonical_circuit`), add to the LP in
    turn and be recorded in canonical form,
    and ``edge_bijection`` must be the dual's for the 'dual' role and
    absent for the 'primal' one.  Yes certificates: the margin must be
    positive, there are no multipliers, and the weighting must prove the
    margin (:func:`~inscribe.separation.weighting_problems`): all three
    condition families hold exactly, and the least slack equals the
    recorded margin, the LP optimum that a genuine yes reaches.  No
    certificates: they carry no weights, the margin is at most 0 or null,
    and the multipliers must prove it on the LP rebuilt from the cut list
    (:func:`~inscribe.lp.multiplier_problems`): signed by row kind, and,
    over the LP's integer rows in U = 2(w - t) and S = 2(t + 1), with
    y^T A >= e_s and y^T b = 2(margin + 1) for a margin, and, for a null
    margin, y^T A >= 0 and y^T b < 0, a ray that shows the LP
    infeasible.  Each answer's proof is checked by one
    call, and neither solves an LP.  Returns (verdict, list of failure
    messages).
    """
    problems: list[str] = []
    if cert.graph_role == "dual":
        pair = dual(g)
        tested = pair.dual
        if cert.edge_bijection != pair.primal_to_dual:
            problems.append("recorded edge bijection does not match the dual")
    else:
        require_polyhedral(g)
        tested = g
        if cert.edge_bijection is not None:
            problems.append("primal certificate records an edge bijection")
    # a yes solves no LP, so one without cuts needs no system
    system = new_system(tested) if cert.cuts or not cert.is_yes else None
    for key in cert.cuts:
        try:
            circuit = canonical_circuit(tested, key)
            system = add_circuit_constraint(system, circuit)
            if circuit != key:
                raise ValueError(f"its canonical form is {list(circuit)}")
        except ValueError as exc:
            problems.append(f"cut {list(key)} does not rebuild: {exc}")
            return False, problems
    if cert.is_yes:
        if cert.weights is None or cert.margin is None:
            problems.append("yes certificate lacks weights or margin")
            return False, problems
        if len(cert.weights) != tested.edge_count:
            problems.append("weight count does not match the tested graph")
            return False, problems
        if cert.margin <= 0:
            problems.append(f"margin {cert.margin} is not positive")
        if cert.multipliers is not None:
            problems.append("yes certificate carries multipliers")
        problems.extend(weighting_problems(tested, cert.weights, cert.margin))
    else:
        if cert.weights is not None:
            problems.append("no certificate carries weights")
        if cert.margin is not None and cert.margin > 0:
            problems.append(f"no certificate records positive margin {cert.margin}")
        elif cert.multipliers is None:
            problems.append("no certificate lacks multipliers")
        else:
            problems.extend(multiplier_problems(system, cert.multipliers, cert.margin))
    return not problems, problems


# --- certificate serialization -------------------------------------------

def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _frac_parse(s: str) -> Fraction:
    """The rational that :func:`_frac_str` writes as s, and no other form."""
    if not isinstance(s, str):
        raise ValueError(f"rational {s!r} is not a 'p/q' string")
    num, _, den = s.partition("/")
    try:
        value = Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise ValueError(f"rational {s!r} has a zero denominator") from exc
    except ValueError:
        value = None
    if value is None or _frac_str(value) != s:
        raise ValueError(f"rational {s!r} is not 'p/q' in lowest terms with q > 0")
    return value


def _json_int(value, field: str) -> int:
    # bool is a subclass of int, and a float would be truncated by int()
    if type(value) is not int:
        raise ValueError(f"{field} {value!r} is not a JSON integer")
    return value


def _index_json(values, write) -> dict | None:
    """A per-edge vector as the JSON object keyed "0" to "n-1" that
    :func:`_index_map` reads back; None stays None."""
    return None if values is None else {str(e): write(x) for e, x in enumerate(values)}


def _index_map(raw, field: str, parse) -> tuple | None:
    """The parsed values of a JSON object keyed "0" to "n-1", in key
    order; null reads as None."""
    if raw is None:
        return None
    if not isinstance(raw, dict) or raw.keys() != {str(e) for e in range(len(raw))}:
        raise ValueError(f'{field} is not a JSON object keyed "0" to "n-1"')
    return tuple(parse(raw[str(e)]) for e in range(len(raw)))


def _one_of(value, allowed: tuple[str, ...], field: str) -> str:
    if value not in allowed:
        raise ValueError(f"{field} {value!r} is not one of {', '.join(allowed)}")
    return value


def certificate_to_json(
    cert: Certificate, angles: tuple[Fraction, ...] | None = None
) -> str:
    """Deterministic JSON serialization; rationals as 'p/q' strings."""
    doc: dict = {
        "answer": cert.answer,
        "graph_role": cert.graph_role,
        "margin": _frac_str(cert.margin) if cert.margin is not None else None,
        "weights": _index_json(cert.weights, _frac_str),
        "angles": _index_json(angles, _frac_str),
        "cuts": [list(c) for c in cert.cuts],
        "multipliers": (
            [_frac_str(y) for y in cert.multipliers]
            if cert.multipliers is not None
            else None
        ),
        "edge_bijection": _index_json(cert.edge_bijection, int),
    }
    return json.dumps(doc, indent=2) + "\n"


_CERTIFICATE_KEYS = frozenset((
    "answer", "graph_role", "margin", "weights", "angles", "cuts",
    "multipliers", "edge_bijection",
))
# keys of certificate format 1, each a restatement of another key
_FORMAT_1_KEYS = frozenset(("iterations", "lp_status"))


def certificate_from_json(text: str) -> Certificate:
    """Parse a format-2 certificate; it must carry exactly the keys that
    :func:`certificate_to_json` writes.  A format-1 certificate, which
    also records ``iterations`` and ``lp_status``, is rejected by name."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("certificate is not a JSON object")
    old = sorted(doc.keys() & _FORMAT_1_KEYS)
    if old:
        raise ValueError(
            f"certificate format 1 is not read (it records {', '.join(old)}); "
            "decide again to write format 2"
        )
    missing = sorted(_CERTIFICATE_KEYS - doc.keys())
    unknown = sorted(doc.keys() - _CERTIFICATE_KEYS)
    if missing or unknown:
        raise ValueError(f"certificate keys missing {missing}, unknown {unknown}")
    cuts = doc["cuts"]
    if not isinstance(cuts, list) or not all(isinstance(c, list) for c in cuts):
        raise ValueError("cuts is not a JSON list of lists")
    multipliers = doc["multipliers"]
    if multipliers is not None:
        if not isinstance(multipliers, list):
            raise ValueError("multipliers is not a JSON list")
        multipliers = tuple(_frac_parse(y) for y in multipliers)
    weights = _index_map(doc["weights"], "weights", _frac_parse)
    bijection = _index_map(
        doc["edge_bijection"], "edge_bijection", lambda d: _json_int(d, "edge_bijection value")
    )
    cert = Certificate(
        answer=_one_of(doc["answer"], ("yes", "no"), "answer"),
        graph_role=_one_of(doc["graph_role"], ("primal", "dual"), "graph_role"),
        margin=_frac_parse(doc["margin"]) if doc["margin"] is not None else None,
        weights=weights,
        cuts=tuple(tuple(_json_int(e, "cut edge") for e in c) for c in cuts),
        edge_bijection=bijection,
        multipliers=multipliers,
    )
    # angles are derived data: 1 - 2 w(e*) for each primal edge e; each
    # is parsed only once its edge's bijection value is known to be good
    angles = _index_map(doc["angles"], "angles", lambda a: a)
    if angles is not None:
        if not (cert.is_yes and cert.graph_role == "dual" and weights and bijection):
            raise ValueError(
                "angles belong only to a dual-role yes with weights and an edge bijection"
            )
        if len(angles) != len(bijection):
            raise ValueError(f"{len(angles)} angles for {len(bijection)} edges")
        for e, d in enumerate(bijection):
            if not 0 <= d < len(weights):
                raise ValueError(f"edge_bijection value {d} names no weighted edge")
            if _frac_parse(angles[e]) != 1 - 2 * weights[d]:
                raise ValueError(f"angle of edge {e} is not 1 - 2 w({d})")
    return cert
