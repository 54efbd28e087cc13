"""Minimum-weight non-facial circuits.

The main oracle, :func:`min_nonfacial_circuit`, finds the cheapest simple
circuit that is not a face boundary.  It relies on a structural fact about
sphere embeddings: a simple circuit through edge e that uses every other
edge of one of e's incident faces *is* that face, so every non-facial
circuit through e avoids at least one further edge of each incident face.
Minimizing the cycle through e over all such avoided pairs therefore
covers every non-facial circuit.

:func:`brute_force_min_nonfacial` is the independent reference oracle: it
enumerates every simple cycle of the graph outright.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InternalError, VertexCapError
from .graph import Face, PolyhedralGraph, edge_faces, trace_faces

#: Default vertex cap for exhaustive cycle enumeration.
DEFAULT_VERTEX_CAP = 16


@dataclass(frozen=True)
class WeightVector:
    """Exact rational weight per edge, indexed by edge id."""

    weights: tuple[Fraction, ...]

    @classmethod
    def of(cls, values: Iterable) -> "WeightVector":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def uniform(cls, edge_count: int, value) -> "WeightVector":
        return cls((Fraction(value),) * edge_count)

    def __getitem__(self, e: int) -> Fraction:
        return self.weights[e]

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


@dataclass(frozen=True)
class Circuit:
    """A simple closed cycle, stored as a canonical edge id sequence.

    The canonical form rotates the cyclic sequence to start at the
    minimum edge id and picks the direction that makes the second entry
    smaller, so equal cycles compare equal.
    """

    edge_ids: tuple[int, ...]

    @classmethod
    def from_cycle_edges(
        cls, g: PolyhedralGraph, edge_ids: Sequence[int]
    ) -> "Circuit":
        """Canonical circuit from edge ids given in cyclic order."""
        ids = tuple(edge_ids)
        if len(ids) < 3 or len(set(ids)) != len(ids):
            raise ValueError("a circuit needs at least 3 distinct edges")
        verts = set()
        for i, e in enumerate(ids):
            shared = set(g.edges[e]) & set(g.edges[ids[(i + 1) % len(ids)]])
            if len(shared) != 1:
                raise ValueError("edges are not in cyclic order")
            verts |= shared
        if len(verts) != len(ids):
            raise ValueError("edge sequence is not a simple cycle")
        return cls(_canonical(ids))

    @classmethod
    def from_edge_set(cls, g: PolyhedralGraph, edge_ids: Iterable[int]) -> "Circuit":
        """Canonical circuit from an unordered edge set forming one cycle."""
        ids = set(edge_ids)
        if len(ids) < 3:
            raise ValueError("a circuit needs at least 3 distinct edges")
        if any(not 0 <= e < g.edge_count for e in ids):
            raise ValueError("edge set names an unknown edge")
        at: dict[int, list[int]] = {}
        for e in ids:
            for v in g.edges[e]:
                at.setdefault(v, []).append(e)
        if any(len(es) != 2 for es in at.values()) or len(at) != len(ids):
            raise ValueError("edge set is not a single simple cycle")
        start = min(ids)
        seq = [start]
        u, cur = g.edges[start]
        while cur != u:
            a, b = at[cur]
            nxt = b if a == seq[-1] else a
            seq.append(nxt)
            cur = g.other_end(nxt, cur)
        if len(seq) != len(ids):
            raise ValueError("edge set is not a single simple cycle")
        return cls(_canonical(tuple(seq)))

    def __len__(self) -> int:
        return len(self.edge_ids)

    def __contains__(self, e: int) -> bool:
        return e in self.edge_ids

    def weight(self, w) -> Fraction:
        return sum((w[e] for e in self.edge_ids), Fraction(0))

    def vertices(self, g: PolyhedralGraph) -> tuple[int, ...]:
        out = []
        for i, e in enumerate(self.edge_ids):
            nxt = self.edge_ids[(i + 1) % len(self.edge_ids)]
            (shared,) = set(g.edges[e]) & set(g.edges[nxt])
            out.append(shared)
        return tuple(out)


def _canonical(ids: tuple[int, ...]) -> tuple[int, ...]:
    i = ids.index(min(ids))
    fwd = ids[i:] + ids[:i]
    rev = tuple(reversed(ids))
    j = rev.index(min(ids))
    bwd = rev[j:] + rev[:j]
    return min(fwd, bwd)


def _check_weights(g: PolyhedralGraph, w, *, nonnegative: bool) -> None:
    if len(w) != g.edge_count:
        raise ValueError(
            f"weight vector has {len(w)} entries for {g.edge_count} edges"
        )
    if nonnegative and any(w[e] < 0 for e in range(g.edge_count)):
        raise ValueError("edge weights must be nonnegative")


def _scaled(w) -> tuple[list[int], int]:
    """The weights as integer numerators over their least common
    denominator, so sums and comparisons stay exact and cheap."""
    denom = math.lcm(*(x.denominator for x in w))
    return [x.numerator * (denom // x.denominator) for x in w], denom


def _shortest_path(
    g: PolyhedralGraph,
    nums: Sequence[int],
    source: int,
    target: int,
    banned: frozenset[int],
) -> tuple[int, tuple[int, ...]] | None:
    """Min-weight source-target path avoiding banned edges, or None.

    Requires nonnegative integer weights.  Ties are broken by the
    lexicographic order of the path's edge id sequence, which makes the
    result unique.
    """
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    settled = set()
    heap: list[tuple[int, tuple[int, ...], int]] = [(0, (), source)]
    while heap:
        dist, path, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        if v == target:
            return dist, path
        for e in g.rotation[v]:
            if e in banned:
                continue
            u = g.other_end(e, v)
            if u in settled:
                continue
            cand = (dist + nums[e], path + (e,))
            if u not in best or cand < best[u]:
                best[u] = cand
                heapq.heappush(heap, (cand[0], cand[1], u))
    return None


def min_cycle_through_edge(
    g: PolyhedralGraph,
    w,
    e: int,
    forbidden: Iterable[int] = (),
) -> tuple[Circuit, Fraction] | None:
    """Cheapest simple cycle containing edge e and avoiding the forbidden
    edges, or None if e's endpoints are disconnected without them."""
    banned = frozenset(forbidden)
    if e in banned:
        raise ValueError("the required edge cannot be forbidden")
    _check_weights(g, w, nonnegative=True)
    nums, denom = _scaled(w)
    sp = _shortest_path(g, nums, *g.edges[e], banned | {e})
    if sp is None:
        return None
    dist, path = sp
    return Circuit.from_cycle_edges(g, (e,) + path), Fraction(dist + nums[e], denom)


def min_nonfacial_circuit(
    g: PolyhedralGraph,
    w,
    faces: tuple[Face, ...] | None = None,
) -> tuple[Circuit, Fraction]:
    """Globally cheapest simple circuit that does not bound a face.

    For each edge e with incident faces f1, f2, minimizes the cycle
    through e that avoids one further edge of f1 and one of f2; see the
    module docstring for why this covers all non-facial circuits.  Ties
    are broken by the canonical circuit form, so the result is
    deterministic.  Requires nonnegative weights.
    """
    _check_weights(g, w, nonnegative=True)
    nums, denom = _scaled(w)
    if faces is None:
        faces = trace_faces(g)
    incident = edge_faces(g)
    best: tuple[int, tuple[int, ...]] | None = None
    for e in range(g.edge_count):
        f1, f2 = (faces[i] for i in incident[e])
        around1 = sorted(f1.edge_ids - {e})
        around2 = sorted(f2.edge_ids - {e})
        seen: set[frozenset[int]] = set()
        for g1 in around1:
            for g2 in around2:
                pair = frozenset((g1, g2))
                if pair in seen:
                    continue
                seen.add(pair)
                sp = _shortest_path(g, nums, *g.edges[e], pair | {e})
                if sp is None:
                    continue
                dist, path = sp
                key = (dist + nums[e], _canonical((e,) + path))
                if best is None or key < best:
                    best = key
    if best is None:
        raise InternalError("polyhedral graph has no non-facial circuit")
    weight, ids = best
    return Circuit.from_cycle_edges(g, ids), Fraction(weight, denom)


@lru_cache(maxsize=64)
def all_nonfacial_circuits(g: PolyhedralGraph) -> tuple[Circuit, ...]:
    """Every simple circuit of g that is not a face boundary.

    Exhaustive enumeration; exponential in general, cached per graph.
    Sorted by (length, canonical edge sequence).
    """
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_edges_from(g.edges)
    face_sets = {f.edge_ids for f in trace_faces(g)}
    out = []
    for nodes in nx.simple_cycles(G):
        if len(nodes) < 3:
            continue
        ids = tuple(
            g.edge_id(nodes[i], nodes[(i + 1) % len(nodes)])
            for i in range(len(nodes))
        )
        if frozenset(ids) in face_sets:
            continue
        out.append(Circuit(_canonical(ids)))
    out.sort(key=lambda c: (len(c.edge_ids), c.edge_ids))
    return tuple(out)


def brute_force_min_nonfacial(
    g: PolyhedralGraph,
    w,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> tuple[Circuit, Fraction]:
    """Reference oracle: minimum over the exhaustive non-facial circuit
    list.  Agrees with :func:`min_nonfacial_circuit` on the minimal
    weight; the circuit itself may differ under ties."""
    if g.vertex_count > vertex_cap:
        raise VertexCapError(
            f"{g.vertex_count} vertices exceed the enumeration cap {vertex_cap}"
        )
    _check_weights(g, w, nonnegative=False)
    circuits = all_nonfacial_circuits(g)
    nums, denom = _scaled(w)
    best_sum = None
    best = None
    for c in circuits:
        s = sum(nums[e] for e in c.edge_ids)
        if best_sum is None or s < best_sum or (s == best_sum and c.edge_ids < best.edge_ids):
            best_sum = s
            best = c
    if best is None:
        raise InternalError("polyhedral graph has no non-facial circuit")
    return best, Fraction(best_sum, denom)


@dataclass(frozen=True)
class ConditionReport:
    """Violations of the strict weighting conditions.

    The three condition families: every weight strictly inside
    (0, 1/2); every face boundary summing to exactly 1; every non-facial
    circuit weighing strictly more than 1.  ``min_circuit`` is the
    cheapest non-facial circuit and its weight, the one fact the circuit
    family needs: it is None when a negative weight (already a bound
    violation) keeps the oracle from running.  An empty report means the
    weighting is a valid witness.
    """

    bound_violations: tuple[int, ...]
    face_violations: tuple[tuple[int, Fraction], ...]
    min_circuit: tuple[Circuit, Fraction] | None

    @property
    def circuit_checked(self) -> bool:
        return self.min_circuit is not None

    @property
    def circuit_violation(self) -> tuple[Circuit, Fraction] | None:
        if self.min_circuit is not None and self.min_circuit[1] <= 1:
            return self.min_circuit
        return None

    @property
    def ok(self) -> bool:
        return (
            not self.bound_violations
            and not self.face_violations
            and self.circuit_checked
            and self.circuit_violation is None
        )


def check_conditions(g: PolyhedralGraph, w) -> ConditionReport:
    """Report every violated condition of the weighting on g."""
    _check_weights(g, w, nonnegative=False)
    half = Fraction(1, 2)
    bounds = tuple(
        e for e in range(g.edge_count) if not 0 < w[e] < half
    )
    faces = trace_faces(g)
    face_bad = []
    for f in faces:
        total = sum((w[e] for e in f.edge_ids), Fraction(0))
        if total != 1:
            face_bad.append((f.id, total))
    min_circuit = None
    if all(w[e] >= 0 for e in range(g.edge_count)):
        min_circuit = min_nonfacial_circuit(g, w, faces)
    return ConditionReport(
        bound_violations=bounds,
        face_violations=tuple(face_bad),
        min_circuit=min_circuit,
    )
