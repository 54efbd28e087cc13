"""Minimum-weight non-facial circuits.

The main oracle, :func:`min_nonfacial_circuit`, finds the least
(weight, canonical edge sequence) simple circuit that is not a face
boundary.  It relies on a structural fact about sphere embeddings: a
simple circuit through edge e that uses every other edge of one of e's
incident faces *is* that face, so every non-facial circuit through e
avoids at least one further edge of each incident face.

Each circuit is looked for only from its least edge e = uv: a shortest
u-v path over the edges above e.  A face of e with an edge below e can
never be that path, so it needs no avoided edge; a face whose other
edges all lie above e loses one of them in each search, in every way.
This stays exact.  Let e0 be the least edge of the least circuit C*.
The search from the endpoint of e0 where the canonical form of C*
starts, avoiding one edge of each face that C* misses, returns C*: any
other path it could prefer closes a non-facial circuit of no greater
weight whose canonical form is smaller.  Both ends of every edge are
searched.  A circuit's key, its weight and its edges from e on, is
(weight, canonical form) when read from the canonical start and larger
from the other end, so the least key is already canonical and the
oracle returns it as it is.

A caller may pass a ``limit``: only a circuit weighing at most it is
wanted, and None stands for "none is that light".  The search keeps a
cap, first the limit (or the sum of all weights), then each better
circuit's weight, and prunes by four rules that keep it exact:

- an edge above the cap is not searched from, since every circuit whose
  least edge it is weighs at least as much; nor is an edge with an end
  that meets no edge above it, since such a circuit leaves each end of
  e by one;
- when the u-v search for a set of avoided edges finds nothing, the v-u
  search is skipped, since the graph is undirected;
- a search stops at the cap less w(e), since a heavier path is never
  chosen;
- a pre-check, :func:`_may_close`, runs before the searches of e: one
  distance-only search for a u-v walk within the cap less w(e) that uses
  an edge off the faces f whose least edge is e.  On a polyhedral graph
  each face is a simple cycle, and two faces at e share only e and its
  ends, so the paths f - e, P1 and with a second face P2, hold no simple
  u-v path but themselves: P1 alone is one such path, and P1 with P2 is
  one cycle, whose simple u-v paths are its two arcs.  A search of e
  avoids an edge of each such face, so a path it returns, in either
  direction, uses an edge off them and is such a walk; when there is
  none, every search of e is skipped.  Only searches that would find
  nothing are skipped, so the result is theirs.  On a graph that is not
  polyhedral every search runs.

:func:`brute_force_min_nonfacial` is the independent reference oracle: it
takes the least circuit of :func:`all_nonfacial_circuits`, which lists
every simple cycle outright, each by a depth-first search from its least
vertex through the vertices above it, and drops the face boundaries.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Container, Iterable, Sequence

from .graph import PolyhedralGraph, edge_faces, trace_faces, validate_steinitz


def canonical_circuit(g: PolyhedralGraph, edge_ids: Iterable[int]) -> tuple[int, ...]:
    """The canonical edge id tuple of the one simple cycle an unordered
    edge set forms; raises ValueError if it forms none.

    The canonical form rotates the cyclic sequence to start at the
    minimum edge id and picks the direction that makes the second entry
    smaller, so equal cycles compare equal.  A cut is this tuple
    throughout: in the oracles, the LP rows and the certificates.
    """
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
    return _canonical(tuple(seq))


def _canonical(ids: tuple[int, ...]) -> tuple[int, ...]:
    i = ids.index(min(ids))
    fwd = ids[i:] + ids[:i]
    rev = tuple(reversed(ids))
    j = rev.index(min(ids))
    bwd = rev[j:] + rev[:j]
    return min(fwd, bwd)


def _numerators(g: PolyhedralGraph, w, *, nonnegative: bool) -> tuple[list[int], int]:
    """:func:`_scaled` of a weight vector with one entry per edge of g,
    which ``nonnegative`` requires to be at least 0; else ValueError."""
    if len(w) != g.edge_count:
        raise ValueError(f"weight vector has {len(w)} entries for {g.edge_count} edges")
    nums, denom = _scaled(w)
    if nonnegative and min(nums, default=0) < 0:
        raise ValueError("edge weights must be nonnegative")
    return nums, denom


def _scaled(w) -> tuple[list[int], int]:
    """The weights as integer numerators over their least common
    denominator, so sums and comparisons stay exact and cheap."""
    denom = math.lcm(*(x.denominator for x in w))
    return [x.numerator * (denom // x.denominator) for x in w], denom


def _shortest_path(
    adj: Sequence[Sequence[tuple[int, int]]],
    nums: Sequence[int],
    source: int,
    target: int,
    banned: Container[int],
    bound: int,
) -> tuple[int, tuple[int, ...]] | None:
    """Min-weight source-target path over ``adj`` avoiding banned edges.

    ``adj[v]`` lists the (edge, other end) pairs at v that the search
    may use.  Requires nonnegative integer weights.  Ties are broken by
    the lexicographic order of the path's edge id sequence, which makes
    the result unique.  Returns None if no path weighs at most ``bound``.
    A label is never pushed above ``bound``, and its path tuple is built
    only once its distance is no worse than the label it would replace.
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
        for e, u in adj[v]:
            if e in banned or u in settled:
                continue
            d = dist + nums[e]
            old = best.get(u)
            if d > bound or old is not None and d > old[0]:
                continue
            p = path + (e,)
            if old is None or (d, p) < old:
                best[u] = (d, p)
                heapq.heappush(heap, (d, p, u))
    return None


def _may_close(
    adj: Sequence[Sequence[tuple[int, int]]],
    nums: Sequence[int],
    source: int,
    target: int,
    face_edges: Container[int],
    bound: int,
) -> bool:
    """Whether some source-target walk over ``adj`` weighing at most
    ``bound`` uses an edge not in ``face_edges``.  The target must have
    an edge in ``adj``.

    A distance-only search over states 2 x + off, where off is set once
    the walk has used an edge outside ``face_edges``; it answers True at
    the first walk that reaches the target with off set, and builds no
    path.  Two prunes keep it exact: a state with off clear is dropped
    once the state with off set at its vertex is no farther, since every
    walk on from it goes on from that state too; and a walk to any other
    vertex needs room for one more edge into the target.
    """
    room = bound - min(nums[a] for a, _ in adj[target])
    best = {2 * source: 0}
    heap = [(0, 2 * source)]
    while heap:
        dist, state = heapq.heappop(heap)
        x, off = divmod(state, 2)
        # a stale entry, or an off-clear state the off-set one at x dominates
        if best[state] < dist or not off and best.get(state + 1, dist + 1) <= dist:
            continue
        for a, y in adj[x]:
            d = dist + nums[a]
            t = 2 * y + (off or a not in face_edges)
            if y == target:
                if t & 1 and d <= bound:
                    return True
            elif d <= room and d < best.get(t, d + 1):
                best[t] = d
                heapq.heappush(heap, (d, t))
    return False


def min_cycle_through_edge(
    g: PolyhedralGraph,
    w,
    e: int,
    forbidden: Iterable[int] = (),
) -> tuple[tuple[int, ...], Fraction] | None:
    """Cheapest simple cycle containing edge e and avoiding the forbidden
    edges, as (canonical edge id tuple, weight), or None if e's
    endpoints are disconnected without them."""
    banned = frozenset(forbidden)
    if e in banned:
        raise ValueError("the required edge cannot be forbidden")
    nums, denom = _numerators(g, w, nonnegative=True)
    adj = [[(x, g.other_end(x, v)) for x in rot] for v, rot in enumerate(g.rotation)]
    sp = _shortest_path(adj, nums, *g.edges[e], banned | {e}, sum(nums))
    if sp is None:
        return None
    dist, path = sp
    # a shortest path closed by e is a simple cycle
    return _canonical((e,) + path), Fraction(dist + nums[e], denom)


def min_nonfacial_circuit(
    g: PolyhedralGraph, w, limit: Fraction | None = None
) -> tuple[tuple[int, ...], Fraction] | None:
    """Globally cheapest simple circuit that does not bound a face, as
    (canonical edge id tuple, weight).

    Looks for each circuit only from its least edge e, over the edges
    above e; see the module docstring for why this finds the least
    (weight, canonical edge sequence) circuit, so the result is
    deterministic.  The pre-check that skips an edge's searches runs only
    on a polyhedral graph, as :func:`validate_steinitz` reports it, since
    only there is every face a simple cycle; elsewhere every search runs.
    Requires nonnegative weights.  With a ``limit``, the search looks
    only at circuits weighing at most it, and returns None when the least
    circuit weighs more; without one, a graph with no non-facial circuit
    raises ValueError.
    """
    nums, denom = _numerators(g, w, nonnegative=True)
    # no simple circuit weighs more than all the edges together
    cap = sum(nums) if limit is None else math.floor(limit * denom)
    faces = trace_faces(g)
    incident = edge_faces(g)
    least = [min(f.boundary) for f in faces]
    # the pre-check is exact only where every face is a simple cycle
    polyhedral = validate_steinitz(g).is_polyhedral
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    best: tuple[int, tuple[int, ...]] | None = None
    for e in reversed(range(g.edge_count)):
        u, v = g.edges[e]
        # every circuit whose least edge is e weighs at least w(e), and
        # leaves each end of e by an edge above e
        if nums[e] <= cap and adj[u] and adj[v]:
            # a face with an edge below e is never the path; a face whose
            # other edges all lie above e loses one of them in each search
            avoid = [faces[i].edge_ids - {e} for i in incident[e] if least[i] == e]
            if not polyhedral or _may_close(adj, nums, u, v, set().union(*avoid), cap - nums[e]):
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


@lru_cache(maxsize=64)
def all_nonfacial_circuits(g: PolyhedralGraph) -> tuple[tuple[int, ...], ...]:
    """Every simple circuit of g that is not a face boundary, as its
    canonical edge id tuple.

    Each circuit is found from its least vertex s: a depth-first search
    over the simple paths from s through vertices above s closes a
    circuit at each edge back to s.  Both directions of a circuit are
    such paths, and only the one whose closing edge id is above its
    first is kept.  Exhaustive; exponential in general, cached per
    graph.  Sorted by (length, canonical edge sequence).
    """
    face_sets = {f.edge_ids for f in trace_faces(g)}
    adj = [[(e, g.other_end(e, v)) for e in rot] for v, rot in enumerate(g.rotation)]
    out = []

    def extend(s: int, v: int, path: list[int], on_path: set[int]) -> None:
        for e, u in adj[v]:
            if u == s:
                # one of the circuit's two directions; this also skips
                # the way back along path[0], as g has no parallel edges
                if e > path[0]:
                    ids = (*path, e)
                    if frozenset(ids) not in face_sets:
                        out.append(_canonical(ids))
            elif u > s and u not in on_path:
                path.append(e)
                on_path.add(u)
                extend(s, u, path, on_path)
                path.pop()
                on_path.remove(u)

    for s in range(g.vertex_count):
        extend(s, s, [], {s})
    out.sort(key=lambda c: (len(c), c))
    return tuple(out)


def brute_force_min_nonfacial(g: PolyhedralGraph, w) -> tuple[tuple[int, ...], Fraction]:
    """Reference oracle: the least (weight, canonical edge sequence)
    circuit over the exhaustive non-facial circuit list, the same one
    :func:`min_nonfacial_circuit` returns.  Accepts negative weights."""
    nums, denom = _numerators(g, w, nonnegative=False)
    keys = [(sum(nums[e] for e in c), c) for c in all_nonfacial_circuits(g)]
    if not keys:
        raise ValueError("graph has no non-facial circuit")
    weight, best = min(keys)
    return best, Fraction(weight, denom)


def weighting_problems(g: PolyhedralGraph, w, margin: Fraction) -> list[str]:
    """What keeps w from proving, with least slack ``margin``, that g is
    of circumscribable type; an empty list when w proves it.

    The three condition families: every weight strictly inside
    (0, 1/2); every face boundary summing to exactly 1; every non-facial
    circuit weighing strictly more than 1, which the cheapest one
    decides.  A negative weight, already a bound violation, keeps the
    oracle from running.  Only a weighting that meets all three is held
    to its least slack, min(w, 1/2 - w, circuit - 1), which must equal
    ``margin``.  The cost is at most one oracle call, limited to
    1 + max(bound slack, 0) with bound slack = min(w, 1/2 - w): a
    heavier circuit is above 1 and cannot lower the least slack.
    """
    # bounds and face sums on the numerators over one denominator d:
    # 0 < w < 1/2 is 0 < n < d/2, and a unit face sum is d
    nums, d = _numerators(g, w, nonnegative=False)
    problems = []
    bounds = tuple(e for e, n in enumerate(nums) if not 0 < 2 * n < d)
    if bounds:
        problems.append(f"bound violations on edges {bounds}")
    for f in trace_faces(g):
        total = sum(nums[e] for e in f.edge_ids)
        if total != d:
            problems.append(f"face {f.id} sums to {Fraction(total, d)}")
    if min(nums) < 0:
        return problems
    bound_slack = min(Fraction(min(nums), d), Fraction(d - 2 * max(nums), 2 * d))
    # a heavier circuit neither weighs <= 1 nor lowers the least slack
    found = min_nonfacial_circuit(g, w, 1 + max(bound_slack, 0))
    slack = bound_slack
    if found is not None:
        circuit, weight = found
        if weight <= 1:
            problems.append(f"circuit {circuit} weighs {weight} <= 1")
        slack = min(slack, weight - 1)
    if not problems and slack != margin:
        problems.append(f"recomputed slack {slack} differs from recorded margin {margin}")
    return problems
