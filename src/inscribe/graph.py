"""Polyhedral graphs as combinatorial sphere embeddings.

A graph is stored together with a rotation system: for every vertex, the
cyclic order of its incident edges.  The rotation system determines the
faces of an embedding on an orientable surface; the embedding is spherical
exactly when Euler's formula V - E + F = 2 holds for the traced faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import (
    EmbeddingError,
    EulerError,
    FormatError,
    NotThreeConnectedError,
)


@dataclass(frozen=True)
class PolyhedralGraph:
    """Simple undirected graph with an explicit rotation system.

    ``edges[i]`` holds the endpoints of edge ``i`` in the order they were
    first seen; ``rotation[v]`` lists the ids of the edges incident to
    ``v`` in cyclic (counterclockwise) order.  Construction checks
    structural well-formedness only (no loops, no parallel edges, every
    edge listed once at each endpoint); sphericity and 3-connectivity are
    checked by :func:`validate_steinitz`.

    Instances are immutable and hashable, and safe to share across threads.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise EmbeddingError("vertex count must be positive")
        if len(self.rotation) != self.vertex_count:
            raise EmbeddingError("rotation must list every vertex exactly once")
        incident: list[set[int]] = [set() for _ in range(self.vertex_count)]
        seen_pairs: set[frozenset[int]] = set()
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise EmbeddingError(f"edge {eid} has an endpoint out of range")
            if u == v:
                raise EmbeddingError(f"edge {eid} is a loop at vertex {u}")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise EmbeddingError(f"parallel edge between {u} and {v}")
            seen_pairs.add(pair)
            incident[u].add(eid)
            incident[v].add(eid)
        for v in range(self.vertex_count):
            rot = self.rotation[v]
            if len(rot) != len(set(rot)):
                raise EmbeddingError(f"rotation of vertex {v} repeats an edge")
            if set(rot) != incident[v]:
                raise EmbeddingError(
                    f"rotation of vertex {v} does not list exactly its incident edges"
                )

    @classmethod
    def from_neighbor_rotations(
        cls, neighbor_lists: Sequence[Sequence[int]]
    ) -> "PolyhedralGraph":
        """Build a graph from per-vertex neighbor lists in cyclic order.

        Edge ids are assigned in order of first appearance of each
        unordered pair, scanning vertices in increasing order.
        """
        n = len(neighbor_lists)
        ids: dict[frozenset[int], int] = {}
        edges: list[tuple[int, int]] = []
        rotation: list[tuple[int, ...]] = []
        for u, nbrs in enumerate(neighbor_lists):
            row = []
            for v in nbrs:
                if not 0 <= v < n:
                    raise EmbeddingError(f"vertex {u} lists neighbor {v} out of range")
                if v == u:
                    raise EmbeddingError(f"loop at vertex {u}")
                pair = frozenset((u, v))
                eid = ids.get(pair)
                if eid is None:
                    eid = len(edges)
                    ids[pair] = eid
                    edges.append((u, v))
                row.append(eid)
            rotation.append(tuple(row))
        # Every edge must be listed at both endpoints.
        for eid, (u, v) in enumerate(edges):
            if eid not in rotation[v] or eid not in rotation[u]:
                raise EmbeddingError(
                    f"edge {u}-{v} is not listed at both endpoints"
                )
        return cls(n, tuple(edges), tuple(rotation))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_ids(self) -> dict[frozenset[int], int]:
        return {frozenset(pair): eid for eid, pair in enumerate(self.edges)}

    def edge_id(self, u: int, v: int) -> int:
        """Id of the edge between u and v; KeyError if absent."""
        return self._edge_ids[frozenset((u, v))]

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self._edge_ids

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.edges[eid]
        if v == a:
            return b
        if v == b:
            return a
        raise ValueError(f"vertex {v} is not an endpoint of edge {eid}")

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.other_end(e, v) for e in self.rotation[v])


@dataclass(frozen=True)
class Face:
    """One face of the embedding: a closed walk of directed edges.

    ``boundary[i]`` is ``(edge id, forward)`` where forward means the edge
    is traversed from its stored first endpoint to its second;
    ``vertices[i]`` is the tail vertex of that dart.
    """

    id: int
    boundary: tuple[tuple[int, bool], ...]
    vertices: tuple[int, ...]

    @cached_property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(e for e, _ in self.boundary)

    @property
    def degree(self) -> int:
        return len(self.boundary)


@lru_cache(maxsize=256)
def trace_faces(g: PolyhedralGraph) -> tuple[Face, ...]:
    """Faces of the rotation system, in deterministic order.

    Each of the 2E darts is used by exactly one face.  Faces are numbered
    by the lowest dart id they contain, dart id being 2*edge + direction.
    """
    pos = [{e: i for i, e in enumerate(rot)} for rot in g.rotation]
    visited = [False] * (2 * g.edge_count)
    faces: list[Face] = []
    for start in range(2 * g.edge_count):
        if visited[start]:
            continue
        boundary: list[tuple[int, bool]] = []
        tails: list[int] = []
        d = start
        while True:
            if visited[d]:
                raise EmbeddingError("face traversal did not close")
            visited[d] = True
            e, back = divmod(d, 2)
            u, v = g.edges[e]
            tail, head = (v, u) if back else (u, v)
            boundary.append((e, not back))
            tails.append(tail)
            rot = g.rotation[head]
            e2 = rot[(pos[head][e] + 1) % len(rot)]
            d = 2 * e2 + (0 if g.edges[e2][0] == head else 1)
            if d == start:
                break
        faces.append(Face(len(faces), tuple(boundary), tuple(tails)))
    return tuple(faces)


@lru_cache(maxsize=256)
def edge_faces(g: PolyhedralGraph) -> tuple[tuple[int, int], ...]:
    """For each edge, the ids of its two incident faces (traversal order)."""
    found: list[list[int]] = [[] for _ in range(g.edge_count)]
    for face in trace_faces(g):
        for e, _ in face.boundary:
            found[e].append(face.id)
    out = []
    for e, pair in enumerate(found):
        if len(pair) != 2:
            raise EmbeddingError(f"edge {e} does not lie on exactly two darts")
        out.append((pair[0], pair[1]))
    return tuple(out)


def euler_characteristic(g: PolyhedralGraph) -> int:
    return g.vertex_count - g.edge_count + len(trace_faces(g))


@dataclass(frozen=True)
class SteinitzReport:
    """Outcome of the polyhedral-graph validation."""

    planar_spherical: bool
    three_connected: bool

    @property
    def is_polyhedral(self) -> bool:
        return self.planar_spherical and self.three_connected


def validate_steinitz(g: PolyhedralGraph) -> SteinitzReport:
    """Check the two polyhedral-graph conditions.

    ``planar_spherical`` holds iff the traced faces satisfy Euler's
    formula (genus-0 embedding); ``three_connected`` iff the graph has no
    vertex cut of size at most 2.
    """
    planar = euler_characteristic(g) == 2
    three = g.vertex_count >= 4 and is_k_vertex_connected(g, 3)
    return SteinitzReport(planar_spherical=planar, three_connected=three)


def require_polyhedral(g: PolyhedralGraph) -> None:
    """Raise :class:`EulerError` if g's embedding is not spherical, or
    :class:`NotThreeConnectedError` if g is not 3-connected; both carry
    g."""
    report = validate_steinitz(g)
    if not report.planar_spherical:
        raise EulerError("embedding fails Euler's formula (not spherical)", graph=g)
    if not report.three_connected:
        raise NotThreeConnectedError("graph is not 3-connected", graph=g)


# parse_graph's keyword of the same name shadows the function in its body.
_require_polyhedral = require_polyhedral


def is_k_vertex_connected(g: PolyhedralGraph, k: int) -> bool:
    """True iff removing any k-1 vertices leaves the graph connected.

    Exhaustive over all (k-1)-subsets; intended for desk-scale graphs.
    """
    if not 1 <= k <= g.vertex_count - 1:
        raise ValueError(f"k must be in [1, V-1], got {k}")
    nbrs = [g.neighbors(v) for v in range(g.vertex_count)]
    for removed in itertools.combinations(range(g.vertex_count), k - 1):
        gone = set(removed)
        start = next(v for v in range(g.vertex_count) if v not in gone)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w not in gone and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != g.vertex_count - len(gone):
            return False
    return True


@dataclass(frozen=True)
class DualPair:
    """A graph, its planar dual, and the edge bijection between them."""

    primal: PolyhedralGraph
    dual: PolyhedralGraph
    primal_to_dual: tuple[int, ...]
    dual_to_primal: tuple[int, ...]


def dual(g: PolyhedralGraph) -> DualPair:
    """Planar dual of a polyhedral graph, with the edge bijection.

    One dual vertex per face; for each primal edge, a dual edge between
    its two incident faces.  The dual rotation at a face lists its
    neighbors in face-boundary order, which embeds the dual on the same
    sphere.  Raises if the input is not polyhedral; a parallel edge in
    the dual would signal a non-3-connected primal and is rejected by
    construction.
    """
    require_polyhedral(g)
    faces = trace_faces(g)
    incident = edge_faces(g)
    neighbor_lists = []
    for face in faces:
        row = []
        for e, _ in face.boundary:
            f1, f2 = incident[e]
            row.append(f2 if f1 == face.id else f1)
        neighbor_lists.append(row)
    dual_graph = PolyhedralGraph.from_neighbor_rotations(neighbor_lists)
    # Recover the edge bijection by replaying the constructor's
    # first-appearance numbering: dual edge ids appear in the same scan
    # order as primal edges do across face boundaries.
    primal_to_dual = [-1] * g.edge_count
    counter = 0
    for face in faces:
        for e, _ in face.boundary:
            if primal_to_dual[e] < 0:
                primal_to_dual[e] = counter
                counter += 1
    if counter != dual_graph.edge_count:
        raise EmbeddingError("dual edge count mismatch")
    dual_to_primal = [-1] * g.edge_count
    for e, d in enumerate(primal_to_dual):
        if set(dual_graph.edges[d]) != set(incident[e]):
            raise EmbeddingError("dual edge bijection inconsistent")
        dual_to_primal[d] = e
    return DualPair(g, dual_graph, tuple(primal_to_dual), tuple(dual_to_primal))


def parse_graph(text: str, *, require_polyhedral: bool = True) -> PolyhedralGraph:
    """Parse the polygraph v1 file format.

    Format::

        polygraph 1
        vertices N
        v <i>: <j1> <j2> ... <jd>

    with one ``v`` line per vertex listing its neighbors in
    counterclockwise cyclic order.  Blank lines and ``#`` comments are
    ignored.  Edge ids are assigned in order of first appearance of each
    unordered pair, scanning vertices in increasing order.

    With ``require_polyhedral`` (the default), a spherical embedding that
    fails Euler's formula raises :class:`EulerError` and a non-3-connected
    graph raises :class:`NotThreeConnectedError`; both carry the parsed
    graph for inspection.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise FormatError("empty polygraph file")
    if lines[0][1].split() != ["polygraph", "1"]:
        raise FormatError(f"line {lines[0][0]}: expected header 'polygraph 1'")
    if len(lines) < 2:
        raise FormatError("missing 'vertices N' line")
    head = lines[1][1].split()
    if len(head) != 2 or head[0] != "vertices":
        raise FormatError(f"line {lines[1][0]}: expected 'vertices N'")
    try:
        n = int(head[1])
    except ValueError:
        raise FormatError(f"line {lines[1][0]}: vertex count is not an integer")
    if n < 1:
        raise FormatError(f"line {lines[1][0]}: vertex count must be positive")
    rows: dict[int, list[int]] = {}
    for lineno, line in lines[2:]:
        if not line.startswith("v"):
            raise FormatError(f"line {lineno}: expected 'v <i>: ...'")
        head_part, _, tail = line.partition(":")
        parts = head_part.split()
        if len(parts) != 2 or parts[0] != "v" or not _is_int(parts[1]):
            raise FormatError(f"line {lineno}: expected 'v <i>: ...'")
        i = int(parts[1])
        if not 0 <= i < n:
            raise FormatError(f"line {lineno}: vertex {i} out of range")
        if i in rows:
            raise FormatError(f"line {lineno}: vertex {i} listed twice")
        try:
            rows[i] = [int(tok) for tok in tail.split()]
        except ValueError:
            raise FormatError(f"line {lineno}: neighbor list is not integers")
    missing = [i for i in range(n) if i not in rows]
    if missing:
        raise FormatError(f"no neighbor line for vertex {missing[0]}")
    g = PolyhedralGraph.from_neighbor_rotations([rows[i] for i in range(n)])
    if require_polyhedral:
        _require_polyhedral(g)
    return g


def format_graph(g: PolyhedralGraph) -> str:
    """Serialize to the polygraph v1 format (inverse of parse_graph)."""
    out = ["polygraph 1", f"vertices {g.vertex_count}"]
    for v in range(g.vertex_count):
        nbrs = " ".join(str(g.other_end(e, v)) for e in g.rotation[v])
        out.append(f"v {v}: {nbrs}")
    return "\n".join(out) + "\n"


def _is_int(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False
