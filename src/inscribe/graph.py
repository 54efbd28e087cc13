"""Polyhedral graphs as combinatorial sphere embeddings.

A graph is stored together with a rotation system: for every vertex, the
cyclic order of its incident edges.  The rotation system determines the
faces of an embedding on an orientable surface; the embedding is spherical
exactly when Euler's formula V - E + F = 2 holds for the traced faces.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

from .errors import (
    EmbeddingError,
    EulerError,
    FormatError,
    NotThreeConnectedError,
)


class PolyhedralGraph:
    """Simple undirected graph with an explicit rotation system.

    ``edges[i]`` holds the endpoints of edge ``i`` in the order they were
    first seen; ``rotation[v]`` lists the ids of the edges incident to
    ``v`` in cyclic (counterclockwise) order.  Construction checks
    structural well-formedness only (no loops, no parallel edges, every
    edge listed once at each endpoint); sphericity and 3-connectivity are
    checked by :func:`validate_steinitz`.

    Instances are immutable and hashable, equal by their three fields,
    and safe to share across threads.  What is derived from them is
    computed once and kept in the instance's ``__dict__``.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        vertex_count: int,
        edges: tuple[tuple[int, int], ...],
        rotation: tuple[tuple[int, ...], ...],
    ):
        if vertex_count < 1:
            raise EmbeddingError("vertex count must be positive")
        if len(rotation) != vertex_count:
            raise EmbeddingError("rotation must list every vertex exactly once")
        incident: list[set[int]] = [set() for _ in range(vertex_count)]
        edge_ids: dict[frozenset[int], int] = {}
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise EmbeddingError(f"edge {eid} has an endpoint out of range")
            if u == v:
                raise EmbeddingError(f"edge {eid} is a loop at vertex {u}")
            pair = frozenset((u, v))
            if pair in edge_ids:
                raise EmbeddingError(f"parallel edge between {u} and {v}")
            edge_ids[pair] = eid
            incident[u].add(eid)
            incident[v].add(eid)
        for v in range(vertex_count):
            rot = rotation[v]
            if len(rot) != len(set(rot)):
                raise EmbeddingError(f"rotation of vertex {v} repeats an edge")
            if set(rot) != incident[v]:
                raise EmbeddingError(
                    f"rotation of vertex {v} does not list exactly its incident edges"
                )
        vars(self).update(
            vertex_count=vertex_count, edges=edges, rotation=rotation, _edge_ids=edge_ids
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to attribute {name!r} of an immutable graph")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete attribute {name!r} of an immutable graph")

    def _key(self) -> tuple:
        return (self.vertex_count, self.edges, self.rotation)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(vertex_count={self.vertex_count!r}, "
            f"edges={self.edges!r}, rotation={self.rotation!r})"
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
                pair = frozenset((u, v))
                eid = ids.get(pair)
                if eid is None:
                    eid = len(edges)
                    ids[pair] = eid
                    edges.append((u, v))
                row.append(eid)
            rotation.append(tuple(row))
        return cls(n, tuple(edges), tuple(rotation))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_id(self, u: int, v: int) -> int:
        """Id of the edge between u and v; KeyError if absent."""
        return self._edge_ids[frozenset((u, v))]

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.edges[eid]
        if v == a:
            return b
        if v == b:
            return a
        raise ValueError(f"vertex {v} is not an endpoint of edge {eid}")

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    @cached_property
    def _steinitz_report(self) -> SteinitzReport:
        # V - E + F = 2 puts a connected graph on the sphere only
        if euler_characteristic(self) != 2 or not is_k_vertex_connected(self, 1):
            return SteinitzReport(planar_spherical=False, three_connected=None)
        three = self.vertex_count >= 4 and _faces_meet_properly(self)
        return SteinitzReport(planar_spherical=True, three_connected=three)

    @cached_property
    def _dual(self) -> DualPair:
        require_polyhedral(self)
        incident = edge_faces(self)
        primal_to_dual = [-1] * self.edge_count
        edges: list[tuple[int, int]] = []
        rotation: list[tuple[int, ...]] = []
        for face in trace_faces(self):
            row = []
            for e in face.boundary:
                if primal_to_dual[e] < 0:
                    primal_to_dual[e] = len(edges)
                    f1, f2 = incident[e]
                    edges.append((face.id, f2 if f1 == face.id else f1))
                row.append(primal_to_dual[e])
            rotation.append(tuple(row))
        d = PolyhedralGraph(len(rotation), tuple(edges), tuple(rotation))
        # Whitney: the dual of a 3-connected plane graph is 3-connected,
        # and V - E + F is the same for both graphs.
        vars(d)["_steinitz_report"] = SteinitzReport(True, True)
        return DualPair(d, tuple(primal_to_dual))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.other_end(e, v) for e in self.rotation[v])


# Face extends its fields' tuple so that its instances have a __dict__,
# where the cached edge_ids is kept.
class _FaceFields(NamedTuple):
    id: int
    boundary: tuple[int, ...]
    vertices: tuple[int, ...]


class Face(_FaceFields):
    """One face of the embedding, a closed walk: ``boundary[i]`` is the id
    of the edge that leads from ``vertices[i]`` to the next vertex,
    cyclically, so each step's direction is read off ``vertices``.
    """

    @cached_property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(self.boundary)

    @property
    def degree(self) -> int:
        return len(self.boundary)


@lru_cache(maxsize=256)
def trace_faces(g: PolyhedralGraph) -> tuple[Face, ...]:
    """Faces of the rotation system, in deterministic order.

    Each of the 2E darts is used by exactly one face.  Faces are numbered
    by the lowest dart id they contain, dart id being 2*edge + direction.
    Every rotation lists its vertex's edges exactly once (checked when
    the graph is built), so the next-dart map is a permutation of the
    darts, and each walk closes at its start without meeting another.
    """
    pos = [{e: i for i, e in enumerate(rot)} for rot in g.rotation]
    visited = [False] * (2 * g.edge_count)
    faces: list[Face] = []
    for start in range(2 * g.edge_count):
        if visited[start]:
            continue
        boundary: list[int] = []
        tails: list[int] = []
        d = start
        while True:
            visited[d] = True
            e, back = divmod(d, 2)
            u, v = g.edges[e]
            tail, head = (v, u) if back else (u, v)
            boundary.append(e)
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
        for e in face.boundary:
            found[e].append(face.id)
    # an edge's two darts each lie on exactly one traced face
    return tuple(map(tuple, found))


def euler_characteristic(g: PolyhedralGraph) -> int:
    return g.vertex_count - g.edge_count + len(trace_faces(g))


class SteinitzReport(NamedTuple):
    """Outcome of the polyhedral-graph validation.  ``three_connected``
    is None, not checked, exactly when ``planar_spherical`` is false:
    off the sphere a graph is not polyhedral whatever its connectivity."""

    planar_spherical: bool
    three_connected: bool | None

    @property
    def is_polyhedral(self) -> bool:
        return self.planar_spherical and self.three_connected


def validate_steinitz(g: PolyhedralGraph) -> SteinitzReport:
    """Check the two polyhedral-graph conditions.

    ``planar_spherical`` holds iff the graph is connected and the traced
    faces satisfy Euler's formula (genus-0 embedding).  Only then is
    ``three_connected`` decided: it holds iff the graph has at least 4
    vertices and no vertex cut of size at most 2, which on the sphere
    the faces show (:func:`_faces_meet_properly`) in one pass over the
    vertex-face incidences.  Off the sphere it is None, not checked.
    The report is computed once per graph object and kept on it.
    """
    return g._steinitz_report


def _faces_meet_properly(g: PolyhedralGraph) -> bool:
    """Whether every face of g is a simple cycle and any two faces share
    nothing, one vertex, or one edge and its two ends.

    On a connected simple graph embedded in the sphere with at least 4
    vertices this holds exactly when the graph is 3-connected (Mohar and
    Thomassen, *Graphs on Surfaces*, 2001).
    """
    faces_at: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for face in trace_faces(g):
        if len(set(face.vertices)) != len(face.vertices):
            return False
        for v in face.vertices:
            faces_at[v].append(face.id)
    # vertices shared by each pair of faces, the lower face id first
    shared = Counter(
        itertools.chain.from_iterable(itertools.combinations(ids, 2) for ids in faces_at)
    )
    # two faces on one edge share its two ends; a simple graph has no
    # second edge between them
    edge_pairs = {(min(pair), max(pair)) for pair in edge_faces(g)}
    return all(
        count == 1 or (count == 2 and pair in edge_pairs)
        for pair, count in shared.items()
    )


def require_polyhedral(g: PolyhedralGraph) -> None:
    """Raise :class:`EulerError` if g's embedding is not spherical, or
    :class:`NotThreeConnectedError` if g is not 3-connected, as
    :func:`validate_steinitz` reports them."""
    report = validate_steinitz(g)
    if not report.planar_spherical:
        raise EulerError("embedding fails Euler's formula (not spherical)")
    if not report.three_connected:
        raise NotThreeConnectedError("graph is not 3-connected")


def is_k_vertex_connected(g: PolyhedralGraph, k: int) -> bool:
    """True iff removing any k-1 vertices leaves the graph connected.

    Exhaustive over all (k-1)-subsets; intended for desk-scale graphs.
    With k = 1 it is one search, and that is the only way the package
    runs it: :func:`validate_steinitz` needs the graph connected before
    Euler's formula shows it spherical.  Any k serves the tests as the
    reference for the face test.  It stays here, not among the test
    references, while the benchmark traces it by this module path.
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


class DualPair(NamedTuple):
    """A graph's planar dual and the edge bijection to it:
    ``primal_to_dual[e]`` is the id of the dual edge that crosses edge e.

    It holds no reference to the graph, which keeps it: a graph that
    referred to itself would be freed only by the cyclic collector.
    """

    dual: PolyhedralGraph
    primal_to_dual: tuple[int, ...]


def dual(g: PolyhedralGraph) -> DualPair:
    """Planar dual of a polyhedral graph, with the edge bijection from
    primal to dual edge ids.

    One dual vertex per face; for each primal edge, a dual edge between
    its two incident faces.  The dual rotation at a face lists its
    neighbors in face-boundary order, which embeds the dual on the same
    sphere.  Dual edges are numbered in the order one scan of the face
    boundaries first meets their primal edges.  Raises if the input is
    not polyhedral.  The pair is built once per graph object and kept on
    it, so ``dual(g) is dual(g)``; being the dual of a polyhedral graph,
    the dual is polyhedral too.
    """
    return g._dual


def parse_graph(text: str) -> PolyhedralGraph:
    """Parse the polygraph v1 file format.

    Format::

        polygraph 1
        vertices N
        v <i>: <j1> <j2> ... <jd>

    with one ``v`` line per vertex listing its neighbors in
    counterclockwise cyclic order.  Blank lines and ``#`` comments are
    ignored.  Edge ids are assigned in order of first appearance of each
    unordered pair, scanning vertices in increasing order.

    Checks the format (:class:`FormatError`) and the rotation system
    (:class:`EmbeddingError`) only.  Sphericity and 3-connectivity are
    left to :func:`validate_steinitz`, and enforced by
    :func:`require_polyhedral` in every function that needs them.
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
    n = _int(head[1])
    if n is None:
        raise FormatError(f"line {lines[1][0]}: vertex count is not an integer")
    if n < 1:
        raise FormatError(f"line {lines[1][0]}: vertex count must be positive")
    rows: dict[int, list[int]] = {}
    for lineno, line in lines[2:]:
        if not line.startswith("v"):
            raise FormatError(f"line {lineno}: expected 'v <i>: ...'")
        head_part, _, tail = line.partition(":")
        parts = head_part.split()
        i = _int(parts[1]) if len(parts) == 2 and parts[0] == "v" else None
        if i is None:
            raise FormatError(f"line {lineno}: expected 'v <i>: ...'")
        if not 0 <= i < n:
            raise FormatError(f"line {lineno}: vertex {i} out of range")
        if i in rows:
            raise FormatError(f"line {lineno}: vertex {i} listed twice")
        rows[i] = [_int(tok) for tok in tail.split()]
        if None in rows[i]:
            raise FormatError(f"line {lineno}: neighbor list is not integers")
    if len(rows) < n:
        # rows holds distinct vertices below n, so one of 0..len(rows) is missing
        missing = next(i for i in range(len(rows) + 1) if i not in rows)
        raise FormatError(f"no neighbor line for vertex {missing}")
    return PolyhedralGraph.from_neighbor_rotations([rows[i] for i in range(n)])


def format_graph(g: PolyhedralGraph) -> str:
    """Serialize to the polygraph v1 format (inverse of parse_graph)."""
    out = ["polygraph 1", f"vertices {g.vertex_count}"]
    for v in range(g.vertex_count):
        nbrs = " ".join(str(g.other_end(e, v)) for e in g.rotation[v])
        out.append(f"v {v}: {nbrs}")
    return "\n".join(out) + "\n"


def _int(tok: str) -> int | None:
    """tok as an integer if it is written as format_graph writes one,
    in ASCII digits after an optional minus sign; else None."""
    try:
        return int(tok) if re.fullmatch("-?[0-9]+", tok) else None
    except ValueError:  # more digits than int() converts
        return None
