"""Deterministic generators for the polyhedral graph families.

All generators return graphs with canonical vertex numbering and edge ids
assigned in first-appearance order, so their polygraph serialization
round-trips to an identical graph.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import EmbeddingError, GraphError, InternalError
from .graph import PolyhedralGraph, dual, trace_faces

FAMILIES = (
    "tetrahedron",
    "cube",
    "octahedron",
    "dodecahedron",
    "icosahedron",
    "prism",
    "antiprism",
    "wheel",
    "pyramid",
    "bipyramid",
)

_SIZED = {"prism", "antiprism", "wheel", "pyramid", "bipyramid"}

_KLEETOPE_RE = re.compile(r"^kleetope\((.+)\)$")


def from_oriented_faces(
    vertex_count: int, faces: Iterable[Sequence[int]]
) -> PolyhedralGraph:
    """Build the embedded graph whose faces are the given vertex cycles.

    The face cycles must be consistently oriented: every directed edge is
    used by exactly one face.  The rotation at each vertex is recovered
    from the around-the-vertex successor map those cycles induce.
    """
    succ: list[dict[int, int]] = [{} for _ in range(vertex_count)]
    for face in faces:
        k = len(face)
        if k < 3:
            raise EmbeddingError("face with fewer than 3 vertices")
        for i in range(k):
            u, v, w = face[i - 1], face[i], face[(i + 1) % k]
            if not (0 <= v < vertex_count):
                raise EmbeddingError(f"face vertex {v} out of range")
            if u in succ[v]:
                raise EmbeddingError(
                    f"directed edge {u}->{v} used by more than one face"
                )
            succ[v][u] = w
    neighbor_lists = []
    for v in range(vertex_count):
        around = succ[v]
        if not around:
            raise EmbeddingError(f"vertex {v} lies on no face")
        start = min(around)
        cycle = [start]
        nxt = around[start]
        while nxt != start:
            if nxt not in around or len(cycle) > len(around):
                raise EmbeddingError(
                    f"faces do not close up into a disk around vertex {v}"
                )
            cycle.append(nxt)
            nxt = around[nxt]
        if len(cycle) != len(around):
            raise EmbeddingError(
                f"faces around vertex {v} split into several cycles"
            )
        neighbor_lists.append(cycle)
    return PolyhedralGraph.from_neighbor_rotations(neighbor_lists)


def stack_on_faces(g: PolyhedralGraph, face_ids: Iterable[int]) -> PolyhedralGraph:
    """Stack a pyramid (one new apex vertex) on each of the given faces.

    Apexes are numbered after the existing vertices, in increasing order
    of face id.  Stacking on every face yields the kleetope.
    """
    faces = trace_faces(g)
    chosen = sorted(set(face_ids))
    for f in chosen:
        if not 0 <= f < len(faces):
            raise GraphError(f"face id {f} out of range")
    apex = {f: g.vertex_count + i for i, f in enumerate(chosen)}
    oriented: list[Sequence[int]] = []
    for face in faces:
        if face.id in apex:
            a = apex[face.id]
            verts = face.vertices
            k = len(verts)
            oriented.extend((verts[i], verts[(i + 1) % k], a) for i in range(k))
        else:
            oriented.append(face.vertices)
    return from_oriented_faces(g.vertex_count + len(chosen), oriented)


def kleetope(g: PolyhedralGraph) -> PolyhedralGraph:
    """Stack a pyramid on every face."""
    return stack_on_faces(g, range(len(trace_faces(g))))


def _tetrahedron() -> PolyhedralGraph:
    return from_oriented_faces(4, [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])


def _prism(n: int) -> PolyhedralGraph:
    top = list(range(n))
    bottom = [n + i for i in range(n)]
    faces: list[Sequence[int]] = [tuple(top), tuple(reversed(bottom))]
    for i in range(n):
        j = (i + 1) % n
        faces.append((j, i, n + i, n + j))
    return from_oriented_faces(2 * n, faces)


def _antiprism(n: int) -> PolyhedralGraph:
    top = list(range(n))
    bottom = [n + i for i in range(n)]
    faces: list[Sequence[int]] = [tuple(top), tuple(reversed(bottom))]
    for i in range(n):
        j = (i + 1) % n
        faces.append((j, i, n + i))
        faces.append((j, n + i, n + j))
    return from_oriented_faces(2 * n, faces)


def _wheel(n: int) -> PolyhedralGraph:
    rim = [1 + i for i in range(n)]
    faces: list[Sequence[int]] = [tuple(reversed(rim))]
    for i in range(n):
        faces.append((0, rim[i], rim[(i + 1) % n]))
    return from_oriented_faces(n + 1, faces)


def _bipyramid(n: int) -> PolyhedralGraph:
    rim = [2 + i for i in range(n)]
    faces: list[Sequence[int]] = []
    for i in range(n):
        j = (i + 1) % n
        faces.append((0, rim[i], rim[j]))
        faces.append((1, rim[j], rim[i]))
    return from_oriented_faces(n + 2, faces)


def _icosahedron() -> PolyhedralGraph:
    # Antiprism over a pentagon with pyramids stacked on both pentagonal
    # faces; combinatorially the regular icosahedron.
    base = _antiprism(5)
    pentagons = [f.id for f in trace_faces(base) if f.degree == 5]
    if len(pentagons) != 2:
        raise InternalError("antiprism(5) must have exactly two pentagonal faces")
    return stack_on_faces(base, pentagons)


def _dodecahedron() -> PolyhedralGraph:
    return dual(_icosahedron()).dual


def generate(family: str, n: int | None = None) -> PolyhedralGraph:
    """Generate a named polyhedral graph.

    Families: the five Platonic solids, ``prism``, ``antiprism``,
    ``wheel`` (alias ``pyramid``), ``bipyramid`` (all with n >= 3), and
    ``kleetope(<family>)`` which stacks a pyramid on every face of the
    base family.
    """
    name = family.strip().lower()
    m = _KLEETOPE_RE.match(name)
    if m:
        return kleetope(generate(m.group(1), n))
    if name not in FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    if name in _SIZED:
        if n is None:
            raise GraphError(f"family {name!r} needs a size argument")
        if n < 3:
            raise GraphError(f"family {name!r} needs n >= 3, got {n}")
    elif n is not None:
        raise GraphError(f"family {name!r} takes no size argument")
    if name == "tetrahedron":
        return _tetrahedron()
    if name == "cube":
        return _prism(4)
    if name == "octahedron":
        return _antiprism(3)
    if name == "dodecahedron":
        return _dodecahedron()
    if name == "icosahedron":
        return _icosahedron()
    if name == "prism":
        return _prism(n)
    if name == "antiprism":
        return _antiprism(n)
    if name in ("wheel", "pyramid"):
        return _wheel(n)
    return _bipyramid(n)
