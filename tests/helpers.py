"""Shared fixtures and memoized decisions for the test suite."""

from __future__ import annotations

import functools
import itertools
import math
import random

from inscribe import (
    PolyhedralGraph,
    decide_circumscribable,
    decide_inscribable,
    generate,
    stack_on_faces,
    trace_faces,
    validate_steinitz,
)

CORPUS_SPECS = (
    [
        ("tetrahedron", None),
        ("cube", None),
        ("octahedron", None),
        ("dodecahedron", None),
        ("icosahedron", None),
    ]
    + [(fam, n) for n in range(3, 9) for fam in ("prism", "antiprism", "wheel", "bipyramid")]
    + [("kleetope(tetrahedron)", None)]
)


def corpus_name(family: str, n) -> str:
    return family if n is None else f"{family}({n})"


@functools.lru_cache(maxsize=1)
def corpus() -> dict:
    return {corpus_name(f, n): generate(f, n) for f, n in CORPUS_SPECS}


def random_stacked_variant(rng: random.Random):
    """A named corpus solid with an apex stacked on a random nonempty
    subset of its faces."""
    fam = rng.choice(
        ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron",
         "prism", "antiprism", "wheel", "bipyramid"]
    )
    n = rng.randint(3, 8) if fam in ("prism", "antiprism", "wheel", "bipyramid") else None
    base = generate(fam, n)
    nfaces = len(trace_faces(base))
    chosen = [f for f in range(nfaces) if rng.random() < 0.5]
    if not chosen:
        chosen = [rng.randrange(nfaces)]
    return f"{fam}({n})+{len(chosen)}apexes", stack_on_faces(base, chosen)


def delete_edge(g: PolyhedralGraph, e: int) -> PolyhedralGraph:
    """g without edge e: each vertex keeps the cyclic order of its other
    edges, and edge ids above e move down by one."""
    rotation = tuple(
        tuple(x - (x > e) for x in rot if x != e) for rot in g.rotation
    )
    return PolyhedralGraph(g.vertex_count, g.edges[:e] + g.edges[e + 1:], rotation)


def random_polyhedral_graph(rng: random.Random):
    """A random stacked variant with at most 14 vertices and 0-4 random
    edge deletions, each kept only if the graph stays polyhedral.
    Deletions merge faces, so faces of more sides appear."""
    while True:
        name, g = random_stacked_variant(rng)
        if g.vertex_count <= 14:
            break
    for _ in range(rng.randint(0, 4)):
        e = rng.randrange(g.edge_count)
        h = delete_edge(g, e)
        if validate_steinitz(h).is_polyhedral:
            name, g = f"{name}-e{e}", h
    return name, g


def small_corpus() -> dict:
    return {name: g for name, g in corpus().items() if g.vertex_count <= 14}


def map_code(g: PolyhedralGraph) -> tuple[tuple[int, ...], ...]:
    """A canonical code of g's map, after Weinberg (1966): equal codes
    mean isomorphic maps, mirror images included.

    From a start dart and a sense of rotation, number the vertices in
    the order a breadth-first scan reaches them, each vertex listing
    its neighbours in rotation order from the edge it was reached by;
    the code is the least such list over every start.  A 3-connected
    planar graph has one map up to reflection (Whitney), so two such
    graphs are isomorphic exactly when their codes are equal."""
    codes = []
    for rotation in (g.rotation, tuple(rot[::-1] for rot in g.rotation)):
        for start, rot in enumerate(rotation):
            for first in rot:
                label = {start: 0}
                reached = [(start, first)]
                code = []
                for v, e in reached:  # grows as the scan reaches vertices
                    i = rotation[v].index(e)
                    row = []
                    for x in rotation[v][i:] + rotation[v][:i]:
                        u = g.other_end(x, v)
                        if u not in label:
                            label[u] = len(label)
                            reached.append((u, x))
                        row.append(label[u])
                    code.append(tuple(row))
                codes.append(tuple(code))
    return min(codes)


# Decisions are deterministic; share them across acceptance criteria.
circumscribable = functools.lru_cache(maxsize=None)(decide_circumscribable)
inscribable = functools.lru_cache(maxsize=None)(decide_inscribable)


def cuboctahedron():
    """The cuboctahedron from its vertices, the permutations of
    (+-1, +-1, 0): 12 vertices, 24 edges, 8 triangles and 6 squares.
    Each vertex lists its neighbours (squared distance 2) by angle in
    a right-handed frame whose normal is the vertex itself, so that
    every rotation is counterclockwise seen from outside."""
    points = sorted(
        {p for x in (1, -1) for y in (1, -1) for p in itertools.permutations((x, y, 0))}
    )

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    rotations = []
    for p in points:
        a = cross(p, (1, 2, 3))
        b = cross(p, a)
        offsets = {i: tuple(x - y for x, y in zip(q, p)) for i, q in enumerate(points)}
        near = [i for i, d in offsets.items() if dot(d, d) == 2]
        near.sort(key=lambda i: math.atan2(dot(offsets[i], b), dot(offsets[i], a)))
        rotations.append(near)
    return PolyhedralGraph.from_neighbor_rotations(rotations)


# Certificates pinned byte for byte in tests/data/<name>.json: name ->
# (decision, graph)
GOLDENS = {
    # a no at margin -1/18: its multipliers are pinned too
    "kleetope_bipyramid_3_inscribable": (
        decide_inscribable, lambda: generate("kleetope(bipyramid)", 3)),
    "kleetope_antiprism_4_circumscribable": (
        decide_circumscribable, lambda: generate("kleetope(antiprism)", 4)),
    "kleetope_bipyramid_3_circumscribable": (
        decide_circumscribable, lambda: generate("kleetope(bipyramid)", 3)),
    "stacked_bipyramid_3_0_4_5_circumscribable": (
        decide_circumscribable,
        lambda: stack_on_faces(generate("bipyramid", 3), [0, 4, 5])),
    "kleetope_cube_inscribable": (
        decide_inscribable, lambda: generate("kleetope(cube)")),
    # 120 rows before its 7 cuts; Bland's rule from the first pivot
    # would reach another optimum
    "kleetope_antiprism_6_circumscribable": (
        decide_circumscribable, lambda: generate("kleetope(antiprism)", 6)),
    # an infeasible LP: the no's multipliers are a Farkas ray
    "cuboctahedron_circumscribable": (decide_circumscribable, cuboctahedron),
    # a no at margin 0 whose multipliers are nonzero on an upper, ten
    # face and a circuit row
    "stacked_prism_3_2_3_4_circumscribable": (
        decide_circumscribable,
        lambda: stack_on_faces(generate("prism", 3), [2, 3, 4])),
}
