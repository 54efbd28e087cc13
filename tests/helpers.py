"""Shared fixtures and memoized decisions for the test suite."""

from __future__ import annotations

import functools
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


# Decisions are deterministic; share them across acceptance criteria.
circumscribable = functools.lru_cache(maxsize=None)(decide_circumscribable)
inscribable = functools.lru_cache(maxsize=None)(decide_inscribable)
