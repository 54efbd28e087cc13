"""A fixed panel of decisions, and what no correct solver change may move.

The panel is the 30 corpus graphs, seven kleetopes, ``prism 12``,
``antiprism 12``, the cuboctahedron and 200 random polyhedral graphs
drawn with ``random.Random(7)``: 240 graphs, each asked both questions,
480 decisions.  Each answer and each yes margin is the optimum of the
full system, so no change to how the LP is solved or which cuts the
loop adds may move them.  A no's margin is the optimum of the last
relaxation and depends on the cuts; a certificate depends on the pivot
path as well.
"""

from __future__ import annotations

import functools
import hashlib
import random

from helpers import CORPUS_SPECS, corpus_name, cuboctahedron, random_polyhedral_graph

from inscribe import (
    PolyhedralGraph,
    certificate_to_json,
    decide_circumscribable,
    decide_inscribable,
    generate,
)

QUESTIONS = {"inscribable": decide_inscribable, "circumscribable": decide_circumscribable}

KLEETOPE_SPECS = [
    ("kleetope(cube)", None),
    ("kleetope(octahedron)", None),
    ("kleetope(icosahedron)", None),
    ("kleetope(dodecahedron)", None),
    ("kleetope(antiprism)", 4),
    ("kleetope(antiprism)", 6),
    ("kleetope(bipyramid)", 3),
]


@functools.lru_cache(maxsize=1)
def panel_graphs() -> tuple[tuple[str, PolyhedralGraph], ...]:
    """The 240 panel graphs, named, in panel order."""
    specs = CORPUS_SPECS + KLEETOPE_SPECS + [("prism", 12), ("antiprism", 12)]
    graphs = [(corpus_name(f, n), generate(f, n)) for f, n in specs]
    graphs.append(("cuboctahedron", cuboctahedron()))
    rng = random.Random(7)
    graphs += [random_polyhedral_graph(rng) for _ in range(200)]
    return tuple(graphs)


@functools.lru_cache(maxsize=1)
def panel_decisions() -> tuple:
    """(graph name, question, graph, certificate) for each panel decision."""
    return tuple(
        (name, question, g, decide(g))
        for name, g in panel_graphs()
        for question, decide in QUESTIONS.items()
    )


def answer_line(cert) -> str:
    """A decision as the panel pins it: the answer, and a yes's margin."""
    return f"{cert.answer} {cert.margin}" if cert.is_yes else cert.answer


def answers_digest(decisions) -> str:
    """sha256 over each decision's :func:`answer_line`, one per line."""
    return hashlib.sha256(
        "".join(answer_line(cert) + "\n" for *_, cert in decisions).encode()
    ).hexdigest()


def certificates_digest(decisions) -> str:
    """sha256 over each decision's certificate JSON, in panel order."""
    digest = hashlib.sha256()
    for *_, cert in decisions:
        digest.update(certificate_to_json(cert).encode())
    return digest.hexdigest()


def relabel(g: PolyhedralGraph, rng: random.Random, mirror: bool) -> PolyhedralGraph:
    """g with its vertex and edge ids permuted, each edge's ends in a
    random order and each rotation list started at a random edge; a
    mirror also reverses every rotation, which is g's mirror image."""
    vertices = list(range(g.vertex_count))
    edges = list(range(g.edge_count))
    rng.shuffle(vertices)
    rng.shuffle(edges)
    new_edges = [None] * g.edge_count
    for e, (u, v) in enumerate(g.edges):
        ends = (vertices[u], vertices[v])
        new_edges[edges[e]] = ends if rng.random() < 0.5 else ends[::-1]
    rotation = [None] * g.vertex_count
    for v, rot in enumerate(g.rotation):
        rot = [edges[e] for e in rot]
        k = rng.randrange(len(rot))
        rot = rot[k:] + rot[:k]
        rotation[vertices[v]] = tuple(rot[::-1] if mirror else rot)
    return PolyhedralGraph(g.vertex_count, tuple(new_edges), tuple(rotation))
