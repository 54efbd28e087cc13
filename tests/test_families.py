"""Answers known in closed form, at sizes past the reference solver.

Each family's answer follows from a theorem, not from the oracle or the
LP that made the decision, and each certificate must pass ``verify``:

* the medial graph of a polyhedral graph is inscribable: the points where
  the edges of its canonical polyhedron touch the midsphere (Schramm,
  *Invent. Math.* 107, 1992) lie on the sphere, and those around a face
  or a vertex lie on one circle, so they span the medial polyhedron;
* the kleetope of a triangulation with V vertices is not: its F = 2V - 4
  apexes are independent, at least half of its 3V - 4 vertices
  (Steinitz's criterion);
* a stacked polytope is inscribable exactly when no tetrahedron of its
  stacking has all four of its faces glued to others (Gonska and
  Ziegler, *Adv. Geom.* 13, 2013).
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import random_polyhedral_graph

from inscribe import (
    decide_inscribable,
    generate,
    kleetope,
    stack_on_faces,
    trace_faces,
    validate_steinitz,
    verify_certificate,
)
from inscribe.generators import from_oriented_faces


def medial(g):
    """The medial graph of g: one vertex per edge of g, two joined when
    their edges follow each other around a face.  Its faces are g's faces
    and, turned the other way round, g's vertices."""
    faces = [f.boundary for f in trace_faces(g)] + [rot[::-1] for rot in g.rotation]
    return from_oriented_faces(g.edge_count, faces)


def medial_bases():
    named = [(family, None) for family in
             ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")]
    named += [(family, n) for family in ("prism", "antiprism", "wheel", "bipyramid")
              for n in (5, 9)]
    named.append(("kleetope(antiprism)", 6))
    bases = [(f"{family} {n}", generate(family, n)) for family, n in named]
    rng = random.Random(11)
    bases += [random_polyhedral_graph(rng) for _ in range(80)]
    return [pytest.param(g, id=name) for name, g in bases]


def triangulations():
    """Three Platonic triangulations, the bipyramids 3..8, and 12
    stackings of the first five of these on 1-6 random faces (seed 3)."""
    bases = [(family, generate(family)) for family in ("tetrahedron", "octahedron", "icosahedron")]
    bases += [(f"bipyramid {n}", generate("bipyramid", n)) for n in range(3, 9)]
    rng = random.Random(3)
    stacked = []
    for _ in range(12):
        name, base = rng.choice(bases[:5])
        count = len(trace_faces(base))
        faces = sorted(rng.sample(range(count), rng.randint(1, min(6, count))))
        stacked.append((f"{name}+{faces}", stack_on_faces(base, faces)))
    return [pytest.param(t, id=name) for name, t in bases + stacked]


@pytest.mark.parametrize("g", medial_bases())
def test_medial_graph_is_inscribable(g):
    m = medial(g)
    assert m.vertex_count == g.edge_count
    assert all(len(rot) == 4 for rot in m.rotation)
    assert validate_steinitz(m).is_polyhedral
    cert = decide_inscribable(m)
    assert cert.answer == "yes"
    assert verify_certificate(cert, m) == (True, [])


@pytest.mark.parametrize("t", triangulations())
def test_kleetope_of_a_triangulation_is_not_inscribable(t):
    assert all(f.degree == 3 for f in trace_faces(t))
    k = kleetope(t)
    cert = decide_inscribable(k)
    assert cert.answer == "no"
    assert verify_certificate(cert, k) == (True, [])
    # observed on every case here, with no proof behind it: a case that
    # breaks it is a finding about the margin, not a wrong answer
    v = t.vertex_count
    assert cert.margin == -Fraction(v - 4, 6 * (v - 2))


def stacked_polytopes():
    """40 stacked polytopes drawn with seed 0, as (name, graph, the
    criterion's answer): the tetrahedron with 1-21 tetrahedra glued on,
    one face at a time.  A map from each face's vertex set to the
    tetrahedron that owns it gives each gluing's node in the dual tree,
    which counts a degree per tetrahedron.  In odd draws a stacking
    picks a face of the tetrahedron that the previous one made (the
    first, of the tetrahedron itself) with probability 0.7, so that some
    tetrahedra get all four faces glued; otherwise it picks uniformly."""
    rng = random.Random(0)
    draws = []
    for k in range(40):
        g = generate("tetrahedron")
        owner = {frozenset(f.vertices): 0 for f in trace_faces(g)}
        degree = [0]
        for _ in range(rng.randint(1, 21)):
            faces = trace_faces(g)
            if k % 2 and rng.random() < 0.7:
                faces = [f for f in faces if owner[frozenset(f.vertices)] == len(degree) - 1]
            face = rng.choice(faces)
            glued = frozenset(face.vertices)
            degree[owner.pop(glued)] += 1
            apex = g.vertex_count
            owner.update((frozenset((*pair, apex)), len(degree))
                         for pair in itertools.combinations(glued, 2))
            degree.append(1)
            g = stack_on_faces(g, [face.id])
            assert owner.keys() == {frozenset(f.vertices) for f in trace_faces(g)}
        draws.append((f"draw {k}, V {g.vertex_count}", g, max(degree) < 4))
    return draws


STACKED = stacked_polytopes()


def test_stacked_draws_give_both_answers():
    # pinned: seed 0 gives these many yes and no, and at most 25 vertices
    assert Counter(inscribable for _, _, inscribable in STACKED) == {True: 33, False: 7}
    assert max(g.vertex_count for _, g, _ in STACKED) <= 25


@pytest.mark.parametrize("g,inscribable", [pytest.param(g, i, id=name) for name, g, i in STACKED])
def test_stacked_polytope_is_inscribable_unless_a_tetrahedron_is_all_glued(g, inscribable):
    cert = decide_inscribable(g)
    assert cert.answer == ("yes" if inscribable else "no")
    assert verify_certificate(cert, g) == (True, [])
