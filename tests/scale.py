"""Circumscribable decisions at scale, each answer and margin pinned.

Run every case with ``python tests/scale.py``, or some of them by name;
each decision is verified, and a wrong answer or margin or a failed
verification exits 1.  Three cases take a few dozen cut rounds each, so
a solver that starts every round from scratch takes tens of seconds on
them where one that goes on from the last basis takes about a second.
``ico4`` takes 82 rounds, each with one call of the separation oracle,
whose pre-check runs about 30,000 times in the decision.
``prism-120`` takes one round, but its two 120-gon faces give their
least edges 119 searches each in the separation oracle unless a search
shows that none of them can find a path.  ``antiprism-60`` takes one
round too: one cold solve of a dense LP, so the tableau's build, phase 1
and the read-off of the point and multipliers run at the LP's dense end.
``antiprism-120`` is the same solve at 240 vertices, where the row
updates of its 481 pivots, over rows that fill in, are most of the time.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from inscribe import (
    decide_circumscribable,
    generate,
    stack_on_faces,
    trace_faces,
    verify_certificate,
)


def ico_stack(k):
    """The icosahedron with an apex stacked on half its faces k times
    over, each half drawn with one ``random.Random(3)``: at k = 3, 82
    vertices, 240 edges and 160 faces; at k = 4, 162 vertices, 480 edges
    and 320 faces."""
    g = generate("icosahedron")
    rng = random.Random(3)
    for _ in range(k):
        faces = len(trace_faces(g))
        g = stack_on_faces(g, rng.sample(range(faces), faces // 2))
    return g


# name -> (graph, answer, margin)
CASES = {
    "ico3": (lambda: ico_stack(3), "yes", Fraction(2, 21)),
    "ico4": (lambda: ico_stack(4), "yes", Fraction(1, 12)),
    "kleetope-antiprism-12": (lambda: generate("kleetope(antiprism)", 12), "yes", Fraction(1, 8)),
    "kleetope-antiprism-20": (lambda: generate("kleetope(antiprism)", 20), "yes", Fraction(1, 8)),
    "prism-120": (lambda: generate("prism", 120), "yes", Fraction(1, 120)),
    "antiprism-60": (lambda: generate("antiprism", 60), "yes", Fraction(1, 120)),
    "antiprism-120": (lambda: generate("antiprism", 120), "yes", Fraction(1, 240)),
}


def main(names) -> int:
    failed = 0
    for name in names or CASES:
        make, answer, margin = CASES[name]
        g = make()
        start = time.perf_counter()
        cert = decide_circumscribable(g)
        elapsed = time.perf_counter() - start
        ok, problems = verify_certificate(cert, g)
        print(f"{name}: {cert.answer}, margin {cert.margin}, {cert.iterations} rounds, "
              f"{elapsed:.2f} s, verify {'PASS' if ok else 'FAIL'}")
        if (cert.answer, cert.margin) != (answer, margin) or not ok:
            print(f"{name}: expected {answer} at margin {margin}; {problems}")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
