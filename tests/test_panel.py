"""The panel's answers and yes margins, pinned, and the checks around them."""

import random

from panel import (
    QUESTIONS,
    answer_line,
    answers_digest,
    certificates_digest,
    panel_decisions,
    panel_graphs,
    relabel,
)
from reference import solve_full_enumeration

from inscribe import dual, validate_steinitz, verify_certificate


def test_panel_size():
    assert len(panel_graphs()) == 240
    assert len(panel_decisions()) == 480


def test_answers_and_yes_margins():
    # pinned before the margin LP was solved through its dual, and
    # unchanged by it: the optimum of the full system cannot move
    decisions = panel_decisions()
    assert answers_digest(decisions) == (
        "f34cb65026891c7c1ec7a2c60bec458cb8e720f6261193d64ad8e8292d67c87e")
    assert sum(cert.is_yes for *_, cert in decisions) == 436


def test_every_certificate_verifies():
    failed = [
        (name, question) for name, question, g, cert in panel_decisions()
        if verify_certificate(cert, g) != (True, [])
    ]
    assert failed == []


def test_certificate_digest():
    # moves whenever the solver takes another pivot path or the loop
    # another cut; a change that moves it says so.  Moved when the margin
    # LP came to be solved through its dual from the last basis
    assert certificates_digest(panel_decisions()) == (
        "4a5015d1fc394893a54d85ef55b759326e146890b8664d4fd1705e342cf4aee3")


def test_margins_match_full_enumeration():
    # every decision whose tested graph has at most 14 vertices, against
    # the LP with every non-facial circuit as a row: a yes margin is its
    # optimum, and a no's relaxation bounds it from above
    checked = 0
    for name, question, g, cert in panel_decisions():
        tested = dual(g).dual if question == "inscribable" else g
        if tested.vertex_count > 14:
            continue
        full, _ = solve_full_enumeration(tested)
        full_yes = full.margin is not None and full.margin > 0
        assert cert.is_yes == full_yes, (name, question)
        if cert.is_yes:
            assert cert.margin == full.margin, (name, question)
        elif cert.margin is None:
            assert full.margin is None, (name, question)
        elif full.margin is not None:
            assert full.margin <= cert.margin, (name, question)
        checked += 1
    assert checked == 374


def test_relabelled_corpus_keeps_answers_and_yes_margins():
    # the full system's optimum does not depend on the numbering or the
    # orientation, though the pivot path and the oracle's tie-breaks do
    rng = random.Random(16)
    expected = {(name, question): answer_line(cert)
                for name, question, _, cert in panel_decisions()}
    for name, g in panel_graphs()[:30]:
        for mirror in (False, True):
            h = relabel(g, rng, mirror)
            assert validate_steinitz(h).is_polyhedral
            for question, decide in QUESTIONS.items():
                assert answer_line(decide(h)) == expected[name, question], (name, mirror)
