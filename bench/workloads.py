"""Inputs, pinned answers and the operations of one pass of each workload.

A workload is a fixed list of operations, run as one *pass*.  Every pass
starts with cold caches and fresh graph objects, because a user deciding
a new graph pays for face tracing and cycle enumeration.  The run's seed
orders the cases of a pass; the inputs themselves are fixed (README.md
says why the stacked panel is drawn once, from ``STACKED_PANEL_SEED``).

Callers must put the checkout's ``src`` directory on ``sys.path`` first.
Library functions are looked up on their modules at call time, so that
the tracer's wrappers are the ones called while they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from inscribe import decide as D
from inscribe import generators as GEN
from inscribe import graph as G
from inscribe import separation as S

WORKLOADS = ("corpus", "stacked", "no-instances", "cli")

# Answer and exact margin of each inscribability decision, as the library
# gave them when the benchmark was defined.
CORPUS_PINS = (
    ("tetrahedron", None, "yes", "1/6"),
    ("cube", None, "yes", "1/6"),
    ("octahedron", None, "yes", "1/4"),
    ("dodecahedron", None, "yes", "1/6"),
    ("icosahedron", None, "yes", "1/5"),
    ("prism", 3, "yes", "1/8"),
    ("antiprism", 3, "yes", "1/4"),
    ("wheel", 3, "yes", "1/6"),
    ("bipyramid", 3, "yes", "1/6"),
    ("prism", 4, "yes", "1/6"),
    ("antiprism", 4, "yes", "1/4"),
    ("wheel", 4, "yes", "1/8"),
    ("bipyramid", 4, "yes", "1/4"),
    ("prism", 5, "yes", "1/6"),
    ("antiprism", 5, "yes", "1/4"),
    ("wheel", 5, "yes", "1/10"),
    ("bipyramid", 5, "yes", "1/5"),
    ("prism", 6, "yes", "1/6"),
    ("antiprism", 6, "yes", "1/4"),
    ("wheel", 6, "yes", "1/12"),
    ("bipyramid", 6, "yes", "1/6"),
    ("prism", 7, "yes", "1/6"),
    ("antiprism", 7, "yes", "1/4"),
    ("wheel", 7, "yes", "1/14"),
    ("bipyramid", 7, "yes", "1/7"),
    ("prism", 8, "yes", "1/6"),
    ("antiprism", 8, "yes", "1/4"),
    ("wheel", 8, "yes", "1/16"),
    ("bipyramid", 8, "yes", "1/8"),
    ("kleetope(tetrahedron)", None, "no", "0"),
)

NO_INSTANCE_PINS = (
    ("kleetope(tetrahedron)", None, "no", "0"),
    ("kleetope(wheel)", 4, "no", "0"),
    ("kleetope(bipyramid)", 3, "no", "-1/18"),
)

# Committed corpus files with at most 8 vertices, with the pinned
# (answer, margin) of the inscribable and the circumscribable decision.
CLI_PINS = (
    ("tetrahedron.pg", ("yes", "1/6"), ("yes", "1/6")),
    ("octahedron.pg", ("yes", "1/4"), ("yes", "1/6")),
    ("cube.pg", ("yes", "1/6"), ("yes", "1/4")),
    ("antiprism_4.pg", ("yes", "1/4"), ("yes", "1/8")),
    ("kleetope_tetrahedron.pg", ("no", "0"), ("yes", "1/8")),
)

# The 8-face bases octahedron and bipyramid 4 are left out for run time
# (README.md), as are the slow no-instances.
STACKED_BASES = (
    ("tetrahedron", None),
    ("prism", 3),
    ("wheel", 4),
    ("wheel", 5),
    ("bipyramid", 3),
)

STACKED_PANEL_SEED = 0


def graph_name(family: str, n: int | None) -> str:
    return family if n is None else f"{family} {n}"


@dataclass(frozen=True)
class StackedGraph:
    """A base graph with a pyramid stacked on each listed face."""

    base: str
    face_ids: tuple[int, ...]
    graph: G.PolyhedralGraph

    def record(self) -> dict:
        return {
            "base": self.base,
            "face_ids": list(self.face_ids),
            "V": self.graph.vertex_count,
            "E": self.graph.edge_count,
        }


def stacked_graphs(seed: int) -> tuple[StackedGraph, ...]:
    """One stacked graph per base in ``STACKED_BASES``.

    Each face of the base is stacked with probability 1/2, drawn from
    ``random.Random(seed)`` in base order and face-id order.  Every draw
    is kept, whatever its answer or cost.
    """
    rng = random.Random(seed)
    out = []
    for family, n in STACKED_BASES:
        base = GEN.generate(family, n)
        face_count = len(G.trace_faces(base))
        ids = tuple(f for f in range(face_count) if rng.random() < 0.5)
        out.append(StackedGraph(graph_name(family, n), ids, GEN.stack_on_faces(base, ids)))
    return tuple(out)


@dataclass(frozen=True)
class Case:
    """One input of a pass.

    Library cases decide ``graph`` in ``mode``; cli cases run the five
    commands on the committed file ``path``.  ``pin`` is the expected
    (answer, margin) pair, or None when only ``verify`` checks the answer.
    """

    name: str
    mode: str = "inscribable"
    graph: G.PolyhedralGraph | None = None
    pin: tuple[str, str] | None = None
    angles: bool = False
    path: Path | None = None
    cli_pins: tuple[tuple[str, str], tuple[str, str]] | None = None

    @property
    def key(self) -> str:
        return self.name if self.path is not None else f"{self.name} {self.mode}"


def build(workload: str, root: Path) -> tuple[Case, ...]:
    """Build or parse the inputs of a workload; this is its set-up."""
    if workload == "corpus":
        return tuple(
            Case(graph_name(f, n), graph=GEN.generate(f, n), pin=(a, m), angles=True)
            for f, n, a, m in CORPUS_PINS
        )
    if workload == "no-instances":
        return tuple(
            Case(graph_name(f, n), graph=GEN.generate(f, n), pin=(a, m))
            for f, n, a, m in NO_INSTANCE_PINS
        )
    if workload == "stacked":
        return tuple(
            Case(f"{s.base} {list(s.face_ids)}", mode=mode, graph=s.graph)
            for s in stacked_graphs(STACKED_PANEL_SEED)
            for mode in ("inscribable", "circumscribable")
        )
    if workload == "cli":
        cases = []
        for filename, ins, circ in CLI_PINS:
            path = root / "corpus" / filename
            G.parse_graph(path.read_text(encoding="utf-8"))
            cases.append(Case(filename, path=path, cli_pins=(ins, circ)))
        return tuple(cases)
    raise ValueError(f"unknown workload {workload!r}")


# Taken at import, before any wrapper replaces the module attributes.
FACES_CACHE = G.trace_faces
_CACHED = (G.trace_faces, G.edge_faces, S.all_nonfacial_circuits)


def clear_caches() -> None:
    for cached in _CACHED:
        cached.cache_clear()


class Recorder:
    """Latency samples, certificates and failures of a run's passes."""

    def __init__(self) -> None:
        self.passes: list[dict[str, list[float]]] = []  # per pass: kind -> latencies
        self.walls: list[float] = []
        self.case_walls: dict[str, float] = {}  # case key -> seconds, last pass
        self.certs: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, kind: str, fn, *args):
        self.attempted += 1
        t0 = time.perf_counter()
        result = fn(*args)
        self.passes[-1].setdefault(kind, []).append(time.perf_counter() - t0)
        return result

    def fail(self, case: str, message: str, skipped: int = 0) -> None:
        """Count one failed operation, plus ``skipped`` planned ones that
        could not run because of it."""
        self.attempted += skipped
        self.failed += 1 + skipped
        self.problems.append(f"{case}: {message}")


def _check_pin(rec: Recorder, case: str, pin, answer: str, margin) -> None:
    want_answer, want_margin = pin
    if answer != want_answer or margin != Fraction(want_margin):
        rec.fail(case, f"answer {answer} margin {margin}, pinned {want_answer} {want_margin}")


def library_case(case: Case, rec: Recorder) -> None:
    """Decide the case, take dihedral angles of a yes where asked,
    serialize the certificate and verify it."""
    # A fresh object holds none of the per-instance caches of earlier passes.
    g = G.PolyhedralGraph(case.graph.vertex_count, case.graph.edges, case.graph.rotation)
    key = case.key
    decide = D.decide_inscribable if case.mode == "inscribable" else D.decide_circumscribable
    try:
        cert = rec.call("decide", decide, g)
    except Exception as exc:  # an exception is a failed operation; the run goes on
        rec.fail(key, f"decide raised {exc!r}", skipped=1 + case.angles)
        return
    if case.pin is not None:
        _check_pin(rec, key, case.pin, cert.answer, cert.margin)
    angles = None
    if case.angles and cert.is_yes:
        try:
            angles = rec.call("angles", lambda: D.dihedral_angles(cert, G.dual(g)))
        except Exception as exc:
            rec.fail(key, f"angles raised {exc!r}")
    rec.certs[key] = D.certificate_to_json(cert, angles)
    try:
        ok, problems = rec.call("verify", D.verify_certificate, cert, g)
    except Exception as exc:
        rec.fail(key, f"verify raised {exc!r}")
        return
    if not ok:
        rec.fail(key, f"verify failed: {problems}")


def cli_case(case: Case, rec: Recorder, run_cli, workdir: Path) -> None:
    """Run validate, then decide and verify for each type, on the file.

    ``run_cli(argv)`` runs one CLI command and returns (exit code, stdout).
    The certificate goes through a file, as a user's would.
    """
    path = str(case.path)
    code, out = rec.call("validate", run_cli, ["validate", path])
    if code != 0 or "planar_spherical: true" not in out or "three_connected: true" not in out:
        rec.fail(case.key, f"validate exit {code}: {out.strip()!r}")
    for mode, pin in zip(("inscribable", "circumscribable"), case.cli_pins):
        key = f"{case.key} {mode}"
        code, out = rec.call("decide", run_cli, ["decide", f"--{mode}", path, "--format", "json"])
        if code != 0:
            rec.fail(key, f"decide exit {code}", skipped=1)
            continue
        try:
            doc = json.loads(out)
            _check_pin(rec, key, pin, doc["answer"], Fraction(doc["margin"]))
        except (ValueError, KeyError, TypeError) as exc:
            rec.fail(key, f"unreadable certificate: {exc!r}")
        rec.certs[key] = out
        cert_path = workdir / f"{case.name}.{mode}.json"
        cert_path.write_text(out, encoding="utf-8")
        code, out = rec.call("verify", run_cli, ["verify", str(cert_path), path])
        if code != 0 or "verification: PASS" not in out:
            rec.fail(key, f"verify exit {code}: {out.strip()!r}")


def run_pass(workload: str, cases, rec: Recorder, rng: random.Random, run_cli, workdir: Path) -> None:
    """One pass over the cases in a seeded order, on cold caches; records
    its wall time and each case's."""
    order = rng.sample(list(cases), len(cases))
    rec.passes.append({})
    clear_caches()
    start = time.perf_counter()
    for case in order:
        t0 = time.perf_counter()
        if workload == "cli":
            cli_case(case, rec, run_cli, workdir)
        else:
            library_case(case, rec)
        rec.case_walls[case.key] = time.perf_counter() - t0
    rec.walls.append(time.perf_counter() - start)


def in_process_cli(argv) -> tuple[int, str]:
    """Run one CLI command in this interpreter, capturing its output.
    An exception escaping the CLI exits 1, as a traceback would."""
    from inscribe import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception:  # the CLI's own boundary let it through: a failed command
            code = 1
    return code, out.getvalue()
