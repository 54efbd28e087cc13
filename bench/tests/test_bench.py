"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest -q bench/tests
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as W  # noqa: E402
from inscribe import generate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_same_seed_gives_same_stacked_graphs():
    first, again = W.stacked_graphs(5), W.stacked_graphs(5)
    assert [s.record() for s in first] == [s.record() for s in again]
    assert [s.graph for s in first] == [s.graph for s in again]
    assert [s.base for s in first] == [W.graph_name(f, n) for f, n in W.STACKED_BASES]
    for s in first:
        assert s.record()["V"] == s.graph.vertex_count
        assert s.record()["E"] == s.graph.edge_count


def test_every_metric_has_a_valid_name_and_a_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            assert UNIT.fullmatch(m["unit"]), m
    assert {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS)


def test_tail_percentile_leaves_ten_samples_beyond_it():
    for n in (21, 25, 30, 89, 1000):
        q = run.tail_percentile(n)
        assert n * (1 - q / 100) >= 10 > n * (1 - (q + 1) / 100)
    assert run.tail_percentile(20) == 100
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert run.percentile([1.0, 2.0], 100) == 2.0


@pytest.fixture
def tetrahedron_only(monkeypatch):
    # wheel 3 is the tetrahedron again: two cases of equal cost, so that the
    # traced run reruns both untraced (it skips one that dominates the pass).
    cases = tuple(
        W.Case(name, graph=generate(*spec), pin=("yes", "1/6"), angles=True)
        for name, spec in (("tetrahedron", ("tetrahedron",)), ("wheel 3", ("wheel", 3)))
    )
    monkeypatch.setattr(W, "build", lambda workload, root: cases)


def _run(capsys, trace: int) -> tuple[dict, list[str]]:
    code = run.main(["--workload", "corpus", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_smoke_run_on_tetrahedron_prints_every_end_to_end_metric(tetrahedron_only, capsys):
    result, lines = _run(capsys, trace=0)
    units, _ = run.declared_units()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 6  # decide, angles, verify, twice
    assert result["metrics"].keys() == units.keys()
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0, name
        assert f"{name} = {metric['value']} {unit}" in lines


def test_traced_run_on_tetrahedron_reports_every_layer_metric(tetrahedron_only, capsys):
    result, _ = _run(capsys, trace=1)
    _, units = run.declared_units()
    # Both cases ran traced and untraced, with equal certificates.
    assert result["attempted"] == 12
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"].keys() == units.keys()
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["lp.solves"] == 2  # one round each; verifying a yes solves no LP
    assert metrics["decide.rounds"] == 2
    assert metrics["graph.dual.calls"] >= 4  # decide and angles


def test_pinned_mismatch_counts_as_failure():
    rec = W.Recorder()
    case = W.Case("tetrahedron", graph=generate("tetrahedron"), pin=("yes", "1/7"))
    W.run_pass("corpus", [case], rec, random.Random(0), run_cli=None, workdir=None)
    assert rec.attempted == 2 and rec.failed == 1
    assert "pinned yes 1/7" in rec.problems[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_and_shares_from_spans():
    from spans import layer_metrics, outermost_total

    spans = [  # name, start, end, parent, note
        ["decide_inscribable", 0, 10, -1, None],
        ["decide_circumscribable", 1, 9, 0, (2, 1)],
        ["maximize_margin", 2, 6, 1, (5, 3, 2)],
        ["min_nonfacial_circuit", 6, 7, 1, None],
        ["verify_certificate", 10, 12, -1, None],
        ["maximize_margin", 10.5, 11.5, 4, (7, 3, 4)],
        ["generate", 0, 3, -1, None],
        ["kleetope", 0.5, 2, 6, None],
        ["generate", 0.6, 1, 7, None],
    ]
    m = layer_metrics(spans, 0, 6)
    assert m["lp.solve_s"] == 5 and m["lp.solves"] == 2
    assert m["lp.rows.max"] == 7 and m["lp.margin_bits.max"] == 4
    assert m["lp.decide_share"] == 4 / 10  # the verify's solve is outside any decision
    assert m["decide.self_s"] == (10 - 8) + (8 - 4 - 1)
    assert m["decide.rounds"] == 2 and m["decide.cuts"] == 1
    assert m["separation.cut_ratio"] == 1
    assert outermost_total(spans, 6, 9, ("generate", "kleetope")) == 3
