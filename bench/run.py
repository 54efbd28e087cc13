"""Benchmark of inscribe: end-to-end metrics, or per-layer ones with --trace 1.

Usage, from the root of a checkout::

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

A timed run (``--trace 0``) sets up the workload several times in fresh
interpreters (``setup_s``), then repeats whole passes over the workload's
operations, each on cold caches, until ``--seconds`` have passed.  A
traced run (``--trace 1``) makes one traced pass and reports its
per-layer metrics, then reruns its cases untraced to measure the tracing
overhead and to check that the certificates are unchanged.  Every answer
is checked; a wrong one counts as a failed operation.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The inscribe sources must be under ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 3
IMPORT_PROBES = 3
SUBPROCESS_TIMEOUT = 150


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile of the values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(per_pass: int) -> int:
    """Highest whole percentile leaving at least 10 of one pass's samples
    beyond it; a pass with 20 samples or fewer reports its maximum."""
    if per_pass <= 20:
        return 100
    return math.floor(100 * (1 - 10 / per_pass))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_subprocess(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=child_env(), timeout=SUBPROCESS_TIMEOUT, cwd=ROOT,
    )
    return time.perf_counter() - t0, proc


def subprocess_cli(argv: list[str]) -> tuple[int, str]:
    """Run one command as a user does: a whole ``python -m inscribe.cli``.
    A command that outlives the timeout is killed and reported as exit -1."""
    try:
        _, proc = timed_subprocess([sys.executable, "-m", "inscribe.cli", *argv])
    except subprocess.TimeoutExpired:
        return -1, ""
    return proc.returncode, proc.stdout


def setup_probe(workload: str) -> float:
    """Seconds a fresh interpreter spends importing inscribe and building
    the workload's inputs, as measured inside it."""
    _, proc = timed_subprocess([sys.executable, str(BENCH / "setup_probe.py"), workload])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def import_probe() -> float:
    """cli.import_s: a fresh interpreter importing inscribe.cli, minus a
    bare one; medians of alternating samples."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(timed_subprocess([sys.executable, "-c", "pass"])[0])
        full.append(timed_subprocess([sys.executable, "-c", "import inscribe.cli"])[0])
    return statistics.median(full) - statistics.median(bare)


def peak_rss_mb() -> float:
    """Peak resident memory of the run's largest process (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def pass_latencies(samples: dict[str, list[float]]) -> dict[str, float]:
    """Latency percentiles of one pass."""
    decide = samples["decide"]
    calls = [x for xs in samples.values() for x in xs]
    return {
        "decide_s.p50": percentile(decide, 50),
        "decide_s.tail": percentile(decide, tail_percentile(len(decide))),
        "verify_s.p50": percentile(samples["verify"], 50),
        "call_s.p50": percentile(calls, 50),
        "call_s.tail": percentile(calls, tail_percentile(len(calls))),
    }


def end_to_end(rec, setup: list[float]) -> dict[str, float]:
    """Each timing is the median over the run's passes (or set-ups)."""
    per_pass = [pass_latencies(samples) for samples in rec.passes]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update({
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rec.walls),
        "ok_ratio": 1 - rec.failed / rec.attempted,
        "peak_rss_mb": peak_rss_mb(),
    })
    return metrics


def timed_run(W, workload: str, seed: int, seconds: float, workdir: Path):
    setup = [setup_probe(workload) for _ in range(SETUP_PROBES)]
    cases = W.build(workload, ROOT)
    rng = random.Random(seed)
    rec = W.Recorder()
    start = time.perf_counter()
    while True:
        W.run_pass(workload, cases, rec, rng, subprocess_cli, workdir)
        if time.perf_counter() - start >= seconds:
            break
    return rec, end_to_end(rec, setup)


def traced_run(W, workload: str, seed: int, workdir: Path):
    from spans import GENERATORS, Tracer, layer_metrics, outermost_total

    import_s = import_probe()
    cases = W.build(workload, ROOT)
    tracer = Tracer()
    tracer.install()
    try:
        setup_start = tracer.mark()
        W.build(workload, ROOT)
        pass_start = tracer.mark()
        traced = W.Recorder()
        # The CLI runs in this interpreter, so that the wrappers see its calls.
        W.run_pass(workload, cases, traced, random.Random(seed), W.in_process_cli, workdir)
        # run_pass cleared the caches, and with them their statistics.
        faces = W.FACES_CACHE.cache_info()
        pass_end = tracer.mark()
    finally:
        tracer.uninstall()

    # Untraced reference: the same cases again, except one that took over
    # three quarters of the traced pass (kleetope(bipyramid) 3 of
    # no-instances, at about 90%), which keeps a traced run under 1.75 passes.
    limit = 0.75 * traced.walls[0]
    plain = W.Recorder()
    rerun = [case for case in cases if traced.case_walls[case.key] <= limit]
    W.run_pass(workload, rerun, plain, random.Random(seed), W.in_process_cli, workdir)
    for key, text in plain.certs.items():
        if traced.certs.get(key) != text:
            traced.fail(key, "certificate JSON differs between the traced and the untraced pass")
    overhead = sum(traced.case_walls[k] - plain.case_walls[k] for k in plain.case_walls)

    spans = tracer.spans
    metrics = layer_metrics(spans, pass_start, pass_end)
    lookups = faces.hits + faces.misses
    metrics.update({
        "graph.faces.hit_ratio": faces.hits / lookups if lookups else 0.0,
        "cli.import_s": import_s,
        "generators.generate_s": outermost_total(spans, setup_start, pass_start, GENERATORS),
        "trace.wall_s": traced.walls[0],
        "trace.overhead_s": overhead,
    })
    tracer.write(ROOT / ".bench_trace" / f"{workload}-seed{seed}.jsonl")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems += plain.problems
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "inscribe" / "__init__.py").is_file():
        print(f"error: no inscribe package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inscribe
    import workloads as W

    if Path(inscribe.__file__).resolve().parent != SRC / "inscribe":
        print(f"error: imported inscribe from {inscribe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {W.WORKLOADS}", file=sys.stderr)
        return 2

    end_to_end_units, per_layer_units = declared_units()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        if args.trace:
            rec, values = traced_run(W, args.workload, args.seed, Path(tmp))
            units = per_layer_units
        else:
            rec, values = timed_run(W, args.workload, args.seed, args.seconds, Path(tmp))
            units = end_to_end_units
    for problem in rec.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name in units:
        print(f"{name} = {values[name]} {units[name]}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    # Stopped from outside: unwind, so that a running subprocess is killed
    # and waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
