"""Spans around calls into the public functions of each inscribe layer.

The wrappers live in the benchmark, not in the program: ``Tracer.install``
replaces each traced function under every name a module of the package
binds it to (consumer modules import them by name, so patching only the
defining module would miss their calls), and ``uninstall`` puts the
originals back.  Spans are kept in memory as (name, start, end, parent,
note) and written out once, at the end of the traced run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

# Traced public functions: defining module -> names.
TRACED = {
    "inscribe.graph": (
        "parse_graph", "validate_steinitz", "is_k_vertex_connected", "trace_faces", "dual",
    ),
    "inscribe.generators": ("generate", "stack_on_faces", "kleetope"),
    "inscribe.lp": ("new_system", "add_circuit_constraint", "maximize_margin"),
    "inscribe.separation": (
        "min_nonfacial_circuit", "min_cycle_through_edge", "brute_force_min_nonfacial",
    ),
    "inscribe.decide": (
        "decide_inscribable", "decide_circumscribable", "verify_certificate",
        "dihedral_angles", "certificate_to_json", "certificate_from_json",
    ),
}

# Modules whose bindings of the traced names are replaced.
CONSUMERS = (
    "inscribe", "inscribe.graph", "inscribe.generators", "inscribe.lp",
    "inscribe.separation", "inscribe.decide", "inscribe.cli",
)

DECIDE = ("decide_inscribable", "decide_circumscribable")
GENERATORS = TRACED["inscribe.generators"]


def _denominator_bits(solution) -> int:
    if solution.status != "optimal":
        return 0
    values = (solution.margin, *solution.weights)
    return max(x.denominator.bit_length() for x in values)


# Per-call facts taken from arguments and results: name -> note(args, result).
NOTES = {
    "maximize_margin": lambda args, r: (len(args[0].rows), args[0].variable_count, _denominator_bits(r)),
    "decide_circumscribable": lambda args, r: (r.iterations, len(r.cuts)),
    "certificate_to_json": lambda args, r: (len(r.encode("utf-8")),),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        consumers = [importlib.import_module(m) for m in CONSUMERS]
        for module_name, names in TRACED.items():
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(name, original)
                for consumer in consumers:
                    if getattr(consumer, name, None) is original:
                        self._saved.append((consumer, name, original))
                        setattr(consumer, name, wrapper)

    def uninstall(self) -> None:
        for consumer, name, original in reversed(self._saved):
            setattr(consumer, name, original)
        self._saved.clear()

    def mark(self) -> int:
        """Index of the next span, to split the spans into phases."""
        return len(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps([name, start, end, parent, note]) + "\n")


def layer_metrics(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer totals over spans[first:last], one traced pass."""
    children: dict[int, float] = {}
    for i in range(first, last):
        parent = spans[i][3]
        if parent >= first:
            children[parent] = children.get(parent, 0.0) + spans[i][2] - spans[i][1]

    def under_decide(i: int) -> bool:
        return _has_ancestor(spans, i, first, DECIDE)

    by_name: dict[str, list[int]] = {}
    for i in range(first, last):
        by_name.setdefault(spans[i][0], []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(*names):
        return sum((spans[i][2] - spans[i][1] for n in names for i in ids(n)), 0.0)

    def count(*names):
        return sum(len(ids(n)) for n in names)

    solves = ids("maximize_margin")
    solve_times = [spans[i][2] - spans[i][1] for i in solves]
    notes = [spans[i][4] for i in solves if spans[i][4] is not None]
    decisions = [spans[i][4] for i in ids("decide_circumscribable") if spans[i][4] is not None]
    cuts = sum(c for _, c in decisions)
    outer_decide = [i for n in DECIDE for i in ids(n) if not under_decide(i)]
    decide_time = sum(spans[i][2] - spans[i][1] for i in outer_decide)
    lp_in_decide = sum(spans[i][2] - spans[i][1] for i in solves if under_decide(i))
    oracle_in_decide = sum(
        1 for n in ("min_nonfacial_circuit", "brute_force_min_nonfacial")
        for i in ids(n) if under_decide(i)
    )
    return {
        "lp.solve_s": sum(solve_times),
        "lp.solves": len(solves),
        "lp.solve_s.p50": statistics.median(solve_times) if solve_times else 0.0,
        "lp.rows.max": max((r for r, _, _ in notes), default=0),
        "lp.cols": max((c for _, c, _ in notes), default=0),
        "lp.margin_bits.max": max((b for _, _, b in notes), default=0),
        "lp.build_s": total("new_system", "add_circuit_constraint"),
        "lp.decide_share": lp_in_decide / decide_time if decide_time else 0.0,
        "decide.rounds": sum(r for r, _ in decisions),
        "decide.cuts": cuts,
        "decide.self_s": sum(
            spans[i][2] - spans[i][1] - children.get(i, 0.0) for n in DECIDE for i in ids(n)
        ),
        "decide.cert_json_s": total("certificate_to_json"),
        "decide.cert_bytes": sum(spans[i][4][0] for i in ids("certificate_to_json")),
        "separation.cut_ratio": cuts / oracle_in_decide if oracle_in_decide else 0.0,
        "separation.oracle_s": total("min_nonfacial_circuit"),
        "separation.oracle.calls": count("min_nonfacial_circuit"),
        "separation.paths_s": total("min_cycle_through_edge"),
        "separation.paths.calls": count("min_cycle_through_edge"),
        "separation.bruteforce_s": total("brute_force_min_nonfacial"),
        "separation.bruteforce.calls": count("brute_force_min_nonfacial"),
        "graph.parse_s": total("parse_graph"),
        "graph.validate_s": total("validate_steinitz"),
        "graph.validate.calls": count("validate_steinitz"),
        "graph.kconn_s": total("is_k_vertex_connected"),
        "graph.faces.calls": count("trace_faces"),
        "graph.dual_s": total("dual"),
        "graph.dual.calls": count("dual"),
    }


def _has_ancestor(spans: list[list], i: int, first: int, names) -> bool:
    parent = spans[i][3]
    while parent >= first:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def outermost_total(spans: list[list], first: int, last: int, names) -> float:
    """Time inside spans named in ``names`` that have no such ancestor."""
    return sum(
        (spans[i][2] - spans[i][1] for i in range(first, last)
         if spans[i][0] in names and not _has_ancestor(spans, i, first, names)),
        0.0,
    )
