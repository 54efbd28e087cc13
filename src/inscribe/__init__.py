"""Decide inscribable and circumscribable type of polyhedral graphs.

The decision solves a strict linear feasibility system over the edges of
the graph (or its planar dual) with exact rational arithmetic: weights in
the open interval (0, 1/2), unit face sums, and every non-facial circuit
strictly heavier than 1.  Feasibility is certified by a positive margin;
cut generation keeps the circuit family implicit.

Importing the package loads none of its modules: each public name is
loaded from its module the first time it is asked for (PEP 562), so a
command that never decides never compiles the LP or the oracle.
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed once under the module that defines it.
_EXPORTS = {
    "decide": (
        "Certificate",
        "certificate_from_json",
        "certificate_to_json",
        "decide_circumscribable",
        "decide_inscribable",
        "dihedral_angles",
        "verify_certificate",
    ),
    "errors": (
        "EmbeddingError",
        "EulerError",
        "FormatError",
        "GraphError",
        "InternalError",
        "NotThreeConnectedError",
    ),
    "generators": ("generate", "kleetope", "stack_on_faces"),
    "graph": (
        "DualPair",
        "Face",
        "PolyhedralGraph",
        "SteinitzReport",
        "dual",
        "edge_faces",
        "euler_characteristic",
        "format_graph",
        "is_k_vertex_connected",
        "parse_graph",
        "require_polyhedral",
        "trace_faces",
        "validate_steinitz",
    ),
    "lp": (
        "ConstraintSystem",
        "MarginSolution",
        "Row",
        "add_circuit_constraint",
        "maximize_margin",
        "new_system",
    ),
    "separation": (
        "all_nonfacial_circuits",
        "brute_force_min_nonfacial",
        "min_cycle_through_edge",
        "min_nonfacial_circuit",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
