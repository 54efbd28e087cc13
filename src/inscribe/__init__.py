"""Decide inscribable and circumscribable type of polyhedral graphs.

The decision solves a strict linear feasibility system over the edges of
the graph (or its planar dual) with exact rational arithmetic: weights in
the open interval (0, 1/2), unit face sums, and every non-facial circuit
strictly heavier than 1.  Feasibility is certified by a positive margin;
cut generation keeps the circuit family implicit.
"""

from .decide import (
    Certificate,
    DihedralAngles,
    certificate_from_json,
    certificate_to_json,
    decide_circumscribable,
    decide_inscribable,
    dihedral_angles,
    fast_path_four_connected,
    solve_full_enumeration,
    verify_certificate,
)
from .errors import (
    DuplicateCircuitError,
    EmbeddingError,
    EulerError,
    FormatError,
    GraphError,
    InternalError,
    IterationLimitError,
    NotThreeConnectedError,
    VertexCapError,
)
from .generators import generate, kleetope, stack_on_faces
from .graph import (
    DualPair,
    Face,
    PolyhedralGraph,
    SteinitzReport,
    dual,
    edge_faces,
    euler_characteristic,
    format_graph,
    is_k_vertex_connected,
    parse_graph,
    trace_faces,
    validate_steinitz,
)
from .lp import (
    ConstraintSystem,
    MarginSolution,
    Row,
    add_circuit_constraint,
    maximize_margin,
    new_system,
)
from .separation import (
    Circuit,
    ConditionReport,
    WeightVector,
    all_nonfacial_circuits,
    brute_force_min_nonfacial,
    check_conditions,
    min_cycle_through_edge,
    min_nonfacial_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Circuit",
    "ConditionReport",
    "ConstraintSystem",
    "DihedralAngles",
    "DualPair",
    "DuplicateCircuitError",
    "EmbeddingError",
    "EulerError",
    "Face",
    "FormatError",
    "GraphError",
    "InternalError",
    "IterationLimitError",
    "MarginSolution",
    "NotThreeConnectedError",
    "PolyhedralGraph",
    "Row",
    "SteinitzReport",
    "VertexCapError",
    "WeightVector",
    "add_circuit_constraint",
    "all_nonfacial_circuits",
    "brute_force_min_nonfacial",
    "certificate_from_json",
    "certificate_to_json",
    "check_conditions",
    "decide_circumscribable",
    "decide_inscribable",
    "dihedral_angles",
    "dual",
    "edge_faces",
    "euler_characteristic",
    "fast_path_four_connected",
    "format_graph",
    "generate",
    "is_k_vertex_connected",
    "kleetope",
    "maximize_margin",
    "min_cycle_through_edge",
    "min_nonfacial_circuit",
    "new_system",
    "parse_graph",
    "solve_full_enumeration",
    "stack_on_faces",
    "trace_faces",
    "validate_steinitz",
    "verify_certificate",
]
