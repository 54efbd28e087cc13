"""Decide inscribable and circumscribable type of polyhedral graphs.

The decision solves a strict linear feasibility system over the edges of
the graph (or its planar dual) with exact rational arithmetic: weights in
the open interval (0, 1/2), unit face sums, and every non-facial circuit
strictly heavier than 1.  Feasibility is certified by a positive margin;
cut generation keeps the circuit family implicit.
"""

from .decide import (
    Certificate,
    certificate_from_json,
    certificate_to_json,
    decide_circumscribable,
    decide_inscribable,
    dihedral_angles,
    verify_certificate,
)
from .errors import (
    EmbeddingError,
    EulerError,
    FormatError,
    GraphError,
    InternalError,
    NotThreeConnectedError,
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
    require_polyhedral,
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
    all_nonfacial_circuits,
    brute_force_min_nonfacial,
    min_cycle_through_edge,
    min_nonfacial_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ConstraintSystem",
    "DualPair",
    "EmbeddingError",
    "EulerError",
    "Face",
    "FormatError",
    "GraphError",
    "InternalError",
    "MarginSolution",
    "NotThreeConnectedError",
    "PolyhedralGraph",
    "Row",
    "SteinitzReport",
    "add_circuit_constraint",
    "all_nonfacial_circuits",
    "brute_force_min_nonfacial",
    "certificate_from_json",
    "certificate_to_json",
    "decide_circumscribable",
    "decide_inscribable",
    "dihedral_angles",
    "dual",
    "edge_faces",
    "euler_characteristic",
    "format_graph",
    "generate",
    "is_k_vertex_connected",
    "kleetope",
    "maximize_margin",
    "min_cycle_through_edge",
    "min_nonfacial_circuit",
    "new_system",
    "parse_graph",
    "require_polyhedral",
    "stack_on_faces",
    "trace_faces",
    "validate_steinitz",
    "verify_certificate",
]
