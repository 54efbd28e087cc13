import pytest

import inscribe

# a new public name must change this list
PUBLIC = [
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


def test_public_names_are_pinned_and_import():
    assert inscribe.__all__ == PUBLIC == sorted(PUBLIC)
    for name in PUBLIC:
        getattr(inscribe, name)


def test_names_load_from_their_modules_on_first_use():
    namespace = {}
    exec("from inscribe import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    assert namespace["decide_inscribable"] is inscribe.decide.decide_inscribable
    assert set(PUBLIC) <= set(dir(inscribe))
    # no public name is a submodule's, so these import the submodule
    from inscribe import decide as D
    assert D.__name__ == "inscribe.decide"
    with pytest.raises(AttributeError, match="no_such_name"):
        inscribe.no_such_name
