import ast
import sys
from pathlib import Path

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


SRC = Path(inscribe.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name a module reads: bare names, attributes and the names
    that a from-import takes from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = MODULES[module]
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    assert {name: line for name, line in imported.items() if name not in read} == {}


def test_every_private_module_name_is_read():
    private = {}
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                if name.startswith("_") and not name.startswith("__"):
                    private[name] = module
    read = set().union(*map(_loaded_names, MODULES.values()))
    assert {name: module for name, module in private.items() if name not in read} == {}


TESTS = Path(__file__).parent


def test_imports_name_only_the_standard_library_pytest_and_the_project():
    # deciding needs nothing but Python, and the tests only pytest
    allowed = sys.stdlib_module_names | {"pytest", "inscribe"}
    allowed |= {path.stem for path in TESTS.glob("*.py")}
    foreign = {}
    for path in [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in allowed:
                    foreign[f"{path.parent.name}/{path.name}:{node.lineno}"] = name
    assert foreign == {}
