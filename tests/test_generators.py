import pytest

from inscribe import (
    GraphError,
    format_graph,
    generate,
    kleetope,
    parse_graph,
    stack_on_faces,
    trace_faces,
    validate_steinitz,
)
from inscribe.generators import _SIZED, FAMILIES


@pytest.mark.parametrize(
    "family,n,v,e,f",
    [
        ("tetrahedron", None, 4, 6, 4),
        ("cube", None, 8, 12, 6),
        ("octahedron", None, 6, 12, 8),
        ("dodecahedron", None, 20, 30, 12),
        ("icosahedron", None, 12, 30, 20),
        ("prism", 3, 6, 9, 5),
        ("prism", 8, 16, 24, 10),
        ("antiprism", 4, 8, 16, 10),
        ("wheel", 5, 6, 10, 6),
        ("pyramid", 5, 6, 10, 6),
        ("bipyramid", 6, 8, 18, 12),
        ("kleetope(tetrahedron)", None, 8, 18, 12),
        ("kleetope(cube)", None, 14, 36, 24),
    ],
)
def test_family_counts(family, n, v, e, f):
    g = generate(family, n)
    assert g.vertex_count == v
    assert g.edge_count == e
    assert len(trace_faces(g)) == f


@pytest.mark.parametrize("family", FAMILIES)
def test_generators_pass_validation(family):
    # generate does not check its own output, so every size it is asked
    # for here, and the kleetope of each, is checked exhaustively
    sizes = range(3, 11) if family in _SIZED else [None]
    for n in sizes:
        for name in (family, f"kleetope({family})"):
            report = validate_steinitz(generate(name, n))
            assert report.planar_spherical and report.three_connected, (name, n)


def test_platonic_regularity():
    icosa = generate("icosahedron")
    assert all(icosa.degree(v) == 5 for v in range(12))
    assert all(f.degree == 3 for f in trace_faces(icosa))
    dodeca = generate("dodecahedron")
    assert all(dodeca.degree(v) == 3 for v in range(20))
    assert all(f.degree == 5 for f in trace_faces(dodeca))


def test_output_reparses_identically():
    for family, n in [("bipyramid", 7), ("kleetope(tetrahedron)", None), ("dodecahedron", None)]:
        g = generate(family, n)
        assert parse_graph(format_graph(g)) == g


def test_deterministic():
    assert generate("antiprism", 6) == generate("antiprism", 6)
    assert generate("kleetope(prism)", 4) == generate("kleetope(prism)", 4)


def test_kleetope_matches_stack_on_all_faces():
    base = generate("cube")
    assert kleetope(base) == stack_on_faces(base, range(len(trace_faces(base))))


def test_stack_on_one_face():
    base = generate("cube")
    g = stack_on_faces(base, [0])
    assert g.vertex_count == 9
    assert g.edge_count == 16
    assert len(trace_faces(g)) == 9
    assert validate_steinitz(g).is_polyhedral


def test_shipped_corpus_files_match_generators():
    import pathlib

    corpus_dir = pathlib.Path(__file__).resolve().parent.parent / "corpus"
    expected = {
        "tetrahedron.pg": ("tetrahedron", None),
        "cube.pg": ("cube", None),
        "octahedron.pg": ("octahedron", None),
        "dodecahedron.pg": ("dodecahedron", None),
        "icosahedron.pg": ("icosahedron", None),
        "antiprism_4.pg": ("antiprism", 4),
        "kleetope_tetrahedron.pg": ("kleetope(tetrahedron)", None),
    }
    for fname, (fam, n) in expected.items():
        text = (corpus_dir / fname).read_text()
        assert text == format_graph(generate(fam, n)), fname


def test_unknown_family():
    with pytest.raises(GraphError):
        generate("hypercube")


def test_size_validation():
    with pytest.raises(GraphError):
        generate("prism")
    with pytest.raises(GraphError):
        generate("antiprism", 2)
    with pytest.raises(GraphError):
        generate("cube", 4)
