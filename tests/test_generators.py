import hashlib
import re

import pytest

from inscribe import (
    EmbeddingError,
    GraphError,
    PolyhedralGraph,
    format_graph,
    generate,
    kleetope,
    parse_graph,
    stack_on_faces,
    trace_faces,
    validate_steinitz,
)
from inscribe.generators import _SIZED, FAMILIES, from_oriented_faces


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


@pytest.mark.parametrize(
    "vertex_count,faces,message",
    [
        (3, [(0, 1)], "face with fewer than 3 vertices"),
        (3, [(0, 1, 5)], "face vertex 5 out of range"),
        (3, [(0, 1, 2), (0, 1, 2)], "directed edge 2->0 used by more than one face"),
        (4, [(0, 1, 2), (0, 2, 1)], "vertex 3 lies on no face"),
        (3, [(0, 1, 2)], "faces do not close up into a disk around vertex 0"),
        (
            5,
            [(0, 1, 2), (0, 2, 1), (0, 3, 4), (0, 4, 3)],
            "faces around vertex 0 split into several cycles",
        ),
    ],
)
def test_from_oriented_faces_rejections(vertex_count, faces, message):
    with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
        from_oriented_faces(vertex_count, faces)


def test_stack_on_faces_rejections():
    # two triangles sharing vertex 0: face 0 passes through it twice
    bowtie = PolyhedralGraph.from_neighbor_rotations(
        [[1, 2, 3, 4], [0, 2], [1, 0], [0, 4], [3, 0]]
    )
    message = "directed edge 5->0 used by more than one face"
    with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
        stack_on_faces(bowtie, [0])
    with pytest.raises(GraphError, match="^face id 9 out of range$"):
        stack_on_faces(bowtie, [9])


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


@pytest.mark.parametrize(
    "family,n,message",
    [
        ("hypercube", None, "unknown family 'hypercube'"),
        # an unknown name is reported before its size is looked at
        ("hypercube", 4, "unknown family 'hypercube'"),
        ("hypercube", 2, "unknown family 'hypercube'"),
        # the message quotes the name as given, not as normalised
        (" Hypercube ", None, "unknown family ' Hypercube '"),
        ("kleetope(hypercube)", None, "unknown family 'hypercube'"),
        ("kleetope(hypercube)", 3, "unknown family 'hypercube'"),
    ],
)
def test_unknown_family(family, n, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        generate(family, n)


@pytest.mark.parametrize(
    "family,n,message",
    [
        ("prism", None, "family 'prism' needs a size argument"),
        ("Prism", None, "family 'prism' needs a size argument"),
        ("kleetope(prism)", None, "family 'prism' needs a size argument"),
        ("antiprism", 2, "family 'antiprism' needs n >= 3, got 2"),
        ("wheel", -1, "family 'wheel' needs n >= 3, got -1"),
        ("kleetope(bipyramid)", 2, "family 'bipyramid' needs n >= 3, got 2"),
        ("cube", 4, "family 'cube' takes no size argument"),
        ("kleetope(cube)", 4, "family 'cube' takes no size argument"),
        ("tetrahedron", 2, "family 'tetrahedron' takes no size argument"),
    ],
)
def test_size_validation(family, n, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        generate(family, n)


def test_family_order():
    assert FAMILIES == (
        "tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron",
        "prism", "antiprism", "wheel", "pyramid", "bipyramid",
    )
    assert set(_SIZED) == {"prism", "antiprism", "wheel", "pyramid", "bipyramid"}


# sha256 of format_graph(generate(name, n)): each fixed solid, each sized
# family at n = 3..8, and the kleetope of each
GENERATED_SHA256 = {
    ("tetrahedron", None): "cd973e40159170a471d771f391b1ea0d2a96bd4af68557b59111498c94ad1dd7",
    ("kleetope(tetrahedron)", None): "d5cdb57eb97a30d626412236c5e439efdb665250bdd626c18f6fb75ef37afee5",
    ("cube", None): "3a076ebb92728785d095992e731708f9ac6aa7f4debc18e75b94fe6464fc6fd8",
    ("kleetope(cube)", None): "d46e98e6b7f8c9fe420969f98122393e0216cb4a23f8b71ddda3bb1767136f55",
    ("octahedron", None): "a6be30eb8f7b67e338bd8c70e78c98ab7cf85f2629e85b828c83c757a5da7e37",
    ("kleetope(octahedron)", None): "a1acfbd29f64e671c329ec7ed9e916a5328fdcf8a0deac5c46dbc6aa29c09c23",
    ("dodecahedron", None): "bfcdcf2a869fb6172465e1ac12cbd3aaacab48b107552a6b15c443f60d7ba7a9",
    ("kleetope(dodecahedron)", None): "ad0d3a1f3b4befd9c24255ec343d5b3c04a28ebbb1f3fcc59fbf4f00a9ed4fd7",
    ("icosahedron", None): "06fb02b0f159799ed164af27457166fc51b0fe0e65eb66e1fffb6430b2cc3b24",
    ("kleetope(icosahedron)", None): "523a078550d68a4804c8b8c545fcff0917e57796151fd671c55f20efc86e851a",
    ("prism", 3): "17338f79e864a07fe205a18d470d919abf753544ddb89e5d8de9e370e8c3afe7",
    ("kleetope(prism)", 3): "fd76164ca6afc10bb9c577eee1754175c5247cd82802203e62d3bd05ac43b2c3",
    ("prism", 4): "3a076ebb92728785d095992e731708f9ac6aa7f4debc18e75b94fe6464fc6fd8",
    ("kleetope(prism)", 4): "d46e98e6b7f8c9fe420969f98122393e0216cb4a23f8b71ddda3bb1767136f55",
    ("prism", 5): "9f30abd776fb7e1211d3e4233c7baece617cbd1169d69cf6e21f84635434fc92",
    ("kleetope(prism)", 5): "cb1591c9f3fd760f4741bff68dfabc9ca8bd74d0fb32eea94b07f68e8a900fc6",
    ("prism", 6): "b7f94ef89bf669c81bb68013db9a5e70fdd2df066c4c495a80dceceff7a8d2f0",
    ("kleetope(prism)", 6): "08308bd947ab9641206e0dbd34a5a9a046668ad1df154e56327c60278d959551",
    ("prism", 7): "1ae9ec1d58fdd7eea978861372fe861c3a920c0473a4093cf5a8a0abd25747b6",
    ("kleetope(prism)", 7): "ff44a804316175e55e49f339ffcc7aa92ff0340c4b6eab248d7b8d6563f5b32a",
    ("prism", 8): "e6d10cb03a0fb75f448e3c1183d3be803904fd350fd47209aca38a9525972752",
    ("kleetope(prism)", 8): "554bec82c263ba06fa4bb7db919d31fb3e5dd3023108acc6c416f669a5a52120",
    ("antiprism", 3): "a6be30eb8f7b67e338bd8c70e78c98ab7cf85f2629e85b828c83c757a5da7e37",
    ("kleetope(antiprism)", 3): "a1acfbd29f64e671c329ec7ed9e916a5328fdcf8a0deac5c46dbc6aa29c09c23",
    ("antiprism", 4): "74d61929af957248fce082cbfdcc25caa0cade58d9c920f3db4df1b0c46112d7",
    ("kleetope(antiprism)", 4): "cce9b1a0da777717c0f47c518bda85ab62d9c61f5408a1b36664fe8a0cd421e9",
    ("antiprism", 5): "6035634583b247acb64f33f3812c8a7802fb31d3d0d64bcaa6ee9503d9808fd4",
    ("kleetope(antiprism)", 5): "f10e0bf961e1e6364435b28e1480260add14363a20246c647017d4314dd9095a",
    ("antiprism", 6): "a4aef8b0cd69ace7cac55b0e970d9ac771beb7d921e19b3ea495d69333b171e3",
    ("kleetope(antiprism)", 6): "e26fe73f2419e91f3b7cd0b4234316f02c0ca3af3d5d4e636d04d0ec6d6de387",
    ("antiprism", 7): "f09a16a103aa59b10279bcc4d8ebcb1128d9a02dfbef2b536965235f0259f145",
    ("kleetope(antiprism)", 7): "623b358f716b0087492814483c1da9824156d072da4f1041517c40a6cf3e1cd8",
    ("antiprism", 8): "40dfb527d5bf446e56931d4ef520386a101ff329200704c529072a847f60587c",
    ("kleetope(antiprism)", 8): "09c0dc64e18c6973b9f0f434949dadb7ab9f4bf2c5e91d2d8ab92406a6c2ae73",
    ("wheel", 3): "cd973e40159170a471d771f391b1ea0d2a96bd4af68557b59111498c94ad1dd7",
    ("kleetope(wheel)", 3): "d5cdb57eb97a30d626412236c5e439efdb665250bdd626c18f6fb75ef37afee5",
    ("wheel", 4): "4a19929f2a4b71e0a4e66455c2e05a9b488b164db270b80f4fabbe4df97cf7ea",
    ("kleetope(wheel)", 4): "40c2b312c37911e770968316258f4840dc6a3aab546160c533b21ceabf276b87",
    ("wheel", 5): "f035d6b7d54d120d64f1f7ad8883b1f5447fdc04b26969fdb46324a01f9caac3",
    ("kleetope(wheel)", 5): "b86c0c72e473ff5e5fa01c4346c9b4a826f68bed390d70b74f0322431f50562c",
    ("wheel", 6): "0e219042cc1f0147289e75c2f3b23e005102ec2d7b27d4d94fe0a6d471d57d5a",
    ("kleetope(wheel)", 6): "1ed51f67b7a4fe775a2925cc2f609c6d50945dfc74886c07a17cf90c80114401",
    ("wheel", 7): "06943aaefe9e2f7d9bc46c0b89b1b849fd652b6b0fb6966b20fc6c3fc54cf57b",
    ("kleetope(wheel)", 7): "e07e980efed493d6ddf94ea65b5730a4152c6b1540820b91051af9a0e2886fff",
    ("wheel", 8): "787801e0858d68213e2a5cd63b27f1f0707af87d5783919682be9635c91f1a1e",
    ("kleetope(wheel)", 8): "02df40d7a56abbae150ad7797f1b1309ead6b74dd6760c9b79e884ca02e3edb7",
    ("pyramid", 3): "cd973e40159170a471d771f391b1ea0d2a96bd4af68557b59111498c94ad1dd7",
    ("kleetope(pyramid)", 3): "d5cdb57eb97a30d626412236c5e439efdb665250bdd626c18f6fb75ef37afee5",
    ("pyramid", 4): "4a19929f2a4b71e0a4e66455c2e05a9b488b164db270b80f4fabbe4df97cf7ea",
    ("kleetope(pyramid)", 4): "40c2b312c37911e770968316258f4840dc6a3aab546160c533b21ceabf276b87",
    ("pyramid", 5): "f035d6b7d54d120d64f1f7ad8883b1f5447fdc04b26969fdb46324a01f9caac3",
    ("kleetope(pyramid)", 5): "b86c0c72e473ff5e5fa01c4346c9b4a826f68bed390d70b74f0322431f50562c",
    ("pyramid", 6): "0e219042cc1f0147289e75c2f3b23e005102ec2d7b27d4d94fe0a6d471d57d5a",
    ("kleetope(pyramid)", 6): "1ed51f67b7a4fe775a2925cc2f609c6d50945dfc74886c07a17cf90c80114401",
    ("pyramid", 7): "06943aaefe9e2f7d9bc46c0b89b1b849fd652b6b0fb6966b20fc6c3fc54cf57b",
    ("kleetope(pyramid)", 7): "e07e980efed493d6ddf94ea65b5730a4152c6b1540820b91051af9a0e2886fff",
    ("pyramid", 8): "787801e0858d68213e2a5cd63b27f1f0707af87d5783919682be9635c91f1a1e",
    ("kleetope(pyramid)", 8): "02df40d7a56abbae150ad7797f1b1309ead6b74dd6760c9b79e884ca02e3edb7",
    ("bipyramid", 3): "b492fcd78130bce0b3a2d7a0c203f8a40c11274ba4625fb2ddac30a429843808",
    ("kleetope(bipyramid)", 3): "db125624c82f663c5c052a900e348fe8c9d56cb4156a88722494f957fbbd988f",
    ("bipyramid", 4): "689b01f990bce3160bee96171f41eb677bf3998ba593a27163b68a652cc405de",
    ("kleetope(bipyramid)", 4): "9406bce9912ae979965683d8be264df7d363e9726a894309a033dbdc95460bc9",
    ("bipyramid", 5): "053ea8373c3b005aebba9a11b76aa8b4a996b5acf530610242ed10f739a633aa",
    ("kleetope(bipyramid)", 5): "9311310460519712f918bd6caba21108d7a4e507dd1c38788652b002a0563f0b",
    ("bipyramid", 6): "8f34ceac8cb3428819a32cc8b45f85dd5a9c0f2d5c5a7616e202123971727093",
    ("kleetope(bipyramid)", 6): "9f009c37d9ff62be49f58386bdbc20a4477e1846771d89f8943bc8a4f828e95c",
    ("bipyramid", 7): "19c31b64aec4ab3236133bead570f96e557df4f605e47457eb804b5853b82348",
    ("kleetope(bipyramid)", 7): "5bf687f2f5d0f405155d42c735a960f65bc3435fe63a1675473d87887dd23498",
    ("bipyramid", 8): "603a12599d8be45ddfdc3dbc089afd919a49a938ad0d4bcfa9514f8f3134f12d",
    ("kleetope(bipyramid)", 8): "0d6c4bdc1e08613fcde0ad5b84e6dea7f9357edb503b4f3d9c0ff36e39567b06",
}


def test_generated_graphs_are_pinned():
    sized = [(fam, n) for fam in FAMILIES if fam in _SIZED for n in range(3, 9)]
    fixed = [(fam, None) for fam in FAMILIES if fam not in _SIZED]
    expected = {(name, n) for fam, n in fixed + sized for name in (fam, f"kleetope({fam})")}
    assert GENERATED_SHA256.keys() == expected
    for (name, n), digest in GENERATED_SHA256.items():
        text = format_graph(generate(name, n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, n)
