import dataclasses
import random

import pytest
from helpers import corpus, delete_edge, random_stacked_variant

import inscribe.graph as graph_module
from inscribe import (
    DualPair,
    EmbeddingError,
    EulerError,
    FormatError,
    NotThreeConnectedError,
    PolyhedralGraph,
    dual,
    edge_faces,
    euler_characteristic,
    format_graph,
    generate,
    is_k_vertex_connected,
    parse_graph,
    require_polyhedral,
    trace_faces,
    validate_steinitz,
)

TETRAHEDRON_FILE = """\
polygraph 1
vertices 4
v 0: 1 3 2
v 1: 0 2 3
v 2: 0 3 1
v 3: 0 1 2
"""

CUBE_FILE = """\
# unit cube, quadrilateral faces
polygraph 1
vertices 8

v 0: 1 3 4
v 1: 2 0 5
v 2: 3 1 6
v 3: 0 2 7
v 4: 0 7 5
v 5: 1 4 6
v 6: 2 5 7
v 7: 3 6 4
"""


def bowtie() -> PolyhedralGraph:
    # Two triangles sharing vertex 0; planar but with a cut vertex.
    return PolyhedralGraph.from_neighbor_rotations(
        [[1, 2, 3, 4], [0, 2], [1, 0], [0, 4], [3, 0]]
    )


def k5() -> PolyhedralGraph:
    return PolyhedralGraph.from_neighbor_rotations(
        [[v for v in range(5) if v != u] for u in range(5)]
    )


def swapped_prism(n: int) -> PolyhedralGraph:
    """prism n, parsed after two neighbours of vertex 0 are swapped in
    its file: 3-connected, but the rotation is not spherical."""
    lines = format_graph(generate("prism", n)).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("v 0:"))
    words = lines[i].split()
    words[2], words[3] = words[3], words[2]
    lines[i] = " ".join(words)
    return parse_graph("\n".join(lines) + "\n")


class TestParse:
    def test_tetrahedron_file(self):
        g = parse_graph(TETRAHEDRON_FILE)
        assert g.vertex_count == 4
        assert g.edge_count == 6
        assert len(trace_faces(g)) == 4

    def test_cube_file(self):
        g = parse_graph(CUBE_FILE)
        assert g.vertex_count == 8
        assert g.edge_count == 12
        assert len(trace_faces(g)) == 6

    def test_edge_listed_at_one_endpoint_only(self):
        text = "polygraph 1\nvertices 4\nv 0: 1 3 2\nv 1: 0 2 3\nv 2: 0 3 1\nv 3: 0 1\n"
        with pytest.raises(EmbeddingError):
            parse_graph(text)

    def test_loop_rejected(self):
        text = "polygraph 1\nvertices 2\nv 0: 0 1\nv 1: 0\n"
        with pytest.raises(EmbeddingError):
            parse_graph(text)

    def test_parallel_edge_rejected(self):
        text = "polygraph 1\nvertices 3\nv 0: 1 1 2\nv 1: 0 0 2\nv 2: 0 1\n"
        with pytest.raises(EmbeddingError):
            parse_graph(text)

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_graph("polygraph 2\nvertices 1\nv 0:\n")

    def test_missing_vertex_line(self):
        with pytest.raises(FormatError):
            parse_graph("polygraph 1\nvertices 3\nv 0: 1\nv 1: 0\n")

    @pytest.mark.parametrize("position", ["count", "index", "neighbor"])
    @pytest.mark.parametrize("token", ["+1", "1_0", "\u0662"])
    def test_numbers_are_ascii_digits(self, position, token):
        # int() reads the tokens as 1, 10 and 2; format_graph never
        # writes them so
        value = int(token)
        n = value if position == "count" else 11
        index = [str(i) for i in range(n)]
        nbrs = [[str(j) for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)]
        if position == "index":
            index[value] = token
        elif position == "neighbor":
            nbrs[value - 1][-1] = token
        text = f"polygraph 1\nvertices {token if position == 'count' else n}\n" + "".join(
            f"v {index[i]}: {' '.join(nbrs[i])}\n" for i in range(n)
        )
        # a path on n vertices once the token is written as format_graph does
        assert parse_graph(text.replace(token, str(value))).edge_count == n - 1
        with pytest.raises(FormatError):
            parse_graph(text)

    @pytest.mark.parametrize("text,error,message", [
        ("vertices -3\nv 0:\n", FormatError, "^line 2: vertex count must be positive$"),
        ("vertices 2\nv -1: 1\nv 1: 0\n", FormatError, "^line 3: vertex -1 out of range$"),
        ("vertices 2\nv 0: -1\nv 1: 0\n", EmbeddingError, "^vertex 0 lists neighbor -1 out of range$"),
    ], ids=["count", "index", "neighbor"])
    def test_negative_numbers(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_graph("polygraph 1\n" + text)

    def test_huge_declared_vertex_count(self):
        # the search for the first missing line stops after the lines given
        text = "polygraph 1\nvertices 99999999999999999999\nv 0: 1 2\n"
        with pytest.raises(FormatError, match="^no neighbor line for vertex 1$"):
            parse_graph(text)

    def test_more_digits_than_int_converts(self):
        # int() refuses digit strings past sys.get_int_max_str_digits()
        text = f"polygraph 1\nvertices {'9' * 5000}\nv 0: 1\n"
        with pytest.raises(FormatError):
            parse_graph(text)

    # parsing checks the format and the embedding; require_polyhedral
    # checks the rest
    def test_nonspherical_raises_distinctly(self):
        assert parse_graph(format_graph(k5())) == k5()
        with pytest.raises(EulerError):
            require_polyhedral(parse_graph(format_graph(k5())))

    def test_nonspherical_is_rejected_before_three_connectivity(self, monkeypatch):
        # the faces no longer fit the sphere, and the exhaustive k = 3
        # check is never reached
        g = swapped_prism(80)
        calls = []
        connected = graph_module.is_k_vertex_connected

        def recording(g, k):
            calls.append(k)
            return connected(g, k)

        monkeypatch.setattr(graph_module, "is_k_vertex_connected", recording)
        with pytest.raises(EulerError):
            require_polyhedral(g)
        assert 3 not in calls

    def test_not_three_connected_raises_distinctly(self):
        g = parse_graph(format_graph(bowtie()))
        assert g == bowtie()
        with pytest.raises(NotThreeConnectedError):
            require_polyhedral(g)
        # the parsed graph is still inspectable
        assert len(trace_faces(g)) == 3

    def test_roundtrip_identity_on_corpus(self):
        for fam, n in [("tetrahedron", None), ("cube", None), ("prism", 6), ("antiprism", 5)]:
            g = generate(fam, n)
            assert parse_graph(format_graph(g)) == g


class TestTraceFaces:
    def test_tetrahedron_faces(self):
        faces = trace_faces(generate("tetrahedron"))
        assert len(faces) == 4
        assert all(f.degree == 3 for f in faces)

    def test_hexagonal_prism_faces(self):
        faces = trace_faces(generate("prism", 6))
        degrees = sorted(f.degree for f in faces)
        assert degrees == [4, 4, 4, 4, 4, 4, 6, 6]

    def test_octahedron_faces(self):
        faces = trace_faces(generate("octahedron"))
        assert len(faces) == 8
        assert all(f.degree == 3 for f in faces)

    def test_dart_partition(self):
        for fam, n in [("cube", None), ("wheel", 7), ("kleetope(tetrahedron)", None)]:
            g = generate(fam, n)
            darts = []
            for face in trace_faces(g):
                heads = face.vertices[1:] + face.vertices[:1]
                for e, tail, head in zip(face.boundary, face.vertices, heads):
                    assert set(g.edges[e]) == {tail, head}
                    darts.append((tail, head))
            assert len(darts) == 2 * g.edge_count
            assert len(set(darts)) == 2 * g.edge_count

    def test_each_edge_on_two_faces(self):
        g = generate("dodecahedron")
        count = {e: 0 for e in range(g.edge_count)}
        for face in trace_faces(g):
            for e in face.edge_ids:
                count[e] += 1
        assert all(c == 2 for c in count.values())


class TestValidate:
    def test_k4_is_polyhedral(self):
        report = validate_steinitz(generate("tetrahedron"))
        assert report.planar_spherical and report.three_connected

    def test_bowtie_planar_not_three_connected(self):
        report = validate_steinitz(bowtie())
        assert report.planar_spherical
        assert not report.three_connected

    def test_path_is_spherical_not_three_connected(self):
        # V 4, E 3, F 1: the one face passes each inner vertex twice, so
        # it is not a simple cycle, and there is no second face to meet
        g = PolyhedralGraph.from_neighbor_rotations([[1], [0, 2], [1, 3], [2]])
        report = validate_steinitz(g)
        assert report.planar_spherical
        assert not report.three_connected

    def test_report_is_kept_on_the_graph(self):
        g = generate("cube")
        assert validate_steinitz(g) is validate_steinitz(g)
        assert validate_steinitz(generate("cube")) is not validate_steinitz(g)

    def test_k5_fails_euler(self):
        report = validate_steinitz(k5())
        assert not report.planar_spherical

    def test_k5_off_the_sphere_is_not_checked(self):
        # not spherical, so not polyhedral whatever its connectivity
        assert validate_steinitz(k5()).three_connected is None

    def test_off_the_sphere_runs_only_the_connectivity_search(self, monkeypatch):
        # K5 and prism 40 are 3-connected, and neither embedding is
        # spherical: no search beyond the k = 1 one behind sphericity runs
        calls = []
        connected = graph_module.is_k_vertex_connected

        def recording(g, k):
            calls.append(k)
            return connected(g, k)

        monkeypatch.setattr(graph_module, "is_k_vertex_connected", recording)
        reports = [validate_steinitz(g) for g in (k5(), swapped_prism(40))]
        assert set(calls) <= {1}
        assert {(r.planar_spherical, r.three_connected) for r in reports} == {(False, None)}

    def test_face_test_matches_exhaustive_check(self):
        # stacked solids with 0-6 edges deleted, polyhedral or not; on
        # every connected spherical one with V >= 4 the face test decides
        rng = random.Random(17)
        outcomes = []
        for _ in range(2000):
            name, g = random_stacked_variant(rng)
            if g.vertex_count > 16:
                continue
            for _ in range(rng.randint(0, 6)):
                e = rng.randrange(g.edge_count)
                name, g = f"{name}-e{e}", delete_edge(g, e)
            if g.vertex_count < 4 or not validate_steinitz(g).planar_spherical:
                continue
            assert validate_steinitz(g).three_connected == is_k_vertex_connected(g, 3), name
            outcomes.append(validate_steinitz(g).three_connected)
        assert outcomes.count(True) >= 200 and outcomes.count(False) >= 200

    def test_euler_characteristic(self):
        assert euler_characteristic(generate("icosahedron")) == 2
        assert euler_characteristic(k5()) != 2


class TestConnectivity:
    def test_octahedron_four_connected(self):
        assert is_k_vertex_connected(generate("octahedron"), 4)

    def test_cube_not_four_connected(self):
        assert not is_k_vertex_connected(generate("cube"), 4)

    def test_wheel5_not_four_connected(self):
        assert not is_k_vertex_connected(generate("wheel", 5), 4)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            is_k_vertex_connected(generate("tetrahedron"), 4)

    def test_bowtie_not_two_connected(self):
        g = bowtie()
        assert is_k_vertex_connected(g, 1)
        assert not is_k_vertex_connected(g, 2)


class TestDual:
    def test_cube_dual_is_octahedron(self):
        import networkx as nx

        pair = dual(generate("cube"))
        assert pair.dual.vertex_count == 6
        assert pair.dual.edge_count == 12
        assert len(trace_faces(pair.dual)) == 8
        a = nx.Graph(list(pair.dual.edges))
        b = nx.Graph(list(generate("octahedron").edges))
        assert nx.is_isomorphic(a, b)

    def test_tetrahedron_self_dual(self):
        import networkx as nx

        g = generate("tetrahedron")
        assert nx.is_isomorphic(
            nx.Graph(list(dual(g).dual.edges)),
            nx.Graph(list(g.edges)),
        )

    def test_bijection_is_consistent(self):
        g = generate("prism", 5)
        pair = dual(g)
        assert sorted(pair.primal_to_dual) == list(range(g.edge_count))
        # each primal edge maps to the dual edge joining its two faces
        incident = edge_faces(g)
        for e in range(g.edge_count):
            assert set(pair.dual.edges[pair.primal_to_dual[e]]) == set(incident[e])

    def test_double_dual_respects_bijections(self):
        for fam, n in [("cube", None), ("wheel", 6), ("antiprism", 4), ("kleetope(tetrahedron)", None)]:
            g = generate(fam, n)
            assert_double_dual_matches(g)

    def test_dual_requires_polyhedral(self):
        with pytest.raises(NotThreeConnectedError):
            dual(bowtie())
        with pytest.raises(EulerError):
            dual(k5())

    def test_dual_is_kept_on_the_graph(self):
        g = generate("cube")
        assert dual(g) is dual(g)
        assert dual(g).dual is dual(g).dual

    def test_dual_pair_is_the_dual_and_the_bijection(self):
        # no field holds the primal graph, which keeps the pair
        assert [f.name for f in dataclasses.fields(DualPair)] == ["dual", "primal_to_dual"]

    def test_matches_the_dual_built_from_neighbor_rotations(self):
        rng = random.Random(2026)
        graphs = list(corpus().items())
        graphs += [random_stacked_variant(rng) for _ in range(100)]
        for name, g in graphs:
            pair = dual(g)
            ref, primal_to_dual = reference_dual(g)
            assert pair.dual.edges == ref.edges, name
            assert pair.dual.rotation == ref.rotation, name
            assert pair.primal_to_dual == primal_to_dual, name
            assert sorted(pair.primal_to_dual) == list(range(g.edge_count)), name
            # the recorded report is the one the checks would compute
            d = pair.dual
            assert validate_steinitz(d).planar_spherical == (euler_characteristic(d) == 2), name
            assert validate_steinitz(d).three_connected == is_k_vertex_connected(d, 3), name
            assert validate_steinitz(d).is_polyhedral, name


def reference_dual(g):
    """The dual through from_neighbor_rotations, each primal edge mapped
    to the dual edge that joins its two faces."""
    incident = edge_faces(g)
    neighbor_lists = []
    for face in trace_faces(g):
        row = []
        for e in face.boundary:
            f1, f2 = incident[e]
            row.append(f2 if f1 == face.id else f1)
        neighbor_lists.append(row)
    d = PolyhedralGraph.from_neighbor_rotations(neighbor_lists)
    return d, tuple(d.edge_id(*incident[e]) for e in range(g.edge_count))


def assert_double_dual_matches(g):
    """dual(dual(g)) is g up to the face<->vertex correspondence, and the
    composed edge bijection realizes the isomorphism."""
    pair = dual(g)
    pair2 = dual(pair.dual)
    ddg = pair2.dual
    assert ddg.vertex_count == g.vertex_count
    assert ddg.edge_count == g.edge_count
    # primal vertex v corresponds to the face of the dual whose boundary
    # consists of the duals of v's incident edges
    face_by_edges = {f.edge_ids: f.id for f in trace_faces(pair.dual)}
    vertex_map = {}
    for v in range(g.vertex_count):
        key = frozenset(pair.primal_to_dual[e] for e in g.rotation[v])
        vertex_map[v] = face_by_edges[key]
    assert sorted(vertex_map.values()) == list(range(g.vertex_count))
    for e, (u, v) in enumerate(g.edges):
        e2 = pair2.primal_to_dual[pair.primal_to_dual[e]]
        assert set(ddg.edges[e2]) == {vertex_map[u], vertex_map[v]}
