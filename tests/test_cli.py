import argparse
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import GOLDENS

import inscribe.graph as graph_module
from inscribe import (
    InternalError,
    dual,
    format_graph,
    generate,
    min_nonfacial_circuit,
    parse_graph,
    trace_faces,
)
from inscribe.cli import build_parser, main

CORPUS = Path(__file__).parents[1] / "corpus"
DATA = Path(__file__).parent / "data"

# planar with a cut vertex: two triangles sharing vertex 0
BOWTIE = "polygraph 1\nvertices 5\nv 0: 1 2 3 4\nv 1: 0 2\nv 2: 1 0\nv 3: 0 4\nv 4: 3 0\n"
# 3-connected, but no rotation system embeds it on the sphere
K5 = "polygraph 1\nvertices 5\n" + "".join(
    f"v {u}: {' '.join(str(v) for v in range(5) if v != u)}\n" for u in range(5)
)

# V 11, E 27, F 18: V - E + F = 2, but K4 on 0-3 and K7 on 4-10 are
# apart, and the K7 is embedded on the torus
K4_AND_K7 = (
    "polygraph 1\nvertices 11\nv 0: 1 3 2\nv 1: 0 2 3\nv 2: 0 3 1\nv 3: 0 1 2\n"
) + "".join(
    f"v {4 + u}: {' '.join(str(4 + (u + d) % 7) for d in (1, 3, 2, 6, 4, 5))}\n"
    for u in range(7)
)


def run_cli(capsys, argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.pg"
    path.write_text(format_graph(generate("cube")))
    return str(path)


@pytest.fixture
def kleetope_file(tmp_path):
    path = tmp_path / "kleetope_tet.pg"
    path.write_text(format_graph(generate("kleetope(tetrahedron)")))
    return str(path)


class TestValidate:
    def test_generate_pipe_validate(self, capsys):
        code, out, _ = run_cli(capsys, ["generate", "antiprism", "4"])
        assert code == 0
        code, out, _ = run_cli(capsys, ["validate", "-"], stdin=out)
        assert code == 0
        assert "planar_spherical: true" in out
        assert "three_connected: true" in out

    def test_validate_json(self, capsys, cube_file):
        code, out, _ = run_cli(capsys, ["validate", cube_file, "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"planar_spherical": True, "three_connected": True}

    def test_validate_reports_failure_with_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "-"], stdin=BOWTIE)
        assert code == 0
        assert "three_connected: false" in out

    def test_k5_is_not_spherical_and_not_checked(self, capsys):
        # 3-connected, but off the sphere 3-connectivity is not decided
        code, out, _ = run_cli(capsys, ["validate", "-"], stdin=K5)
        assert code == 0
        assert out == "planar_spherical: false\nthree_connected: not checked\n"

    def test_k5_json_reports_null(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "-", "--format", "json"], stdin=K5)
        assert code == 0
        assert json.loads(out) == {"planar_spherical": False, "three_connected": None}

    def test_disconnected_graph_is_not_spherical(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "-"], stdin=K4_AND_K7)
        assert code == 0
        assert out == "planar_spherical: false\nthree_connected: not checked\n"

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.pg"
        bad.write_text("polygraph 1\nvertices 2\nv 0: 1 1\nv 1: 0 0\n")
        code, _, err = run_cli(capsys, ["validate", str(bad)])
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["validate", "/nonexistent.pg"])
        assert code == 2

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.pg"
        bad.write_bytes(b"polygraph 1\n\xff\n")
        code, _, err = run_cli(capsys, ["validate", str(bad)])
        assert code == 2
        assert "cannot read" in err and "Traceback" not in err

    def test_non_utf8_stdin_exits_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"polygraph 1\n\xff\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, _, err = run_cli(capsys, ["validate", "-"])
        assert code == 2
        assert "cannot read -" in err

    def test_huge_declared_vertex_count_exits_2(self, capsys):
        text = "polygraph 1\nvertices 99999999999999999999\nv 0: 1 2\n"
        code, _, err = run_cli(capsys, ["validate", "-"], stdin=text)
        assert code == 2
        assert "no neighbor line for vertex 1" in err


class TestFaces:
    def test_faces_text(self, capsys, cube_file):
        code, out, _ = run_cli(capsys, ["faces", cube_file])
        assert code == 0
        assert out.startswith("faces: 6")

    def test_faces_json(self, capsys, cube_file):
        code, out, _ = run_cli(capsys, ["faces", cube_file, "--format", "json"])
        faces = json.loads(out)
        assert len(faces) == 6
        assert all(len(f["vertices"]) == 4 for f in faces)


class TestDual:
    def test_cube_dual_reparses_as_octahedron(self, capsys, cube_file):
        import networkx as nx

        code, out, _ = run_cli(capsys, ["dual", cube_file])
        assert code == 0
        assert "# edge bijection" in out
        g = parse_graph(out)  # comment lines are ignored by the parser
        assert g.vertex_count == 6
        assert nx.is_isomorphic(
            nx.Graph(list(g.edges)),
            nx.Graph(list(generate("octahedron").edges)),
        )

    def test_dual_json_bijection(self, capsys, cube_file):
        code, out, _ = run_cli(capsys, ["dual", cube_file, "--format", "json"])
        doc = json.loads(out)
        assert sorted(int(k) for k in doc["edge_bijection"]) == list(range(12))


class TestGenerate:
    def test_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, ["generate", "bipyramid", "6"])
        assert code == 0
        assert parse_graph(out) == generate("bipyramid", 6)

    def test_kleetope_spelling(self, capsys):
        code, out, _ = run_cli(capsys, ["generate", "kleetope(tetrahedron)"])
        assert code == 0
        assert parse_graph(out) == generate("kleetope(tetrahedron)")

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["generate", "moebius"])
        assert code == 2


class TestDecide:
    def test_kleetope_inscribable_no_json(self, capsys, kleetope_file):
        code, out, _ = run_cli(
            capsys, ["decide", "--inscribable", kleetope_file, "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["answer"] == "no"
        assert doc["margin"] == "0/1"
        assert doc["weights"] is None

    def test_cube_inscribable_yes_with_angles(self, capsys, cube_file):
        code, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        doc = json.loads(out)
        assert doc["answer"] == "yes"
        assert doc["graph_role"] == "dual"
        assert set(doc["angles"].values()) == {"1/3"}
        assert len(doc["edge_bijection"]) == 12

    def test_circumscribable_text(self, capsys, cube_file):
        code, out, _ = run_cli(capsys, ["decide", "--circumscribable", cube_file])
        assert code == 0
        assert "answer: yes" in out
        assert "margin: 1/4" in out

    def test_mutually_exclusive_flags(self, capsys, cube_file):
        with pytest.raises(SystemExit) as info:
            main(["decide", "--inscribable", "--circumscribable", cube_file])
        assert info.value.code == 2

    def test_internal_error_exits_3(self, capsys, monkeypatch, cube_file):
        def broken(system):
            raise InternalError("solver returned a negative variable")

        monkeypatch.setattr("inscribe.decide.maximize_margin", broken)
        code, out, err = run_cli(capsys, ["decide", "--circumscribable", cube_file])
        assert (code, out) == (3, "")
        assert "internal error" in err

    @pytest.mark.parametrize("mode", ["--inscribable", "--circumscribable"])
    def test_each_graph_is_checked_for_3_connectivity_once(
        self, capsys, monkeypatch, mode
    ):
        # the input gets one face test; its dual is polyhedral by
        # construction, and the exhaustive check is never run
        face_checked, exhaustive_k = [], []
        faces = graph_module._faces_meet_properly
        exhaustive = graph_module.is_k_vertex_connected

        def counting_faces(g):
            face_checked.append(g)
            return faces(g)

        def counting_exhaustive(g, k):
            exhaustive_k.append(k)
            return exhaustive(g, k)

        monkeypatch.setattr(graph_module, "_faces_meet_properly", counting_faces)
        monkeypatch.setattr(graph_module, "is_k_vertex_connected", counting_exhaustive)
        path = CORPUS / "cube.pg"
        code, _, _ = run_cli(capsys, ["decide", mode, str(path)])
        assert code == 0
        assert face_checked == [parse_graph(path.read_text())]
        assert 3 not in exhaustive_k

    def test_determinism_byte_identical(self, capsys, kleetope_file):
        _, a, _ = run_cli(
            capsys, ["decide", "--inscribable", kleetope_file, "--format", "json"]
        )
        _, b, _ = run_cli(
            capsys, ["decide", "--inscribable", kleetope_file, "--format", "json"]
        )
        assert a == b


class TestAnglesAndVerify:
    def test_decide_verify_roundtrip(self, capsys, cube_file, tmp_path):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out, _ = run_cli(capsys, ["verify", str(cert), cube_file])
        assert code == 0
        assert "PASS" in out

    def test_verify_no_certificate(self, capsys, kleetope_file, tmp_path):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", kleetope_file, "--format", "json"]
        )
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out, _ = run_cli(capsys, ["verify", str(cert), kleetope_file])
        assert code == 0
        assert "PASS" in out

    def test_verify_detects_tampering(self, capsys, cube_file, tmp_path):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        # weights 1/5 miss every unit face sum; the angles 1 - 2/5 agree
        # with them, so the certificate parses and verify rejects it
        doc = json.loads(out)
        doc["weights"] = dict.fromkeys(doc["weights"], "1/5")
        doc["angles"] = dict.fromkeys(doc["angles"], "3/5")
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["verify", str(cert), cube_file])
        assert code == 0
        assert "FAIL" in out

    def test_angles_output(self, capsys, cube_file, tmp_path):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out, _ = run_cli(
            capsys, ["angles", str(cert), cube_file, "--format", "json"]
        )
        assert code == 0
        assert set(json.loads(out).values()) == {"1/3"}

    def test_angles_on_no_certificate_exits_2(self, capsys, kleetope_file, tmp_path):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", kleetope_file, "--format", "json"]
        )
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, _, err = run_cli(capsys, ["angles", str(cert), kleetope_file])
        assert code == 2

    @pytest.mark.parametrize("field,value", [
        ("margin", None), ("cuts", [[0, 1, 999]]),
    ], ids=["margin-None", "cut-unknown-edge"])
    def test_angles_checks_the_certificate_first(
        self, capsys, cube_file, tmp_path, field, value
    ):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        doc = json.loads(out)
        doc[field] = value
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["angles", str(cert), cube_file])
        assert (code, out) == (2, "")
        assert "certificate fails verification" in err


def _kleetope_dual():
    return dual(generate("kleetope(tetrahedron)")).dual


def _nonfacial_cut():
    d = _kleetope_dual()
    circuit, _ = min_nonfacial_circuit(d, (1,) * d.edge_count)
    return list(circuit)


def _two_triangles_cut():
    # two vertex-disjoint faces: every vertex meets two of the edges
    faces = {frozenset(f.vertices): f.edge_ids for f in trace_faces(_kleetope_dual())}
    return sorted(faces[frozenset({0, 5, 6})] | faces[frozenset({1, 2, 9})])


class TestMalformedCertificates:
    """Malformed certificates exit 2 or FAIL; none raises."""

    def test_non_utf8_certificate_exits_2(self, capsys, kleetope_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_bytes(b'{"answer": "\xff"}')
        code, _, err = run_cli(capsys, ["verify", str(cert), kleetope_file])
        assert code == 2
        assert "cannot read" in err and "Traceback" not in err

    @pytest.fixture
    def no_cert(self, capsys, kleetope_file):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", kleetope_file, "--format", "json"]
        )
        return json.loads(out)

    @pytest.mark.parametrize("margin,reason", [
        ("1/0", "zero denominator"),
        (5, "not a 'p/q' string"),
    ])
    def test_malformed_margin_exits_2(
        self, capsys, kleetope_file, no_cert, tmp_path, margin, reason
    ):
        no_cert["margin"] = margin
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(no_cert))
        code, _, err = run_cli(capsys, ["verify", str(cert), kleetope_file])
        assert code == 2
        assert reason in err

    @pytest.mark.parametrize("text", ["1_0/3", " 1/6", "+1/6", "2/4", "-1/-2", "3"])
    @pytest.mark.parametrize("field", ["margin", "weight", "multiplier"])
    def test_rational_not_written_by_the_writer_exits_2(
        self, capsys, cube_file, kleetope_file, no_cert, tmp_path, field, text
    ):
        # the reader takes only 'p/q' in lowest terms with q > 0
        if field == "weight":
            _, out, _ = run_cli(
                capsys, ["decide", "--circumscribable", cube_file, "--format", "json"]
            )
            doc, graph = json.loads(out), cube_file
            doc["weights"]["0"] = text
        else:
            doc, graph = no_cert, kleetope_file
            if field == "margin":
                doc["margin"] = text
            else:
                doc["multipliers"][0] = text
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["verify", str(cert), graph])
        assert (code, out) == (2, "")
        assert f"rational {text!r} is not" in err

    @pytest.mark.parametrize("field,value", [
        ("answer", "maybe"),
        ("graph_role", "sideways"),
    ])
    def test_unknown_choice_exits_2(
        self, capsys, kleetope_file, no_cert, tmp_path, field, value
    ):
        no_cert[field] = value
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(no_cert))
        code, out, err = run_cli(capsys, ["verify", str(cert), kleetope_file])
        assert code == 2
        assert "PASS" not in out
        assert f"{field} {value!r} is not one of" in err

    # Each one passed verify when numbers were read with int().
    @pytest.mark.parametrize("source,tamper,reason", [
        ("bipyramid", lambda d: d.update(cuts=[[e + 0.5 for e in c] for c in d["cuts"]]),
         "cut edge 0.5 is not a JSON integer"),
        ("bipyramid", lambda d: d.update(cuts=[[float(e) for e in c] for c in d["cuts"]]),
         "cut edge 0.0 is not a JSON integer"),
        ("bipyramid", lambda d: d["cuts"][0].__setitem__(0, False),
         "cut edge False is not a JSON integer"),
        ("cube", lambda d: d.update(edge_bijection={
            e: x + 0.25 for e, x in d["edge_bijection"].items()}),
         "edge_bijection value 0.25 is not a JSON integer"),
        ("cube", lambda d: d["edge_bijection"].update({"1": True}),
         "edge_bijection value True is not a JSON integer"),
    ], ids=["cut-edge-float", "cut-edge-integral-float", "cut-edge-bool",
            "bijection-float", "bijection-bool"])
    def test_non_integer_number_exits_2(
        self, capsys, cube_file, tmp_path, source, tamper, reason
    ):
        if source == "bipyramid":
            graph = tmp_path / "kleetope_bipyramid_3.pg"
            graph.write_text(format_graph(generate("kleetope(bipyramid)", 3)))
            graph = str(graph)
            doc = json.loads((DATA / "kleetope_bipyramid_3_circumscribable.json").read_text())
        else:
            graph = cube_file
            _, out, _ = run_cli(
                capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
            )
            doc = json.loads(out)
        tamper(doc)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["verify", str(cert), graph])
        assert code == 2
        assert "PASS" not in out
        assert reason in err

    @pytest.mark.parametrize("key", [
        "answer", "graph_role", "margin", "weights", "angles", "cuts",
        "multipliers", "edge_bijection",
    ])
    @pytest.mark.parametrize("command", ["verify", "angles"])
    def test_deleting_any_key_exits_2(self, capsys, cube_file, tmp_path, key, command):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        doc = json.loads(out)
        del doc[key]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, [command, str(cert), cube_file])
        assert (code, out) == (2, "")
        assert f"missing ['{key}']" in err

    @pytest.mark.parametrize("change,reason", [
        (lambda d: d.update(fast_path=True), "unknown ['fast_path']"),
        (lambda d: d.update(cuts={}), "cuts is not a JSON list of lists"),
        (lambda d: d.update(cuts=["012"]), "cuts is not a JSON list of lists"),
        (lambda d: d.update(multipliers={}), "multipliers is not a JSON list"),
        (lambda d: d["multipliers"].__setitem__(0, 0), "rational 0 is not a 'p/q' string"),
    ], ids=["extra-key", "cuts-object", "cut-string", "multipliers-object",
            "multiplier-number"])
    def test_other_key_sets_and_cut_types_exit_2(
        self, capsys, kleetope_file, no_cert, tmp_path, change, reason
    ):
        change(no_cert)
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(no_cert))
        code, out, err = run_cli(capsys, ["verify", str(cert), kleetope_file])
        assert (code, out) == (2, "")
        assert reason in err

    @pytest.mark.parametrize("tamper", [
        lambda m: list(m.values()),
        lambda m: {**m, "x": m["0"]},
        lambda m: {str(int(k) + 1): v for k, v in m.items()},
        lambda m: {**m, "01": m.pop("1")},
    ], ids=["list", "extra-key", "keys-from-1", "key-with-leading-0"])
    @pytest.mark.parametrize("field", ["weights", "angles", "edge_bijection"])
    @pytest.mark.parametrize("command", ["verify", "angles"])
    def test_index_map_not_keyed_0_to_n_minus_1_exits_2(
        self, capsys, cube_file, tmp_path, command, field, tamper
    ):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        doc = json.loads(out)
        doc[field] = tamper(doc[field])
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, [command, str(cert), cube_file])
        assert (code, out) == (2, "")
        assert f'{field} is not a JSON object keyed "0" to "n-1"' in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "angles"])
    def test_angles_that_disagree_with_the_weights_exit_2(
        self, capsys, cube_file, tmp_path, command
    ):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        doc = json.loads(out)
        doc["angles"] = dict.fromkeys(doc["angles"], "1/7")
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, [command, str(cert), cube_file])
        assert (code, out) == (2, "")
        assert "angle of edge 0 is not 1 - 2 w" in err

    @pytest.mark.parametrize("command", ["verify", "angles"])
    def test_deeply_nested_json_exits_2(self, capsys, cube_file, tmp_path, command):
        cert = tmp_path / "cert.json"
        cert.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run_cli(capsys, [command, str(cert), cube_file])
        assert code == 2
        assert "malformed certificate" in err and "Traceback" not in err

    def test_top_level_array_exits_2(self, capsys, kleetope_file, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text("[]")
        code, _, err = run_cli(capsys, ["verify", str(cert), kleetope_file])
        assert code == 2
        assert "not a JSON object" in err

    @pytest.mark.parametrize("cuts,reason", [
        (lambda: [list(range(_kleetope_dual().edge_count))], "not a single simple cycle"),
        (lambda: [[0, 1, 999]], "unknown edge"),
        (lambda: [_nonfacial_cut()] * 2, "already present"),
        (lambda: [sorted(trace_faces(_kleetope_dual())[0].edge_ids)], "bounds a face"),
        (lambda: [_two_triangles_cut()], "not a single simple cycle"),
    ], ids=["not-a-cycle", "unknown-edge", "duplicate", "face-boundary", "two-cycles"])
    def test_cut_that_does_not_rebuild_fails(
        self, capsys, kleetope_file, no_cert, tmp_path, cuts, reason
    ):
        no_cert["cuts"] = cuts()
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(no_cert))
        code, out, _ = run_cli(capsys, ["verify", str(cert), kleetope_file])
        assert code == 0
        assert "FAIL" in out
        assert "does not rebuild" in out and reason in out

    def test_angles_for_another_graph_exits_2(self, capsys, cube_file, kleetope_file, tmp_path):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, _, err = run_cli(capsys, ["angles", str(cert), kleetope_file])
        assert code == 2
        assert "does not match" in err

    def test_angles_with_a_broken_face_sum_exits_2(self, capsys, cube_file, tmp_path):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        # without recorded angles, the angles command derives them
        doc = json.loads(out.replace('"1/3"', '"1/5"', 1))
        doc["angles"] = None
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["angles", str(cert), cube_file])
        assert code == 2
        assert "sums to" in err and "internal error" not in err


def _format_1(text: str) -> str:
    """A format-2 certificate as format 1 wrote it: with ``iterations``
    and ``lp_status`` after ``cuts``."""
    doc = {}
    for key, value in json.loads(text).items():
        doc[key] = value
        if key == "cuts":
            doc["iterations"] = len(value) + 1
            doc["lp_status"] = "infeasible" if doc["margin"] is None else "optimal"
    return json.dumps(doc, indent=2) + "\n"


class TestFormat1Certificates:
    """Format 1 also recorded ``iterations`` and ``lp_status``, which
    format 2 derives from ``cuts`` and ``margin``; the reader rejects
    such a certificate by naming its format."""

    MESSAGE = "certificate format 1 is not read (it records {}); decide again"

    @pytest.mark.parametrize("name", GOLDENS)
    @pytest.mark.parametrize("command", ["verify", "angles"])
    def test_each_golden_in_format_1_exits_2(self, capsys, tmp_path, command, name):
        graph = tmp_path / "graph.pg"
        graph.write_text(format_graph(GOLDENS[name][1]()))
        cert = tmp_path / "cert.json"
        cert.write_text(_format_1((DATA / f"{name}.json").read_text()))
        code, out, err = run_cli(capsys, [command, str(cert), str(graph)])
        assert (code, out) == (2, "")
        assert self.MESSAGE.format("iterations, lp_status") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("iterations", 1), ("lp_status", "skipped")])
    @pytest.mark.parametrize("command", ["verify", "angles"])
    def test_either_format_1_key_exits_2(
        self, capsys, cube_file, tmp_path, command, key, value
    ):
        _, out, _ = run_cli(
            capsys, ["decide", "--inscribable", cube_file, "--format", "json"]
        )
        doc = json.loads(out)
        doc[key] = value
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, [command, str(cert), cube_file])
        assert (code, out) == (2, "")
        assert self.MESSAGE.format(key) in err


class TestNonPolyhedralInput:
    """Parsing checks the format and the embedding only; every command
    that needs a polyhedral graph rejects one that is not."""

    @pytest.mark.parametrize("text,message", [
        (BOWTIE, "graph is not 3-connected"),
        (K5, "embedding fails Euler's formula (not spherical)"),
        (K4_AND_K7, "embedding fails Euler's formula (not spherical)"),
    ], ids=["bowtie", "K5", "K4-and-K7-on-torus"])
    def test_exits_2(self, capsys, tmp_path, cube_file, kleetope_file, text, message):
        graph = tmp_path / "graph.pg"
        graph.write_text(text)
        graph = str(graph)
        argvs = [["dual", graph]]
        argvs += [["decide", mode, graph] for mode in ("--inscribable", "--circumscribable")]
        for source, mode in [
            (cube_file, "--inscribable"),
            (cube_file, "--circumscribable"),
            (kleetope_file, "--inscribable"),
        ]:
            _, out, _ = run_cli(capsys, ["decide", mode, source, "--format", "json"])
            cert = tmp_path / f"{Path(source).stem}{mode}.json"
            cert.write_text(out)
            argvs += [["verify", str(cert), graph], ["angles", str(cert), graph]]
        for argv in argvs:
            assert run_cli(capsys, argv) == (2, "", f"error: {message}\n"), argv


class TestUsage:
    def test_each_command_has_exactly_its_arguments(self, capsys):
        # a new option must change this test
        def arguments(p):
            return [
                " ".join(a.option_strings) or a.dest for a in p._actions if a.dest != "help"
            ]

        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert arguments(parser) == ["command"]
        assert {name: arguments(p) for name, p in sub.choices.items()} == {
            "validate": ["file", "--format"],
            "faces": ["file", "--format"],
            "dual": ["file", "--format"],
            "generate": ["family", "n"],
            "decide": ["--inscribable", "--circumscribable", "file", "--format"],
            "angles": ["certificate", "file", "--format"],
            "verify": ["certificate", "file", "--format"],
        }
        with pytest.raises(SystemExit) as info:
            main(["decide", "--circumscribable", "cube.pg", "--max-iters", "3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --max-iters 3" in capsys.readouterr().err

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "inscribe.cli", "generate", "tetrahedron"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("polygraph 1")


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.pg")), ids=lambda p: p.stem)
def test_every_command_runs_on_every_corpus_file(capsys, tmp_path, path):
    graph = str(path)
    for argv in (["validate", graph], ["faces", graph], ["dual", graph]):
        code, _, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), argv
    cert = tmp_path / "cert.json"
    for mode in ("--inscribable", "--circumscribable"):
        argv = ["decide", mode, graph, "--format", "json"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), argv
        cert.write_text(out)
        doc = json.loads(out)
        if doc["answer"] == "yes":
            assert doc["weights"] is not None and doc["margin"] is not None, argv
        code, out, err = run_cli(capsys, ["verify", str(cert), graph])
        assert (code, err) == (0, ""), argv
        assert "verification: PASS" in out, argv
        if mode == "--inscribable" and doc["answer"] == "yes":
            code, _, err = run_cli(capsys, ["angles", str(cert), graph])
            assert (code, err) == (0, ""), argv


NO_NETWORKX = """
import contextlib, io, sys
sys.modules["networkx"] = None  # any import of it raises ImportError
from inscribe.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    return out.getvalue()

cert, *graphs = sys.argv[1:]
for graph in graphs:
    for mode in ("--inscribable", "--circumscribable"):
        with open(cert, "w") as f:
            f.write(run(["decide", mode, graph, "--format", "json"]))
        assert "verification: PASS" in run(["verify", cert, graph]), (graph, mode)
"""


def test_deciding_and_verifying_need_no_networkx(tmp_path):
    # networkx is a test dependency: only the reference enumeration
    # imports it, and only when it is called
    graphs = [str(CORPUS / "cube.pg"), str(CORPUS / "kleetope_tetrahedron.pg")]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX, str(tmp_path / "cert.json"), *graphs],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_mutated_certificates_exit_0_or_2(capsys, tmp_path):
    """Seeded mutations of every corpus certificate the cli benchmark
    decides (files of at most 8 vertices, both questions): delete a key
    or retype a value, at the top level or one level down.  verify and
    angles each answer with exit 0 or 2 and never raise."""
    retypes = (None, 0, -1, 1.5, True, "x", [], {})
    rng = random.Random(20261018)
    runs = 0
    for path in sorted(CORPUS.glob("*.pg")):
        if parse_graph(path.read_text()).vertex_count > 8:
            continue
        for mode in ("--inscribable", "--circumscribable"):
            _, out, _ = run_cli(capsys, ["decide", mode, str(path), "--format", "json"])
            for _ in range(30):
                doc = json.loads(out)
                parent = doc
                key = rng.choice(sorted(doc))
                child = doc[key]
                if isinstance(child, (dict, list)) and child and rng.random() < 0.5:
                    parent = child
                    key = rng.choice(sorted(child) if isinstance(child, dict)
                                     else range(len(child)))
                mutation = rng.randrange(len(retypes) + 1)
                if mutation == len(retypes):
                    del parent[key]
                else:
                    parent[key] = retypes[mutation]
                cert = tmp_path / "cert.json"
                cert.write_text(json.dumps(doc))
                for command in ("verify", "angles"):
                    code, _, err = run_cli(capsys, [command, str(cert), str(path)])
                    assert code in (0, 2), (path.name, mode, doc, command, err)
                    runs += 1
    assert runs == 5 * 2 * 30 * 2


def mutate_polygraph(text: str, rng: random.Random) -> str:
    """One seeded mutation of polygraph text: delete or duplicate a
    token, swap two neighbours of a vertex, or grow the declared vertex
    count by 1 to 3."""
    lines = [line.split() for line in text.splitlines()]
    kind = rng.choice(("delete", "duplicate", "swap", "grow"))
    if kind == "grow":
        tokens = next(t for t in lines if t[:1] == ["vertices"])
        tokens[1] = str(int(tokens[1]) + rng.randint(1, 3))
    elif kind == "swap":
        tokens = rng.choice([t for t in lines if t[:1] == ["v"] and len(t) >= 4])
        a, b = rng.sample(range(2, len(tokens)), 2)
        tokens[a], tokens[b] = tokens[b], tokens[a]
    else:
        tokens = rng.choice([t for t in lines if t])
        k = rng.randrange(len(tokens))
        if kind == "delete":
            del tokens[k]
        else:
            tokens.insert(k, tokens[k])
    return "".join(" ".join(t) + "\n" for t in lines)


def test_mutated_polygraph_text_exits_0_or_2(capsys, tmp_path):
    """Seeded mutations of every corpus file through validate and both
    decisions: each run exits 0 or 2 and none raises."""
    rng = random.Random(20261018)
    codes = {0: 0, 2: 0}
    for path in sorted(CORPUS.glob("*.pg")):
        for _ in range(12):
            text = mutate_polygraph(path.read_text(), rng)
            graph = tmp_path / "mutated.pg"
            graph.write_text(text)
            for argv in (["validate"], ["decide", "--inscribable"],
                         ["decide", "--circumscribable"]):
                code, _, err = run_cli(capsys, argv + [str(graph)])
                assert code in codes, (path.name, text, argv, err)
                codes[code] += 1
    assert sum(codes.values()) == 7 * 12 * 3
    assert codes[0] and codes[2]
