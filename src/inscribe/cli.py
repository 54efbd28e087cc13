"""Command-line interface.

Commands::

    validate <file>                      check the polyhedral-graph conditions
    faces <file>                         list the faces of the embedding
    dual <file>                          planar dual in polygraph format
    generate <family> [n]                emit a generated graph
    decide (--inscribable|--circumscribable) <file>
    angles <certificate.json> <file>     ideal dihedral angles from a certificate
    verify <certificate.json> <file>     re-check an emitted certificate

``-`` reads the graph or the certificate from standard input, not both;
input that is not UTF-8 is invalid.  Exit codes: 0 for any successfully computed
answer (yes or no), 2 for invalid input, 3 for an internal error.

A command imports only the modules it runs: ``decide``, ``angles`` and
``verify`` load the decision modules, ``generate`` the generators, and
the other commands the graph module alone; ``json`` loads only where a
command reads or writes JSON.
"""

from __future__ import annotations

import argparse
import sys

from .errors import GraphError, InternalError
from .graph import dual, format_graph, parse_graph, trace_faces, validate_steinitz

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


def _print_json(obj) -> None:
    import json

    print(json.dumps(obj, indent=2))


def _cmd_validate(args) -> int:
    g = parse_graph(_read_source(args.file))
    report = validate_steinitz(g)
    if args.format == "json":
        _print_json({
            "planar_spherical": report.planar_spherical,
            "three_connected": report.three_connected,
        })
    else:
        print(f"planar_spherical: {str(report.planar_spherical).lower()}")
        three = report.three_connected
        print(f"three_connected: {'not checked' if three is None else str(three).lower()}")
    return EXIT_OK


def _cmd_faces(args) -> int:
    g = parse_graph(_read_source(args.file))
    faces = trace_faces(g)
    if args.format == "json":
        _print_json([
            {
                "id": f.id,
                "vertices": list(f.vertices),
                "edges": list(f.boundary),
            }
            for f in faces
        ])
    else:
        print(f"faces: {len(faces)}")
        for f in faces:
            verts = " ".join(str(v) for v in f.vertices)
            edges = " ".join(str(e) for e in f.boundary)
            print(f"{f.id}: vertices {verts}; edges {edges}")
    return EXIT_OK


def _cmd_dual(args) -> int:
    g = parse_graph(_read_source(args.file))
    pair = dual(g)
    if args.format == "json":
        _print_json({
            "dual_polygraph": format_graph(pair.dual),
            "edge_bijection": {str(e): d for e, d in enumerate(pair.primal_to_dual)},
        })
    else:
        sys.stdout.write(format_graph(pair.dual))
        print("# edge bijection (primal -> dual)")
        for e, d in enumerate(pair.primal_to_dual):
            print(f"# {e} -> {d}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    from .generators import generate

    g = generate(args.family, args.n)
    sys.stdout.write(format_graph(g))
    return EXIT_OK


def _cmd_decide(args) -> int:
    from .decide import decide_circumscribable, decide_inscribable, dihedral_angles

    g = parse_graph(_read_source(args.file))
    if args.inscribable:
        cert = decide_inscribable(g)
        angles = dihedral_angles(cert, dual(g)) if cert.is_yes else None
    else:
        cert = decide_circumscribable(g)
        angles = None
    _emit_certificate(cert, angles, args.format)
    return EXIT_OK


def _emit_certificate(cert, angles, fmt) -> None:
    from .decide import _frac_str, certificate_to_json

    if fmt == "json":
        sys.stdout.write(certificate_to_json(cert, angles))
        return
    print(f"answer: {cert.answer}")
    print(f"graph_role: {cert.graph_role}")
    if cert.margin is not None:
        print(f"margin: {_frac_str(cert.margin)}")
    else:
        print("margin: none (face equalities contradictory)")
    print(f"cuts: {len(cert.cuts)}")
    for title, values in (
        ("weights", cert.weights), ("dihedral angles (fractions of pi)", angles)
    ):
        if values is not None:
            print(f"{title}:")
            for e, x in enumerate(values):
                print(f"  edge {e}: {_frac_str(x)}")


def _cmd_angles(args) -> int:
    from .decide import _frac_str, _index_json, dihedral_angles, verify_certificate

    cert, g = _load_certificate_and_graph(args)
    ok, problems = verify_certificate(cert, g)
    if not ok:
        raise GraphError("certificate fails verification: " + "; ".join(problems))
    try:
        angles = dihedral_angles(cert, dual(g))
    except ValueError as exc:
        raise GraphError(str(exc)) from exc
    if args.format == "json":
        _print_json(_index_json(angles, _frac_str))
    else:
        for e in range(len(angles)):
            u, v = g.edges[e]
            print(f"edge {e} ({u}-{v}): {_frac_str(angles[e])} pi")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .decide import verify_certificate

    cert, g = _load_certificate_and_graph(args)
    ok, problems = verify_certificate(cert, g)
    if args.format == "json":
        _print_json({"valid": ok, "problems": problems})
    else:
        print(f"verification: {'PASS' if ok else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
    return EXIT_OK


def _load_certificate_and_graph(args) -> tuple:
    from .decide import certificate_from_json

    path = args.certificate
    if path == args.file == "-":
        raise GraphError("the certificate and the graph cannot both come from standard input")
    text = _read_source(path)
    try:
        cert = certificate_from_json(text)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise GraphError(f"malformed certificate {path}: {exc}") from exc
    return cert, parse_graph(_read_source(args.file))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inscribe",
        description="Decide inscribable/circumscribable type of polyhedral graphs "
        "with exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )

    p = sub.add_parser("validate", help="check the polyhedral-graph conditions")
    p.add_argument("file", help="polygraph file, or - for stdin")
    add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("faces", help="list the faces of the embedding")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("dual", help="planar dual with edge bijection")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("generate", help="emit a generated polyhedral graph")
    p.add_argument("family", help="e.g. cube, prism, 'kleetope(tetrahedron)'")
    p.add_argument("n", nargs="?", type=int, default=None, help="size for sized families")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("decide", help="decide inscribable or circumscribable type")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--inscribable", action="store_true")
    group.add_argument("--circumscribable", action="store_true")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("angles", help="ideal dihedral angles from a certificate")
    p.add_argument("certificate")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("certificate")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
