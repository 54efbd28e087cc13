"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Decisions are memoized across criteria (they are deterministic), so the
per-graph timing criterion runs first, on cold caches.
"""

import random
import time
from fractions import Fraction

from helpers import (
    circumscribable,
    corpus,
    inscribable,
    random_stacked_variant,
    small_corpus,
)
from reference import solve_full_enumeration

from inscribe import (
    brute_force_min_nonfacial,
    dihedral_angles,
    dual,
    edge_faces,
    generate,
    is_k_vertex_connected,
    min_nonfacial_circuit,
    trace_faces,
    validate_steinitz,
)
from inscribe.separation import weighting_problems

F = Fraction


def test_criterion_1_known_answer_corpus():
    """Every corpus graph decides inscribable=yes with an exactly
    verified certificate, except kleetope(tetrahedron) which decides no;
    the no is independently established by the full-enumeration LP."""
    slowest = 0.0
    for name, g in corpus().items():
        t0 = time.monotonic()
        cert = inscribable(g)
        elapsed = time.monotonic() - t0
        slowest = max(slowest, elapsed)
        assert elapsed < 10, f"{name} took {elapsed:.1f}s"
        if name == "kleetope(tetrahedron)":
            full, _ = solve_full_enumeration(dual(g).dual)
            assert full.status == "optimal" and full.margin <= 0, (
                "full enumeration must establish the no answer independently"
            )
            assert cert.answer == "no"
            assert cert.margin == full.margin
        else:
            assert cert.answer == "yes", name
            assert cert.margin > 0
            problems = weighting_problems(dual(g).dual, cert.weights, cert.margin)
            assert problems == [], (name, problems)
    print(
        f"\nACCEPTANCE PASS [1] known-answer corpus: {len(corpus())} graphs, "
        f"slowest {slowest:.2f}s"
    )


def test_criterion_2_four_connected_consistency():
    """Every 4-connected corpus graph answers yes for both decision
    modes, as the theorem says; the LP decides each one independently
    of it."""
    four_connected = [
        (name, g)
        for name, g in corpus().items()
        if g.vertex_count > 4 and is_k_vertex_connected(g, 4)
    ]
    names = {name for name, _ in four_connected}
    assert {"octahedron", "icosahedron"} <= names
    assert {f"antiprism({n})" for n in range(3, 9)} <= names
    disagreements = []
    for name, g in four_connected:
        if inscribable(g).answer != "yes" or circumscribable(g).answer != "yes":
            disagreements.append(name)
    assert disagreements == []
    print(
        f"\nACCEPTANCE PASS [2] 4-connected consistency: "
        f"{len(four_connected)} graphs, 0 disagreements"
    )


def test_criterion_3_duality_law():
    """decide_inscribable(g) agrees with decide_circumscribable on the
    dual, and vice versa, for every corpus graph."""
    disagreements = []
    for name, g in corpus().items():
        pair = dual(g)
        if inscribable(g).answer != circumscribable(pair.dual).answer:
            disagreements.append((name, "inscribable"))
        if circumscribable(g).answer != inscribable(pair.dual).answer:
            disagreements.append((name, "circumscribable"))
    assert disagreements == []
    print(
        f"\nACCEPTANCE PASS [3] duality law: {len(corpus())} graphs, "
        f"both directions, 0 disagreements"
    )


def test_criterion_4_separation_oracle_equivalence():
    """On every corpus graph with at most 14 vertices, 200 random
    exact-rational weightings give identical minima from the
    shortest-path oracle and the exhaustive oracle."""
    t0 = time.monotonic()
    rng = random.Random(20260810)
    trials_per_graph = 200
    graphs = small_corpus()
    total = 0
    for name, g in graphs.items():
        for _ in range(trials_per_graph):
            w = tuple(
                F(rng.randint(0, 128), rng.choice([1, 2, 3, 4, 5, 8, 16, 32]))
                for _ in range(g.edge_count)
            )
            fast = min_nonfacial_circuit(g, w)[1]
            slow = brute_force_min_nonfacial(g, w)[1]
            assert fast == slow, (name, tuple(w))
            total += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"criterion 4 took {elapsed:.0f}s (budget 300s)"
    print(
        f"\nACCEPTANCE PASS [4] separation-oracle equivalence: "
        f"{total} trials over {len(graphs)} graphs, 100% exact, {elapsed:.0f}s"
    )


def test_criterion_5_cut_loop_equals_full_enumeration():
    """Cut generation reaches exactly the optimum of the LP with every
    non-facial circuit enumerated up front, on all small corpus graphs."""
    checked = 0
    for name, g in small_corpus().items():
        loop_cert = circumscribable(g)
        full, _ = solve_full_enumeration(g)
        if full.status == "infeasible":
            assert loop_cert.margin is None, name
        else:
            assert loop_cert.margin == full.margin, name
        checked += 1
    print(
        f"\nACCEPTANCE PASS [5] cut-loop vs full enumeration: "
        f"{checked} graphs, exact margin equality"
    )


def test_criterion_6_tetrahedron_closed_form():
    """K4: margin exactly 1/6, uniform weights 1/3, and all ideal
    dihedral angles pi/3 (the regular ideal tetrahedron)."""
    g = generate("tetrahedron")
    circ = circumscribable(g)
    assert circ.margin == F(1, 6)
    assert tuple(circ.weights) == (F(1, 3),) * 6
    insc = inscribable(g)
    angles = dihedral_angles(insc, dual(g))
    assert angles == (F(1, 3),) * 6
    print(
        "\nACCEPTANCE PASS [6] tetrahedron closed form: "
        "margin 1/6, weights 1/3, angles pi/3"
    )


def _check_structure(name, g):
    report = validate_steinitz(g)
    assert report.planar_spherical, name
    assert report.three_connected, name
    faces = trace_faces(g)
    darts = [
        (tail, head)
        for f in faces
        for tail, head in zip(f.vertices, f.vertices[1:] + f.vertices[:1])
    ]
    assert len(darts) == 2 * g.edge_count and len(set(darts)) == 2 * g.edge_count, name
    _check_double_dual(name, g)
    if g.vertex_count <= 14:
        _check_facial_circuit_lemma(name, g)


def _check_double_dual(name, g):
    pair = dual(g)
    pair2 = dual(pair.dual)
    ddg = pair2.dual
    assert ddg.vertex_count == g.vertex_count, name
    face_by_edges = {f.edge_ids: f.id for f in trace_faces(pair.dual)}
    vertex_map = {
        v: face_by_edges[frozenset(pair.primal_to_dual[e] for e in g.rotation[v])]
        for v in range(g.vertex_count)
    }
    assert sorted(vertex_map.values()) == list(range(g.vertex_count)), name
    for e, (u, v) in enumerate(g.edges):
        e2 = pair2.primal_to_dual[pair.primal_to_dual[e]]
        assert set(ddg.edges[e2]) == {vertex_map[u], vertex_map[v]}, name


def _check_facial_circuit_lemma(name, g):
    """Each edge lies on exactly two faces, and any simple circuit whose
    edge set equals a face's is one of the two faces at each of its
    edges.  Checked by direct enumeration of all simple cycles."""
    faces = trace_faces(g)
    incident = edge_faces(g)
    face_of = {f.edge_ids: f.id for f in faces}
    assert len(face_of) == len(faces), name
    counts = {e: 0 for e in range(g.edge_count)}
    for f in faces:
        for e in f.edge_ids:
            counts[e] += 1
    assert all(c == 2 for c in counts.values()), name
    facial = [c for c in _all_simple_cycle_edge_sets(g) if c in face_of]
    for edge_set in facial:
        fid = face_of[edge_set]
        for e in edge_set:
            assert fid in incident[e], name


def _all_simple_cycle_edge_sets(g):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    G.add_edges_from(g.edges)
    for nodes in nx.simple_cycles(G):
        if len(nodes) < 3:
            continue
        yield frozenset(
            g.edge_id(nodes[i], nodes[(i + 1) % len(nodes)])
            for i in range(len(nodes))
        )


def test_criterion_7_structural_invariants():
    """Euler, dart partition, dual involution and the facial-circuit
    lemma hold on every corpus graph and 100 randomized stacked
    variants."""
    for name, g in corpus().items():
        _check_structure(name, g)
    rng = random.Random(477)
    for _ in range(100):
        name, g = random_stacked_variant(rng)
        _check_structure(name, g)
    print(
        f"\nACCEPTANCE PASS [7] structural invariants: "
        f"{len(corpus())} corpus graphs + 100 randomized variants"
    )
