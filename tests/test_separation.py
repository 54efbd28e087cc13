import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from helpers import circumscribable, corpus, inscribable, small_corpus
from panel import panel_graphs
from reference import reference_least_circuit

import inscribe.decide as decide_module
import inscribe.separation as separation_module
import reference as reference_module
from inscribe import (
    PolyhedralGraph,
    all_nonfacial_circuits,
    brute_force_min_nonfacial,
    decide_circumscribable,
    decide_inscribable,
    dual,
    generate,
    min_cycle_through_edge,
    min_nonfacial_circuit,
    stack_on_faces,
    trace_faces,
    validate_steinitz,
    verify_certificate,
)
from inscribe.separation import _may_close, canonical_circuit, weighting_problems

THIRD = Fraction(1, 3)


def uniform(g, value=THIRD):
    return (Fraction(value),) * g.edge_count


class TestCanonicalCircuit:
    def test_canonical_form_rotation_and_reflection(self):
        # rotating or reversing the input order, or repeating an edge,
        # gives the same tuple
        g = generate("cube")
        c = all_nonfacial_circuits(g)[0]
        for ids in (c, c[2:] + c[:2], tuple(reversed(c)), c + c[:2]):
            assert canonical_circuit(g, ids) == c

    def test_edge_set_matches_cycle_order(self):
        g = generate("octahedron")
        for c in all_nonfacial_circuits(g)[:10]:
            assert canonical_circuit(g, set(c)) == c

    @pytest.mark.parametrize("cut,message", [
        (lambda g: [0, 1, 0, 1], "at least 3 distinct edges"),
        (lambda g: [0, 1, g.edge_count], "names an unknown edge"),
        (lambda g: list(trace_faces(g)[0].boundary[:-1]),
         "not a single simple cycle"),
        (lambda g: _two_disjoint_faces(g), "not a single simple cycle"),
    ], ids=["two-edges", "unknown-edge", "path", "two-cycles"])
    def test_rejects_non_cycles(self, cut, message):
        g = generate("cube")
        with pytest.raises(ValueError, match=message):
            canonical_circuit(g, cut(g))

    def test_oracle_circuits_are_canonical(self):
        for name, g in small_corpus().items():
            for c in all_nonfacial_circuits(g):
                assert canonical_circuit(g, c) == c, name
            for oracle in (min_nonfacial_circuit, brute_force_min_nonfacial):
                c, _ = oracle(g, uniform(g))
                assert canonical_circuit(g, c) == c, name


def _two_disjoint_faces(g):
    """The edges of two vertex-disjoint faces: two cycles, every vertex
    of degree 2."""
    faces = trace_faces(g)
    f1, f2 = next(
        (a, b) for a, b in itertools.combinations(faces, 2)
        if not set(a.vertices) & set(b.vertices)
    )
    return sorted(f1.edge_ids | f2.edge_ids)


class TestMinCycleThroughEdge:
    def test_k4_facial_triangle(self):
        g = generate("tetrahedron")
        circuit, weight = min_cycle_through_edge(g, uniform(g), g.edge_id(0, 1))
        assert weight == 1
        assert len(circuit) == 3

    def test_k4_forbidden_pair_forces_long_way(self):
        g = generate("tetrahedron")
        w = uniform(g)
        e = g.edge_id(0, 1)
        forbidden = {g.edge_id(0, 2), g.edge_id(1, 3)}
        circuit, weight = min_cycle_through_edge(g, w, e, forbidden)
        # independent derivation: scan every cycle of K4 through e that
        # avoids the forbidden edges
        best = min(
            sum(w[x] for x in c)
            for c in _all_cycles(g)
            if e in c and not forbidden & set(c)
        )
        assert weight == best == Fraction(4, 3)
        expected = {e, g.edge_id(0, 3), g.edge_id(3, 2), g.edge_id(2, 1)}
        assert set(circuit) == expected

    def test_isolated_endpoint_returns_none(self):
        g = generate("tetrahedron")
        e = g.edge_id(0, 1)
        others_at_0 = {x for x in g.rotation[0] if x != e}
        assert min_cycle_through_edge(g, uniform(g), e, others_at_0) is None

    def test_forbidding_required_edge_rejected(self):
        g = generate("tetrahedron")
        with pytest.raises(ValueError):
            min_cycle_through_edge(g, uniform(g), 0, {0})

    def test_negative_weights_rejected(self):
        g = generate("tetrahedron")
        w = (Fraction(-1),) + (Fraction(1),) * 5
        with pytest.raises(ValueError):
            min_cycle_through_edge(g, w, 1)


def _all_cycles(g):
    """All simple cycles: every face boundary plus every non-facial circuit."""
    facial = [canonical_circuit(g, f.edge_ids) for f in trace_faces(g)]
    return facial + list(all_nonfacial_circuits(g))


class TestMinNonfacialCircuit:
    def test_k4_hamiltonian(self):
        g = generate("tetrahedron")
        circuit, weight = min_nonfacial_circuit(g, uniform(g))
        assert weight == Fraction(4, 3)
        assert len(circuit) == 4

    def test_octahedron_equator(self):
        g = generate("octahedron")
        circuit, weight = min_nonfacial_circuit(g, uniform(g))
        assert weight == Fraction(4, 3)
        assert len(circuit) == 4

    def test_cube_with_one_cheap_face(self):
        g = generate("cube")
        cheap = trace_faces(g)[0].edge_ids
        w = tuple(
            Fraction(1, 10) if e in cheap else THIRD for e in range(g.edge_count)
        )
        _, weight = min_nonfacial_circuit(g, w)
        _, uniform_weight = min_nonfacial_circuit(g, uniform(g))
        assert weight < uniform_weight
        assert weight == brute_force_min_nonfacial(g, w)[1]

    def test_returned_circuit_is_nonfacial_and_weight_consistent(self):
        g = generate("antiprism", 5)
        w = tuple(
            Fraction(i % 7 + 1, 11) for i in range(g.edge_count)
        )
        circuit, weight = min_nonfacial_circuit(g, w)
        assert frozenset(circuit) not in {f.edge_ids for f in trace_faces(g)}
        assert sum(w[e] for e in circuit) == weight

    def test_zero_weights_give_zero(self):
        g = generate("cube")
        _, weight = min_nonfacial_circuit(g, uniform(g, 0))
        assert weight == 0

    def test_monotone_in_each_weight(self):
        g = generate("tetrahedron")
        rng = random.Random(3)
        for _ in range(25):
            vals = [Fraction(rng.randint(0, 8), 4) for _ in range(g.edge_count)]
            base = min_nonfacial_circuit(g, tuple(vals))[1]
            e = rng.randrange(g.edge_count)
            vals[e] += Fraction(rng.randint(1, 4), 4)
            bumped = min_nonfacial_circuit(g, tuple(vals))[1]
            assert bumped >= base

    def test_deterministic(self):
        g = generate("prism", 5)
        w = tuple(Fraction(i % 5, 7) for i in range(g.edge_count))
        assert min_nonfacial_circuit(g, w) == min_nonfacial_circuit(g, w)

    def test_limit_matches_the_reference(self):
        # the least circuit when it weighs at most the limit, else None;
        # tied and zero weights included
        rng = random.Random(20261020)
        for name, g in small_corpus().items():
            for _ in range(6):
                w = tuple(
                    Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 4]))
                    for _ in range(g.edge_count)
                )
                least = brute_force_min_nonfacial(g, w)
                weight = least[1]
                assert min_nonfacial_circuit(g, w, None) == least, name
                assert min_nonfacial_circuit(g, w, weight) == least, name
                assert min_nonfacial_circuit(g, w, weight + 1) == least, name
                assert min_nonfacial_circuit(g, w, weight - Fraction(1, 97)) is None, name


def _same_as_reference(g, w):
    """The oracle returns what every banned search returns, at the four
    limits of ``test_limit_matches_the_reference``: none, the least
    circuit's weight, one above it and just below it."""
    least = reference_least_circuit(g, w)
    assert min_nonfacial_circuit(g, w) == least
    weight = least[1]
    for limit in (weight, weight + 1, weight - Fraction(1, 97)):
        assert min_nonfacial_circuit(g, w, limit) == reference_least_circuit(g, w, limit)


def _round_weights(monkeypatch, graphs):
    """(tested graph, weights) of every oracle call that deciding each
    graph of ``graphs`` both ways makes, one per round."""
    calls = []

    def recorded(g, w, limit):
        calls.append((g, w))
        return min_nonfacial_circuit(g, w, limit)

    monkeypatch.setattr(decide_module, "min_nonfacial_circuit", recorded)
    for g in graphs:
        decide_circumscribable(g)
        decide_inscribable(g)
    monkeypatch.undo()
    return calls


class TestPreCheckEquivalence:
    """The search that skips the banned searches of an edge changes no
    answer: the oracle returns what :func:`reference_least_circuit`,
    which runs every one of them, returns."""

    def test_small_corpus_tied_and_zero_weights(self):
        rng = random.Random(20261021)
        for g in small_corpus().values():
            for _ in range(6):
                w = tuple(
                    Fraction(rng.randint(0, 6), rng.choice([1, 2])) for _ in range(g.edge_count)
                )
                _same_as_reference(g, w)

    @pytest.mark.parametrize("family", ["prism", "antiprism"])
    @pytest.mark.parametrize("question", ["circumscribable", "inscribable"])
    def test_prism_and_antiprism_certificates(self, family, question):
        # the n-gon faces are the large faces whose least edges the
        # banned searches multiply
        for n in [*range(3, 13), 20, 30, 40]:
            g = generate(family, n)
            if question == "circumscribable":
                cert, tested = decide_circumscribable(g), g
            else:
                cert, tested = decide_inscribable(g), dual(g).dual
            assert cert.is_yes, n
            _same_as_reference(tested, cert.weights)

    def test_every_round_of_kleetope_antiprism_8(self, monkeypatch):
        calls = _round_weights(monkeypatch, [generate("kleetope(antiprism)", 8)])
        # a many-round decision: each round's weights are checked
        assert len(calls) > 1
        for g, w in calls:
            _same_as_reference(g, w)

    def test_every_round_of_the_panels_random_draws(self, monkeypatch):
        calls = _round_weights(monkeypatch, [g for _, g in panel_graphs()[-200:]])
        assert len(calls) > 400
        for g, w in calls:
            _same_as_reference(g, w)

    def test_a_face_that_meets_a_vertex_twice_runs_the_searches(self, monkeypatch):
        # two tetrahedra glued at vertex 0 are not polyhedral: the face
        # round both meets 0 twice, so no edge runs a pre-check and every
        # banned search runs
        g = PolyhedralGraph.from_neighbor_rotations([
            [1, 3, 2, 4, 6, 5], [0, 2, 3], [0, 3, 1], [0, 1, 2],
            [0, 5, 6], [0, 6, 4], [0, 4, 5],
        ])
        outer = trace_faces(g)[0]
        assert len(set(outer.vertices)) < outer.degree
        assert not validate_steinitz(g).is_polyhedral
        pre_checks = []

        def pre_checked(*args):
            pre_checks.append(args)
            return _may_close(*args)

        monkeypatch.setattr(separation_module, "_may_close", pre_checked)
        rng = random.Random(20261022)
        for _ in range(60):
            w = tuple(Fraction(rng.randint(0, 6), 2) for _ in range(g.edge_count))
            assert min_nonfacial_circuit(g, w) == brute_force_min_nonfacial(g, w)
            _same_as_reference(g, w)
        assert pre_checks == []

    def test_an_edge_whose_banned_searches_find_a_path_may_close(self, monkeypatch):
        # edge-level soundness: every edge at which one of the reference's
        # banned searches returns a path had its pre-check answer True
        weightings = _round_weights(monkeypatch, [generate("kleetope(antiprism)", 8)])
        rng = random.Random(20261023)
        for g in small_corpus().values():
            w = tuple(Fraction(rng.randint(0, 4), 2) for _ in range(g.edge_count))
            weightings.append((g, w))
        answers = {True: 0, False: 0}
        for g, w in weightings:
            found, may_close = set(), {}

            def searched(adj, nums, source, target, banned, bound):
                sp = separation_module._shortest_path(adj, nums, source, target, banned, bound)
                if sp is not None:
                    found.add(g.edge_id(source, target))
                return sp

            def pre_checked(adj, nums, source, target, face_edges, bound):
                answer = _may_close(adj, nums, source, target, face_edges, bound)
                may_close[g.edge_id(source, target)] = answer
                return answer

            monkeypatch.setattr(reference_module, "_shortest_path", searched)
            monkeypatch.setattr(separation_module, "_may_close", pre_checked)
            assert min_nonfacial_circuit(g, w) == reference_least_circuit(g, w)
            monkeypatch.undo()
            assert found
            assert all(may_close[e] for e in found)
            for answer in may_close.values():
                answers[answer] += 1
        # most edges need no banned search at all
        assert answers[False] > answers[True] > 0


class TestSearchCounts:
    """How many pre-checks and banned searches a decision and its
    verification make, as (pre-checks, searches); the counts repeat
    exactly.  Every banned search of the one-round yeses finds nothing,
    so the pre-check skips them all; the many-round yeses would show a
    pre-check that skips less as the cuts accumulate."""

    @pytest.mark.parametrize("family,n,decide,rounds,decided,verified", [
        ("prism", 120, decide_circumscribable, 1, (121, 0), (121, 0)),
        ("icosahedron", None, decide_inscribable, 1, (11, 0), (11, 0)),
        ("kleetope(icosahedron)", None, decide_circumscribable, 11, (704, 436), (64, 80)),
        ("kleetope(antiprism)", 8, decide_circumscribable, 9, (630, 356), (70, 68)),
    ], ids=["prism-120-circumscribable", "icosahedron-inscribable",
            "kleetope-icosahedron-circumscribable", "kleetope-antiprism-8-circumscribable"])
    def test_decide_and_verify(self, monkeypatch, family, n, decide, rounds, decided, verified):
        counts = [0, 0]
        shortest_path, may_close = separation_module._shortest_path, _may_close

        def searched(*args):
            counts[1] += 1
            return shortest_path(*args)

        def pre_checked(*args):
            counts[0] += 1
            return may_close(*args)

        monkeypatch.setattr(separation_module, "_shortest_path", searched)
        monkeypatch.setattr(separation_module, "_may_close", pre_checked)
        g = generate(family, n)
        cert = decide(g)
        assert cert.is_yes and cert.iterations == rounds
        assert tuple(counts) == decided
        counts[:] = [0, 0]
        assert verify_certificate(cert, g) == (True, [])
        assert tuple(counts) == verified


class TestMayClose:
    """The pre-check on small hand-made graphs, from u = 0 to v = 1;
    ``nums`` holds one weight per edge."""

    @staticmethod
    def adjacency(edges, vertices):
        adj = [[] for _ in range(vertices)]
        for e, (a, b) in enumerate(edges):
            adj[a].append((e, b))
            adj[b].append((e, a))
        return adj

    # a 4-cycle u-a-v-b-u, a = 2 and b = 3, and a third path u-c-v, c = 4;
    # the faces' paths u-a-v and u-b-v as their edge sets
    SQUARE = [(0, 2), (2, 1), (1, 3), (3, 0), (0, 4), (4, 1)]
    PATH_A = {0, 1}
    PATH_B = {2, 3}

    def test_both_paths_followed_from_the_start(self):
        adj = self.adjacency(self.SQUARE[:4], 4)
        nums = [1] * 4
        both = self.PATH_A | self.PATH_B
        # each two-edge walk to v follows a path to its end
        assert not _may_close(adj, nums, 0, 1, both, 2)
        # u-a-u-b-v follows neither path but uses face edges only, and a
        # simple path over them is one of the paths, which a banned
        # search never returns
        assert not _may_close(adj, nums, 0, 1, both, 4)
        # untracked, a path is any walk
        assert _may_close(adj, nums, 0, 1, self.PATH_A, 2)
        assert _may_close(adj, nums, 0, 1, self.PATH_B, 2)
        assert _may_close(adj, nums, 0, 1, set(), 2)

    def test_leaving_from_the_start(self):
        adj = self.adjacency(self.SQUARE, 5)
        nums = [1] * 6
        assert _may_close(adj, nums, 0, 1, self.PATH_A | self.PATH_B, 2)
        assert not _may_close(adj, nums, 0, 1, self.PATH_A | self.PATH_B, 1)

    def test_room_for_the_last_edge(self):
        # the chord's last edge weighs 5: the walk to c fits under the
        # bound but leaves no room for it
        adj = self.adjacency(self.SQUARE, 5)
        nums = [5, 5, 5, 5, 1, 5]
        assert not _may_close(adj, nums, 0, 1, self.PATH_A | self.PATH_B, 5)
        assert _may_close(adj, nums, 0, 1, self.PATH_A | self.PATH_B, 6)

    def test_an_untagged_state_dominates(self, monkeypatch):
        # path u-a-b-v, a = 2 and b = 3, with u-a at 5; u-c-a, c = 4,
        # reaches a off the path at 2, so the state at a that is still on
        # the path, popped at 5, goes no further
        edges = [(0, 2), (2, 3), (3, 1), (0, 4), (4, 2)]
        nums = [5, 4, 1, 1, 1]
        pushed = []
        heappush = separation_module.heapq.heappush

        def recorded(heap, item):
            pushed.append(divmod(item[1], 2))
            heappush(heap, item)

        monkeypatch.setattr(separation_module.heapq, "heappush", recorded)
        adj = self.adjacency(edges, 5)
        assert _may_close(adj, nums, 0, 1, {0, 1, 2}, 20)
        assert (2, 1) in pushed and (2, 0) in pushed
        assert (3, 0) not in pushed


class TestWeightChecks:
    CALLERS = {
        "min_cycle_through_edge": lambda g, w: min_cycle_through_edge(g, w, 0),
        "min_nonfacial_circuit": min_nonfacial_circuit,
        "brute_force_min_nonfacial": brute_force_min_nonfacial,
        "weighting_problems": lambda g, w: weighting_problems(g, w, THIRD),
    }

    @pytest.mark.parametrize("name", CALLERS)
    def test_one_weight_per_edge(self, name):
        g = generate("tetrahedron")
        with pytest.raises(ValueError, match="^weight vector has 5 entries for 6 edges$"):
            self.CALLERS[name](g, uniform(g)[:5])

    @pytest.mark.parametrize("name", ["min_cycle_through_edge", "min_nonfacial_circuit"])
    def test_tiny_negative_weight_rejected(self, name):
        g = generate("tetrahedron")
        w = uniform(g)[:5] + (Fraction(-1, 10**30),)
        with pytest.raises(ValueError, match="^edge weights must be nonnegative$"):
            self.CALLERS[name](g, w)


class TestNoNonfacialCircuit:
    """A triangle is not polyhedral: its one cycle bounds both faces."""

    def triangle(self):
        return PolyhedralGraph.from_neighbor_rotations([[1, 2], [2, 0], [0, 1]])

    def test_enumeration_is_empty(self):
        assert all_nonfacial_circuits(self.triangle()) == ()

    @pytest.mark.parametrize("oracle", [min_nonfacial_circuit, brute_force_min_nonfacial])
    def test_oracles_reject_it_as_bad_input(self, oracle):
        g = self.triangle()
        with pytest.raises(ValueError, match="^graph has no non-facial circuit$"):
            oracle(g, uniform(g, 1))

    def test_a_limit_gives_none(self):
        g = self.triangle()
        assert min_nonfacial_circuit(g, uniform(g, 1), Fraction(5)) is None


class TestBruteForce:
    def test_matches_oracle_on_random_weightings(self):
        rng = random.Random(20260810)
        for fam, n in [
            ("tetrahedron", None),
            ("octahedron", None),
            ("cube", None),
            ("wheel", 6),
            ("kleetope(tetrahedron)", None),
        ]:
            g = generate(fam, n)
            for _ in range(40):
                w = tuple(
                    Fraction(rng.randint(0, 96), rng.choice([1, 2, 3, 4, 8, 16]))
                    for _ in range(g.edge_count)
                )
                assert (
                    brute_force_min_nonfacial(g, w)[1]
                    == min_nonfacial_circuit(g, w)[1]
                )

    def test_same_circuit_under_ties(self):
        # few distinct weights make many circuits tie for the minimum; both
        # oracles must pick the least canonical edge sequence among them
        rng = random.Random(20261018)
        for fam, n in [
            ("tetrahedron", None),
            ("octahedron", None),
            ("cube", None),
            ("wheel", 6),
            ("prism", 5),
            ("bipyramid", 4),
            ("kleetope(tetrahedron)", None),
        ]:
            g = generate(fam, n)
            for _ in range(100):
                w = tuple(
                    Fraction(rng.randint(0, 6), 2) for _ in range(g.edge_count)
                )
                assert min_nonfacial_circuit(g, w) == brute_force_min_nonfacial(g, w)

    def test_same_circuit_under_other_edge_numberings(self):
        # the oracle looks for each circuit from its least edge id, so
        # renumber the edges: stack pyramids on some faces, permute the
        # vertex labels, and shuffle the edge ids and endpoint order;
        # tied weights, zeros included
        rng = random.Random(20261019)
        for fam, n in [
            ("tetrahedron", None),
            ("cube", None),
            ("octahedron", None),
            ("prism", 5),
            ("antiprism", 4),
            ("wheel", 6),
            ("bipyramid", 5),
        ]:
            base = generate(fam, n)
            faces = len(trace_faces(base))
            stacked = stack_on_faces(base, rng.sample(range(faces), faces // 3 + 1))
            for g in (base, stacked):
                for variant in (g, _permuted(g, rng), _shuffled(g, rng)):
                    for _ in range(12):
                        w = tuple(
                            Fraction(rng.randint(0, 4), 2)
                            for _ in range(variant.edge_count)
                        )
                        assert (
                            min_nonfacial_circuit(variant, w)
                            == brute_force_min_nonfacial(variant, w)
                        )

    def test_dodecahedron_matches_oracle(self):
        # 20 vertices: the exhaustive enumeration has no size cap
        g = generate("dodecahedron")
        assert brute_force_min_nonfacial(g, uniform(g)) == min_nonfacial_circuit(g, uniform(g))

    @pytest.mark.parametrize("family,n,cycles,faces", [
        ("tetrahedron", None, 7, 4),
        ("cube", None, 28, 6),
        ("octahedron", None, 63, 8),
        # wheel n: n^2 - n + 1 cycles; prism n: 2^n + n(n - 1)
        *(("wheel", n, n * n - n + 1, n + 1) for n in range(3, 13)),
        *(("prism", n, 2**n + n * (n - 1), n + 2) for n in range(3, 13)),
    ])
    def test_enumeration_counts(self, family, n, cycles, faces):
        # classical cycle counts minus the face boundaries
        assert len(all_nonfacial_circuits(generate(family, n))) == cycles - faces

    def test_enumeration_digest(self):
        # sha256 of every small-corpus graph's circuit tuple, then the
        # dodecahedron's, pinned from an independent enumerator's output
        graphs = [*small_corpus().values(), generate("dodecahedron")]
        text = repr([all_nonfacial_circuits(g) for g in graphs])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0d5dd48f9b5cfc38cdede4013cfccb9c49d30c8330a59224b3a88017268ff790"
        )


def _permuted(g, rng):
    """g with its vertices relabelled at random, so its edges are
    numbered in another order."""
    label = list(range(g.vertex_count))
    rng.shuffle(label)
    old = {label[v]: v for v in range(g.vertex_count)}
    return PolyhedralGraph.from_neighbor_rotations([
        [label[g.other_end(e, old[v])] for e in g.rotation[old[v]]]
        for v in range(g.vertex_count)
    ])


def _shuffled(g, rng):
    """g with its edge ids and each edge's endpoint order shuffled.

    Edge ids from ``from_neighbor_rotations`` grow with the first
    endpoint's label, so the least edge's first endpoint always holds
    the canonical second edge; shuffled ids break that pattern."""
    new_id = list(range(g.edge_count))
    rng.shuffle(new_id)
    edges = [None] * g.edge_count
    for e, (u, v) in enumerate(g.edges):
        edges[new_id[e]] = (u, v) if rng.random() < 0.5 else (v, u)
    rotation = tuple(tuple(new_id[e] for e in rot) for rot in g.rotation)
    return PolyhedralGraph(g.vertex_count, tuple(edges), rotation)


class TestWeightingProblems:
    def test_k4_uniform_third_is_witness(self):
        g = generate("tetrahedron")
        assert weighting_problems(g, uniform(g), Fraction(1, 6)) == []

    def test_k4_uniform_half_violates_bounds_and_faces(self):
        g = generate("tetrahedron")
        assert weighting_problems(g, uniform(g, Fraction(1, 2)), Fraction(1, 6)) == [
            "bound violations on edges (0, 1, 2, 3, 4, 5)",
        ] + [f"face {i} sums to 3/2" for i in range(4)]

    def test_octahedron_uniform_quarter_violates_faces_and_a_circuit(self):
        # the faces sum to 3/4, and a 4-cycle through the equator
        # weighs exactly 1
        g = generate("octahedron")
        assert weighting_problems(g, uniform(g, Fraction(1, 4)), Fraction(1, 6)) == [
            f"face {i} sums to 3/4" for i in range(8)
        ] + ["circuit (0, 1, 9, 5) weighs 1 <= 1"]

    def test_circuit_condition_violation_reported(self):
        # bipyramid: rim edges at 1/15, spokes at 7/15 keep every face
        # (spoke + rim + spoke) at 1 and every weight inside (0, 1/2),
        # but the rim triangle is a non-facial circuit of weight 1/5
        g = generate("bipyramid", 3)
        w = tuple(
            Fraction(1, 15) if 0 not in g.edges[e] and 1 not in g.edges[e]
            else Fraction(7, 15)
            for e in range(g.edge_count)
        )
        assert weighting_problems(g, w, Fraction(1, 15)) == [
            "circuit (6, 7, 8) weighs 1/5 <= 1",
        ]

    def test_negative_weight_skips_circuit_scan(self, monkeypatch):
        g = generate("tetrahedron")
        w = (Fraction(-1, 4),) + (THIRD,) * 5
        monkeypatch.setattr(separation_module, "min_nonfacial_circuit", None)
        assert weighting_problems(g, w, Fraction(1, 6)) == [
            "bound violations on edges (0,)",
            "face 0 sums to 5/12",
            "face 1 sums to 5/12",
        ]

    @pytest.mark.parametrize("question", ["circumscribable", "inscribable"])
    def test_corpus_yes_on_both_sides_of_its_margin(self, question):
        # verify searches only up to 1 + the bound slack; it must report
        # what the unbounded oracle reports, whatever margin is recorded
        decide = circumscribable if question == "circumscribable" else inscribable
        step = Fraction(1, 1000)
        checked = 0
        for name, g in corpus().items():
            cert = decide(g)
            if not cert.is_yes:
                continue
            tested = g if question == "circumscribable" else dual(g).dual
            for margin in (cert.margin - step, cert.margin, cert.margin + step):
                assert weighting_problems(tested, cert.weights, margin) == (
                    _reference_problems(tested, cert.weights, margin)
                ), name
            checked += 1
        assert checked

    def test_weight_above_half_still_reports_circuits_up_to_1(self):
        # one edge at 3/5 puts the bound slack at -1/10, yet the search
        # must still reach the equator (0, 1, 9, 5), which weighs 1
        g = generate("octahedron")
        w = (Fraction(1, 4),) * (g.edge_count - 1) + (Fraction(3, 5),)
        problems = weighting_problems(g, w, Fraction(1, 6))
        assert problems == _reference_problems(g, w, Fraction(1, 6))
        assert problems[0] == f"bound violations on edges ({g.edge_count - 1},)"
        assert problems[-1] == "circuit (0, 1, 9, 5) weighs 1 <= 1"

    def test_least_circuit_sets_the_slack(self):
        # octahedron: the equator between two opposite poles at 27/100,
        # the other edges at 73/200, so every face sums to 1 and the
        # bound slack is 27/200, while the equator weighs 27/25 and sets
        # the least slack at 2/25
        g = generate("octahedron")
        poles = set(range(g.vertex_count)) - {g.other_end(e, 0) for e in g.rotation[0]}
        equator = [e for e, ends in enumerate(g.edges) if not poles & set(ends)]
        w = tuple(
            Fraction(27, 100) if e in equator else Fraction(73, 200)
            for e in range(g.edge_count)
        )
        assert min_nonfacial_circuit(g, w) == (
            canonical_circuit(g, equator), Fraction(27, 25)
        )
        for margin in (Fraction(2, 25), Fraction(27, 200)):
            assert weighting_problems(g, w, margin) == _reference_problems(g, w, margin)
        assert weighting_problems(g, w, Fraction(2, 25)) == []
        assert weighting_problems(g, w, Fraction(27, 200)) == [
            "recomputed slack 2/25 differs from recorded margin 27/200",
        ]


def _reference_problems(g, w, margin):
    """weighting_problems stated on Fractions, with the unbounded oracle."""
    problems = []
    bounds = tuple(e for e, x in enumerate(w) if not 0 < x < Fraction(1, 2))
    if bounds:
        problems.append(f"bound violations on edges {bounds}")
    for f in trace_faces(g):
        total = sum(w[e] for e in f.edge_ids)
        if total != 1:
            problems.append(f"face {f.id} sums to {total}")
    if min(w) < 0:
        return problems
    circuit, weight = min_nonfacial_circuit(g, w)
    if weight <= 1:
        problems.append(f"circuit {circuit} weighs {weight} <= 1")
    slack = min(min(w), Fraction(1, 2) - max(w), weight - 1)
    if not problems and slack != margin:
        problems.append(f"recomputed slack {slack} differs from recorded margin {margin}")
    return problems
