"""Gamma bound, saturating construction, arc taxonomy, certificates."""

from __future__ import annotations

import random

import pytest

from flowscope import (
    CausalFlow,
    ExtremalPartition,
    Geometry,
    Graph,
    PathCover,
    brute_force_flow,
    dump_flow,
    find_causal_flow,
    flow_from_cover,
    gamma,
    generate_extremal,
    load_geometry,
    serialize_geometry,
    verify_flow,
)

from flowscope.flow import DEFAULT_ORACLE_BOUND

from .conftest import check_cover, cover_pairs, relabel, successor_function
from .digraph_reference import influence_arcs, influence_order
from .extremal_reference import (
    ArcKind,
    classify_arcs,
    count_connecting_edges,
    lambda_labels,
    lex_acyclicity_certificate,
    observation_checks,
    orbit_counting_holds,
)


def iter_partitions(n, smallest=1):
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


class TestGamma:
    def test_reference_value(self):
        assert gamma(23, 3) == 63

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 1000])
    def test_single_output_is_hamiltonian_path_budget(self, n):
        assert gamma(n, 1) == n - 1

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 50])
    def test_all_outputs_is_complete_graph(self, k):
        assert gamma(k, k) == k * (k - 1) // 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gamma(3, 4)
        with pytest.raises(ValueError):
            gamma(3, 0)


class TestExtremalPartition:
    def test_parse(self):
        assert ExtremalPartition.parse("6,8,9").parts == (6, 8, 9)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="comma-separated"):
            ExtremalPartition.parse("6,x")

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ExtremalPartition((3, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^partition must have at least one part$"):
            ExtremalPartition(())

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ExtremalPartition((0, 1))


class TestGenerateExtremal:
    def test_two_singletons(self):
        geom, cover = generate_extremal(ExtremalPartition((1, 1)))
        assert geom.vertex_count == 2
        assert list(geom.graph.edges()) == [(0, 1)]
        assert cover.paths == ((0,), (1,))

    def test_two_two(self):
        geom, _ = generate_extremal(ExtremalPartition((2, 2)))
        labels = {tuple(sorted((geom.label_of(u), geom.label_of(v)))) for u, v in geom.graph.edges()}
        assert labels == {
            ("v1_1", "v1_2"),
            ("v2_1", "v2_2"),
            ("v1_1", "v2_1"),
            ("v1_2", "v2_1"),
            ("v1_2", "v2_2"),
        }
        assert geom.graph.edge_count == gamma(4, 2) == 5

    def test_reference_instance(self):
        geom, cover = generate_extremal(ExtremalPartition((6, 8, 9)))
        assert geom.vertex_count == 23
        assert geom.graph.edge_count == 63
        check_cover(geom, cover)

    def test_reference_instance_has_flow_at_the_gate_boundary(self):
        geom, _ = generate_extremal(ExtremalPartition((6, 8, 9)))
        assert geom.graph.edge_count == gamma(23, 3)  # gate passes with equality
        res = find_causal_flow(geom)
        assert res.status == "found"
        assert verify_flow(geom, res.flow).ok

    def test_endpoints(self):
        geom, _ = generate_extremal(ExtremalPartition((2, 3)))
        assert geom.inputs == {geom.id_of("v1_1"), geom.id_of("v2_1")}
        assert geom.outputs == {geom.id_of("v1_2"), geom.id_of("v2_3")}

    @pytest.mark.parametrize("n", range(1, 10))
    def test_saturation_small(self, n):
        for parts in iter_partitions(n):
            geom, _ = generate_extremal(ExtremalPartition(parts))
            assert geom.graph.edge_count == gamma(n, len(parts)), parts


class TestCountConnectingEdges:
    def test_reference_pair(self):
        assert count_connecting_edges(ExtremalPartition((6, 8, 9)), 1, 2) == 13

    def test_singletons(self):
        assert count_connecting_edges(ExtremalPartition((1, 1)), 1, 2) == 1

    def test_two_three(self):
        assert count_connecting_edges(ExtremalPartition((2, 3)), 1, 2) == 4

    def test_bad_indices(self):
        p = ExtremalPartition((1, 2, 3))
        with pytest.raises(ValueError):
            count_connecting_edges(p, 2, 2)
        with pytest.raises(ValueError):
            count_connecting_edges(p, 1, 4)

    @pytest.mark.parametrize("parts", [(2, 3), (1, 4), (3, 3, 4), (1, 1, 2, 5)])
    def test_formula_matches_generated_graph(self, parts):
        p = ExtremalPartition(parts)
        geom, cover = generate_extremal(p)
        path_of = {}
        for idx, path in enumerate(cover.paths):
            for v in path:
                path_of[v] = idx
        for i in range(1, p.k + 1):
            for j in range(i + 1, p.k + 1):
                actual = sum(
                    1
                    for u, v in geom.graph.edges()
                    if {path_of[u], path_of[v]} == {i - 1, j - 1}
                )
                assert actual == count_connecting_edges(p, i, j)


class TestClassifyArcs:
    def test_two_three_full_taxonomy(self):
        geom, cover = generate_extremal(ExtremalPartition((2, 3)))
        tags = classify_arcs(geom, cover)
        lab = geom.id_of
        expected = {
            (lab("v1_1"), lab("v1_2")): ArcKind.PATH,
            (lab("v2_1"), lab("v2_2")): ArcKind.PATH,
            (lab("v2_2"), lab("v2_3")): ArcKind.PATH,
            (lab("v2_1"), lab("v2_3")): ArcKind.SKIP,
            (lab("v1_1"), lab("v2_2")): ArcKind.A,
            (lab("v2_1"), lab("v1_2")): ArcKind.B,
            (lab("v1_1"), lab("v2_1")): ArcKind.C,
            (lab("v1_1"), lab("v2_3")): ArcKind.E,
            (lab("v2_2"), lab("v1_2")): ArcKind.F,
        }
        assert tags == expected

    def test_three_three_has_d_arc(self):
        geom, cover = generate_extremal(ExtremalPartition((3, 3)))
        tags = classify_arcs(geom, cover)
        d_arcs = [arc for arc, kind in tags.items() if kind is ArcKind.D]
        assert (geom.id_of("v2_1"), geom.id_of("v1_3")) in d_arcs

    def test_singleton_paths_have_no_arcs(self):
        geom, cover = generate_extremal(ExtremalPartition((1, 1)))
        assert classify_arcs(geom, cover) == {}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_arc_classified(self, n):
        for parts in iter_partitions(n):
            geom, cover = generate_extremal(ExtremalPartition(parts))
            tags = classify_arcs(geom, cover)
            assert set(tags) == set(influence_arcs(geom, cover_pairs(cover)))
            path_of = {}
            for idx, path in enumerate(cover.paths):
                for v in path:
                    path_of[v] = idx
            for (x, y), kind in tags.items():
                same = path_of[x] == path_of[y]
                assert same == (kind in (ArcKind.PATH, ArcKind.SKIP))

    @pytest.mark.parametrize("parts", [(1, 2), (2, 2), (3, 4), (1, 2, 3), (2, 2, 2)])
    def test_no_arc_leaves_a_terminal(self, parts):
        geom, cover = generate_extremal(ExtremalPartition(parts))
        terminals = {path[-1] for path in cover.paths}
        for x, _ in classify_arcs(geom, cover):
            assert x not in terminals


def reference_lex_verdict(geom: Geometry, cover: PathCover) -> bool:
    """The lex certificate's rule on the reference arcs, with out-degrees counted from them."""
    spot = {v: (pos, idx) for idx, path in enumerate(cover.paths) for pos, v in enumerate(path)}
    arcs = influence_arcs(geom, cover_pairs(cover))
    tails = {x for x, _ in arcs}
    return all(
        spot[x] < spot[y] or (spot[y][0] == len(cover.paths[spot[y][1]]) - 1 and y not in tails)
        for x, y in arcs
    )


class TestLexCertificate:
    def test_reference_instance(self):
        geom, cover = generate_extremal(ExtremalPartition((6, 8, 9)))
        assert lex_acyclicity_certificate(geom, cover)

    def test_all_singletons_vacuous(self):
        geom, cover = generate_extremal(ExtremalPartition((1,) * 5))
        assert lex_acyclicity_certificate(geom, cover)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_sweep_agrees_with_topological_sort(self, n):
        for parts in iter_partitions(n):
            geom, cover = generate_extremal(ExtremalPartition(parts))
            assert lex_acyclicity_certificate(geom, cover), parts
            assert reference_lex_verdict(geom, cover), parts
            ranks, _ = influence_order(geom, cover_pairs(cover))
            assert ranks is not None, parts

    def test_fails_on_chorded_path(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        geom = Geometry(g, frozenset({0}), frozenset({2}))
        cover = PathCover(((0, 1, 2),))
        assert not lex_acyclicity_certificate(geom, cover)
        assert not reference_lex_verdict(geom, cover)


class TestObservationChecks:
    @pytest.mark.parametrize("parts", [(2, 2), (1, 3), (2, 3, 3), (6, 8, 9)])
    def test_generated_instances_pass(self, parts):
        geom, cover = generate_extremal(ExtremalPartition(parts))
        assert observation_checks(geom, cover)

    def test_chord_fails(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        geom = Geometry(g, frozenset({0}), frozenset({2}))
        assert not observation_checks(geom, PathCover(((0, 1, 2),)))

    def test_crossing_pair_fails(self):
        # paths 0->1 and 2->3 with crossing edges (0,3) and (1,2)
        g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 3), (1, 2)])
        geom = Geometry(g, frozenset({0, 2}), frozenset({1, 3}))
        cover = PathCover(((0, 1), (2, 3)))
        assert not observation_checks(geom, cover)
        labels = lambda_labels(geom, cover, 1, 2)
        assert len(labels) != len(set(labels))

    def test_parallel_pair_passes(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
        geom = Geometry(g, frozenset({0, 2}), frozenset({1, 3}))
        assert observation_checks(geom, PathCover(((0, 1), (2, 3))))

    def test_crossing_test_matches_all_pairs_reference(self):
        # Two paths 0..3 and 4..7; connecting edges join position a on the
        # first to position b on the second.  A crossing is any two of them
        # with a1 < a2 and b1 > b2.
        rng = random.Random(20)
        positions = [(a, b) for a in range(1, 5) for b in range(1, 5)]
        path_edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
        cover = PathCover(((0, 1, 2, 3), (4, 5, 6, 7)))
        verdicts = set()
        for _ in range(2000):
            pairs = rng.sample(positions, rng.randint(0, 6))
            edges = path_edges + [(a - 1, b + 3) for a, b in pairs]
            geom = Geometry(Graph.from_edges(8, edges), frozenset({0, 4}), frozenset({3, 7}))
            crossing = any(a1 < a2 and b1 > b2 for a1, b1 in pairs for a2, b2 in pairs)
            assert observation_checks(geom, cover) == (not crossing), pairs
            verdicts.add(crossing)
        assert verdicts == {False, True}


class TestOrbitCounting:
    """The counting oracle on hand-made f; tier-1 runs it on every found flow of its sweeps."""

    @staticmethod
    def along(geom: Geometry, *pairs: tuple[int, int]) -> CausalFlow:
        # The oracle reads only f, so every rank may be 0.
        return CausalFlow(successor_function(geom.vertex_count, pairs), (0,) * geom.vertex_count)

    def test_extremal_flow_is_tight(self):
        geom, cover = generate_extremal(ExtremalPartition((2, 3, 3)))
        assert orbit_counting_holds(geom, flow_from_cover(geom, cover).flow, tight=True)

    def test_one_connecting_edge_short_is_not_tight(self):
        geom, cover = generate_extremal(ExtremalPartition((2, 3, 3)))
        flow = flow_from_cover(geom, cover).flow
        first = set(cover.paths[0])
        edges = list(geom.graph.edges())
        edges.remove(next((u, v) for u, v in edges if (u in first) != (v in first)))
        thinner = Geometry(Graph.from_edges(geom.vertex_count, edges), geom.inputs, geom.outputs)
        assert verify_flow(thinner, flow).ok
        assert orbit_counting_holds(thinner, flow)
        assert not orbit_counting_holds(thinner, flow, tight=True)

    def test_chord_fails(self):
        geom = Geometry(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), frozenset({0}), frozenset({2}))
        assert not orbit_counting_holds(geom, self.along(geom, (0, 1), (1, 2)))

    def test_too_many_connecting_edges_fail(self):
        # orbits 0->1 and 2->3 joined by all four possible edges, one over n_i + n_j - 1
        g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
        geom = Geometry(g, frozenset({0, 2}), frozenset({1, 3}))
        assert not orbit_counting_holds(geom, self.along(geom, (0, 1), (2, 3)))
        parallel = Geometry(Graph.from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]), geom.inputs, geom.outputs)
        assert orbit_counting_holds(parallel, self.along(parallel, (0, 1), (2, 3)), tight=True)


def shuffled(geom: Geometry, cover: PathCover, rng: random.Random) -> tuple[Geometry, PathCover]:
    """``geom`` and ``cover`` with the vertex ids permuted at random, so ids no longer ascend along paths."""
    perm = rng.sample(range(geom.vertex_count), geom.vertex_count)
    return relabel(geom, perm), PathCover(tuple(tuple(perm[v] for v in path) for path in cover.paths))


class TestShuffledIds:
    """The certificates read positions on paths, not ids, so shuffling the ids changes no answer."""

    @pytest.mark.parametrize("parts", [(2, 2), (1, 3), (2, 3, 3), (6, 8, 9), (3, 4, 4, 5)])
    def test_extremal_answers_unchanged(self, parts):
        rng = random.Random(sum(parts))
        geom, cover = generate_extremal(ExtremalPartition(parts))
        pairs = [(i, j) for i in range(1, len(parts) + 1) for j in range(i + 1, len(parts) + 1)]
        for _ in range(5):
            moved, moved_cover = shuffled(geom, cover, rng)
            assert observation_checks(moved, moved_cover)
            for i, j in pairs:
                assert lambda_labels(moved, moved_cover, i, j) == lambda_labels(geom, cover, i, j)

    def test_crossing_verdicts_unchanged(self):
        # The two-path sample of the crossing test above, ids shuffled.
        rng = random.Random(21)
        positions = [(a, b) for a in range(1, 5) for b in range(1, 5)]
        path_edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
        cover = PathCover(((0, 1, 2, 3), (4, 5, 6, 7)))
        verdicts = set()
        for _ in range(500):
            edges = path_edges + [(a - 1, b + 3) for a, b in rng.sample(positions, rng.randint(0, 6))]
            geom = Geometry(Graph.from_edges(8, edges), frozenset({0, 4}), frozenset({3, 7}))
            moved, moved_cover = shuffled(geom, cover, rng)
            verdict = observation_checks(geom, cover)
            assert observation_checks(moved, moved_cover) == verdict
            assert lambda_labels(moved, moved_cover, 1, 2) == lambda_labels(geom, cover, 1, 2)
            verdicts.add(verdict)
        assert verdicts == {False, True}


class TestLambdaLabels:
    def test_two_two(self):
        geom, cover = generate_extremal(ExtremalPartition((2, 2)))
        assert lambda_labels(geom, cover, 1, 2) == [2, 3, 4]

    def test_reference_pair_distinct_in_range(self):
        geom, cover = generate_extremal(ExtremalPartition((6, 8, 9)))
        labels = lambda_labels(geom, cover, 1, 2)
        assert len(labels) == 13
        assert len(set(labels)) == 13
        assert all(2 <= lam <= 14 for lam in labels)

    def test_bad_pair(self):
        geom, cover = generate_extremal(ExtremalPartition((2, 2)))
        with pytest.raises(ValueError):
            lambda_labels(geom, cover, 2, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_injective_for_all_generated_pairs(self, n):
        for parts in iter_partitions(n):
            p = ExtremalPartition(parts)
            if p.k < 2:
                continue
            geom, cover = generate_extremal(p)
            for i in range(1, p.k + 1):
                for j in range(i + 1, p.k + 1):
                    labels = lambda_labels(geom, cover, i, j)
                    assert len(labels) == len(set(labels))
                    lo = p.parts[i - 1] + p.parts[j - 1]
                    assert all(2 <= lam <= lo for lam in labels)


def random_partition(rng: random.Random, max_n: int) -> ExtremalPartition:
    k = rng.randint(1, 8)
    n = rng.randint(k, max_n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return ExtremalPartition(tuple(sorted(b - a for a, b in zip([0, *cuts], [*cuts, n]))))


def test_greedy_returns_the_unique_flow():
    """With |I| = |O| a geometry has at most one flow, so the greedy must return the cover's."""
    rng = random.Random(20070229)
    for _ in range(40):
        partition = random_partition(rng, 5000)
        geom, cover = generate_extremal(partition)
        assert len(geom.inputs) == len(geom.outputs) == partition.k
        assert find_causal_flow(geom).flow.successor.pairs == tuple(sorted(cover_pairs(cover))), partition


def test_extremal_cover_is_written_in_orbit_order():
    """``dump_flow`` writes an extremal cover as it writes the orbits of f, so the cover adds nothing.

    Both orders put the paths by ascending start id, on the generated
    geometry and, with at most nine paths, on the loaded one, whose ids
    follow label order.  The relabelled grid in ``test_file_formats.py``
    is a case where the two differ.
    """
    rng = random.Random(20071019)
    for _ in range(12):
        geom, cover = generate_extremal(random_partition(rng, 5000))
        loaded = load_geometry(serialize_geometry(geom))
        ids = [loaded.id_of(label) for label in geom.labels]
        loaded_cover = PathCover(tuple(tuple(ids[v] for v in path) for path in cover.paths))
        for g, c in ((geom, cover), (loaded, loaded_cover)):
            flow = flow_from_cover(g, c).flow
            assert dump_flow(g, flow, c) == dump_flow(g, flow)


@pytest.mark.parametrize("n", range(1, DEFAULT_ORACLE_BOUND + 1))
def test_oracle_returns_the_unique_flow_with_longest_path_ranks(n):
    for parts in iter_partitions(n):
        geom, cover = generate_extremal(ExtremalPartition(parts))
        assert brute_force_flow(geom) == flow_from_cover(geom, cover).flow, parts


def test_single_edge_addition_kills_the_flow():
    geom, _ = generate_extremal(ExtremalPartition((2, 2)))
    existing = set(geom.graph.edges())
    non_edges = [
        (u, v)
        for u in range(4)
        for v in range(u + 1, 4)
        if (u, v) not in existing
    ]
    assert non_edges == [(0, 3)]  # v1_1 -- v2_2 is the only missing edge
    g2 = Graph.from_edges(4, sorted(existing | {(0, 3)}))
    geom2 = Geometry(g2, geom.inputs, geom.outputs)
    assert brute_force_flow(geom2) is None
