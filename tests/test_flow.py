"""Flow verification, influencing digraph, path covers, search, oracle."""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowscope import (
    CausalFlow,
    ExtremalPartition,
    FlowDomainError,
    FlowFormatError,
    Geometry,
    GeometryError,
    Graph,
    MeasurementPattern,
    OracleBoundError,
    PathCover,
    SuccessorFunction,
    brute_force_flow,
    dump_flow,
    find_causal_flow,
    flow_from_cover,
    gamma,
    generate_extremal,
    load_flow,
    simulate_postselected,
    verify_flow,
    verify_obstruction,
)
from flowscope.flow import _backward_greedy, _complete_matching, _influence_order, _splice_orbits

from .conftest import (
    candidate_lists,
    check_cover,
    cover_pairs,
    first_path_cover,
    geometries,
    no_flow_reason_fault,
    orbit_cover,
    path_geometry,
    saturating_assignments,
    successor_function,
)
from .digraph_reference import acyclic_order, influence_arcs, influence_order
from .extremal_reference import iter_influence_arcs, orbit_counting_holds
from .json_reference import reference_dump_flow


# 4-cycle with no inputs and two adjacent outputs: it has a flow and four
# saturating matchings.
SIDE_SQUARE = Geometry(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), frozenset(), frozenset({2, 3}))


def grid_geometry(rows: int, cols: int) -> Geometry:
    """rows x cols grid, inputs the first column, outputs the last."""
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return Geometry(
        Graph.from_edges(rows * cols, edges),
        frozenset(i * cols for i in range(rows)),
        frozenset(i * cols + cols - 1 for i in range(rows)),
    )


def disjoint_union(parts: list[Geometry]) -> Geometry:
    adjacency: list[tuple[int, ...]] = []
    inputs: set[int] = set()
    outputs: set[int] = set()
    for part in parts:
        offset = len(adjacency)
        adjacency += [tuple(w + offset for w in nbrs) for nbrs in part.graph.adjacency]
        inputs |= {v + offset for v in part.inputs}
        outputs |= {v + offset for v in part.outputs}
    graph = Graph(len(adjacency), tuple(adjacency), sum(part.graph.edge_count for part in parts))
    return Geometry(graph, frozenset(inputs), frozenset(outputs))


def random_geometry(rng: random.Random, n: int) -> Geometry:
    """Random path cover plus chords; inputs mostly drawn from the path starts."""
    k = rng.randint(1, max(1, n // 2))
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    paths = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    edges = {tuple(sorted(e)) for p in paths for e in zip(p, p[1:])}
    density = rng.uniform(0.0, 0.25)
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    pool = [p[0] for p in paths] if rng.random() < 0.7 else range(n)
    inputs = rng.sample(pool, rng.randint(0, min(3, len(pool))))
    outputs = frozenset(p[-1] for p in paths)
    return Geometry(Graph.from_edges(n, sorted(edges)), frozenset(inputs), outputs)


def random_sparse_geometry(rng: random.Random, n: int, m: int, k: int) -> Geometry:
    """m distinct random edges on n vertices, with k random inputs and k random outputs."""
    edges: set[tuple[int, int]] = set()
    rand = rng.random
    while len(edges) < m:
        u, v = int(rand() * n), int(rand() * n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    inputs, outputs = rng.sample(range(n), k), rng.sample(range(n), k)
    return Geometry(Graph.from_edges(n, edges), frozenset(inputs), frozenset(outputs))


def stalling_geometry(d: int, j: int) -> Geometry:
    """A no-flow family on which the greedy stalls at once and plain per-root augmenting is quadratic.

    Every vertex is an input or an output.  Inputs s, s2 and outputs h1, h2
    span a complete bipartite square.  A dead cycle alternates inputs p_i
    and outputs q_i, p_i adjacent to q_i and q_(i+1 mod d).  Each of j
    gadgets has inputs w, r and outputs z, f with edges w-z, w-f, f-s,
    r-q_0 and r-z, so r reaches its only free partner past the dead cycle's
    entry q_0.  Ids follow this creation order.
    """
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    p = range(4, 4 + d)
    q = range(4 + d, 4 + 2 * d)
    edges += [(p[i], q[i]) for i in range(d)] + [(p[i], q[(i + 1) % d]) for i in range(d)]
    inputs = [0, 1, *p]
    outputs = [2, 3, *q]
    for i in range(j):
        w, r, z, f = (4 + 2 * d + 4 * i + c for c in range(4))
        inputs += [w, r]
        outputs += [z, f]
        edges += [(w, z), (w, f), (f, 0), (r, q[0]), (r, z)]
    return Geometry(Graph.from_edges(4 + 2 * d + 4 * j, edges), frozenset(inputs), frozenset(outputs))


def counting_geometry(geom: Geometry) -> tuple[Geometry, list[int]]:
    """``geom`` whose neighbour lists add their length to ``reads[0]`` on every scan or membership test."""
    reads = [0]

    class CountingNeighbours(tuple):
        def __iter__(self):
            reads[0] += len(self)
            return super().__iter__()

        def __contains__(self, v):
            reads[0] += len(self)
            return super().__contains__(v)

    g = geom.graph
    counting = Graph(g.vertex_count, tuple(map(CountingNeighbours, g.adjacency)), g.edge_count)
    return Geometry(counting, geom.inputs, geom.outputs), reads


def exhaustive_min_depth(geom: Geometry) -> int | None:
    """Least depth over every flow of the geometry, or None without one."""
    best = None
    for assignment in saturating_assignments(candidate_lists(geom)):
        ranks, _ = influence_order(geom, zip(geom.measured, assignment))
        if ranks is not None:
            depth = max(ranks, default=0)
            best = depth if best is None else min(best, depth)
    return best


def forced_six_cycle_flow() -> CausalFlow:
    # f(a_i) = b_i with ranks putting every a before every b, so only the
    # neighbourhood condition can fail.
    return CausalFlow(
        successor_function(6, [(0, 3), (1, 4), (2, 5)]),
        (0, 1, 2, 10, 11, 12),
    )


class TestVerifyFlow:
    def test_path_flow_accepted(self):
        geom = path_geometry(3)
        flow = CausalFlow(successor_function(3, [(0, 1), (1, 2)]), (0, 1, 2))
        assert verify_flow(geom, flow).ok

    def test_non_adjacent_image_rejected(self):
        geom = path_geometry(3)
        flow = CausalFlow(successor_function(3, [(0, 2), (1, 2)]), (0, 1, 2))
        check = verify_flow(geom, flow)
        assert not check.ok
        assert check.condition == "adjacency"
        assert check.witness == (0, 2)

    def test_six_cycle_forced_flow_rejected(self, six_cycle):
        check = verify_flow(six_cycle, forced_six_cycle_flow())
        assert not check.ok
        assert check.condition == "neighborhood-order"
        # a2 must precede a0 because a0 is adjacent to f(a2) = b2
        assert check.witness == (2, 0)

    def test_rank_tie_with_a_neighbour_of_the_image_rejected(self):
        # On the (2,2) extremal geometry, f(v1_1) = v1_2 is adjacent to
        # v2_1, whose rank ties v1_1's: x must come strictly first.
        geom, cover = generate_extremal(ExtremalPartition((2, 2)))
        flow = flow_from_cover(geom, cover).flow
        check = verify_flow(geom, CausalFlow(flow.successor, (0, 2, 0, 2)))
        assert (check.condition, check.witness) == ("neighborhood-order", (0, 2))

    def test_successor_order_violation(self):
        geom = path_geometry(2)
        flow = CausalFlow(successor_function(2, [(0, 1)]), (1, 0))
        check = verify_flow(geom, flow)
        assert check.condition == "successor-order"

    def test_domain_mismatch_raises(self):
        geom = path_geometry(3)
        flow = CausalFlow(successor_function(3, [(0, 1)]), (0, 1, 2))
        with pytest.raises(FlowDomainError, match="undefined"):
            verify_flow(geom, flow)


class TestFlowShape:
    """One rule for a flow's shape, and the same refusal from each caller that checks it."""

    @pytest.mark.parametrize(
        "image, ranks, message",
        [
            ((1, 2), (0, 1, 2), "image of f has 2 entries for 3 vertices"),
            ((1, 2, -1, -1), (0, 1, 2), "image of f has 4 entries for 3 vertices"),
            ((1.0, 2, -1), (0, 1, 2), "f('0') = 1.0 is not a vertex"),
            ((1, 2.5, -1), (0, 1, 2), "f('1') = 2.5 is not a vertex"),
            (("1", 2, -1), (0, 1, 2), "f('0') = '1' is not a vertex"),
            ((1, 3, -1), (0, 1, 2), "f('1') = 3 is not a vertex"),
            ((1, 2, 1), (0, 1, 2), "f is defined on output vertex '2'"),
            ((1, -1, -1), (0, 1, 2), "f is undefined on measured vertex '1'"),
            ((1, 0, -1), (0, 1, 2), "f('1') = '0' lies in the input set"),
            ((1, 2, -1), (0, 1), "missing rank for vertex '2'"),
            ((1, 2, -1), (0, 1, 2, 7), "rank map has 4 ranks for 3 vertices"),
            ((1, 2, -1), (0, True, 2), "ranks['1']: expected a non-negative integer"),
            ((1, 2, -1), (0, 1.5, 2), "ranks['1']: expected a non-negative integer"),
            ((1, 2, -1), (0, 1, -1), "ranks['2']: expected a non-negative integer"),
        ],
        ids=[
            "short-image",
            "long-image",
            "float-value",
            "fractional-value",
            "string-value",
            "unknown-value",
            "output-key",
            "undefined",
            "input-value",
            "short-ranks",
            "long-ranks",
            "bool-rank",
            "float-rank",
            "negative-rank",
        ],
    )
    def test_refused_alike_by_every_caller(self, image, ranks, message):
        # The 3-vertex path with I = {0} and O = {2}; a SuccessorFunction
        # holds any image, and each caller checks the shape before it reads f.
        geom = path_geometry(3)
        flow = CausalFlow(SuccessorFunction(image), ranks)
        pattern = MeasurementPattern(geom, flow, {0: 0.1, 1: 0.2})
        messages = []
        for call in (verify_flow, dump_flow):
            with pytest.raises(FlowDomainError) as exc:
                call(geom, flow)
            messages.append(str(exc.value))
        with pytest.raises(FlowDomainError) as exc:
            simulate_postselected(pattern)
        messages.append(str(exc.value))
        assert messages == [message] * 3


class TestSuccessorFunction:
    """A SuccessorFunction holds any candidate; ``verify_flow`` checks the contract."""

    def test_rejects_non_injective(self):
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        geom = Geometry(g, frozenset(), frozenset({2}))
        flow = CausalFlow(successor_function(3, [(0, 2), (1, 2)]), (0, 1, 2))
        check = verify_flow(geom, flow)
        assert check.condition == "neighborhood-order"
        assert check.witness == (1, 0)

    def test_rejects_non_adjacent(self):
        geom = path_geometry(3)
        flow = CausalFlow(successor_function(3, [(0, 2), (1, 2)]), (0, 1, 2))
        check = verify_flow(geom, flow)
        assert check.condition == "adjacency"
        assert check.witness == (0, 2)

    @given(geometries(max_vertices=5))
    @settings(max_examples=60)
    def test_accepted_mappings_are_injective(self, geom):
        cover = first_path_cover(geom)
        if cover is None:
            return
        result = flow_from_cover(geom, cover)
        if result.status != "found":
            return
        assert verify_flow(geom, result.flow).ok
        targets = [y for _, y in result.flow.successor.pairs]
        assert len(targets) == len(set(targets))


class TestInfluencingDigraph:
    """The adjacency-read arc generator against the edge-set reference arc list."""

    @staticmethod
    def arc_lists(geom, pairs):
        return list(iter_influence_arcs(geom, pairs)), influence_arcs(geom, pairs)

    def test_path_digraph(self):
        for arcs in self.arc_lists(path_geometry(3), [(0, 1), (1, 2)]):
            assert set(arcs) == {(0, 1), (0, 2), (1, 2)}

    def test_six_cycle_contains_three_cycle(self, six_cycle):
        for arcs in self.arc_lists(six_cycle, [(0, 3), (1, 4), (2, 5)]):
            assert {(0, 1), (1, 2), (2, 0)} <= set(arcs)

    def test_empty_measured_set(self):
        g = Graph.from_edges(2, [(0, 1)])
        geom = Geometry(g, frozenset({0, 1}), frozenset({0, 1}))
        assert self.arc_lists(geom, []) == ([], [])

    def test_no_loops_no_duplicates(self, six_cycle):
        for arcs in self.arc_lists(six_cycle, [(0, 3), (1, 4), (2, 5)]):
            assert len(arcs) == len(set(arcs))
            assert all(x != y for x, y in arcs)


class TestAcyclicOrder:
    """The reference ranking itself, on hand-made digraphs."""

    def test_three_arc_dag(self):
        ranks, cycle = acyclic_order(3, ((0, 1), (0, 2), (1, 2)))
        assert cycle is None
        assert ranks == (0, 1, 2)

    def test_three_cycle_certificate(self):
        ranks, cycle = acyclic_order(3, ((0, 1), (1, 2), (2, 0)))
        assert ranks is None
        assert cycle == (0, 1, 2)

    def test_no_arcs(self):
        ranks, cycle = acyclic_order(4, ())
        assert ranks == (0, 0, 0, 0)
        assert cycle is None

    def test_cycle_with_tail(self):
        # 3 -> 0 -> 1 -> 2 -> 0; the tail vertex is popped, cycle remains
        ranks, cycle = acyclic_order(4, ((3, 0), (0, 1), (1, 2), (2, 0)))
        assert ranks is None
        assert cycle == (0, 1, 2)

    def test_ranks_respect_all_arcs(self):
        arcs = ((0, 3), (3, 1), (0, 1), (2, 3))
        ranks, _ = acyclic_order(4, arcs)
        for u, v in arcs:
            assert ranks[u] < ranks[v]


class TestImplicitInfluencingDigraph:
    """Ranking reads the digraph off the adjacency; the materialised one is the reference."""

    def test_cyclic_cover_gives_reference_cycle(self, six_cycle):
        cover = PathCover(((0, 3), (1, 4), (2, 5)))
        res = flow_from_cover(six_cycle, cover)
        _, reference_cycle = influence_order(six_cycle, cover_pairs(cover))
        assert (res.status, res.reason) == ("no-flow", "cyclic-D")
        assert res.cycle == reference_cycle == (0, 1, 2)

    @given(geometries(max_vertices=6))
    @settings(max_examples=200, deadline=None)
    def test_cover_ranks_and_cycles_match_reference(self, geom):
        cover = first_path_cover(geom)
        if cover is None or geom.vertex_count == 0:
            return
        res = flow_from_cover(geom, cover)
        if res.reason == "edge-bound":
            return
        ranks, cycle = influence_order(geom, cover_pairs(cover))
        if ranks is not None:
            assert res.flow.order_rank == ranks
        else:
            assert res.cycle == cycle

    @pytest.mark.parametrize("parts", [(1, 1, 2), (3, 5, 8), (40, 60, 70, 90, 140)])
    def test_extremal_and_grid_ranks_match_reference(self, parts):
        geom, cover = generate_extremal(ExtremalPartition(parts))
        grid = grid_geometry(len(parts), parts[-1])
        grid_cover = PathCover(tuple(tuple(range(i * parts[-1], (i + 1) * parts[-1])) for i in range(len(parts))))
        for g, c in ((geom, cover), (grid, grid_cover)):
            reference_ranks, _ = influence_order(g, cover_pairs(c))
            assert flow_from_cover(g, c).flow.order_rank == reference_ranks

    def test_work_is_exactly_linear_on_extremal_k5(self):
        # Every neighbour-list scan or membership test adds the list's length.
        # Each of the n - 5 pairs (x, f(x)) costs three passes over adj[f(x)]:
        # two while counting in-degrees and one when x is ranked.  f maps onto
        # the non-inputs, whose degrees sum to 2m less the 35 of the five path
        # starts, so the total is 6m - 105 at every size.
        for n in (10_000, 20_000, 40_000):
            geom, cover = generate_extremal(ExtremalPartition((n // 5,) * 5))
            counting, reads = counting_geometry(geom)
            ranks, _ = _influence_order(counting, successor_function(geom.vertex_count, cover_pairs(cover)).image)
            assert ranks == flow_from_cover(geom, cover).flow.order_rank
            assert reads[0] == 6 * geom.graph.edge_count - 105, n


class TestPathCover:
    def test_path_graph_cover(self):
        geom = path_geometry(3)
        cover = orbit_cover(geom, find_causal_flow(geom).flow)
        assert cover.paths == ((0, 1, 2),)

    def test_everything_is_output(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        geom = Geometry(g, frozenset({0, 1, 2}), frozenset({0, 1, 2}))
        cover = orbit_cover(geom, find_causal_flow(geom).flow)
        assert cover.paths == ((0,), (1,), (2,))

    def test_six_cycle_has_cover(self, six_cycle):
        # a cover exists although no flow does
        cover = first_path_cover(six_cycle)
        assert cover is not None
        check_cover(six_cycle, cover)
        assert cover.paths == ((0, 3), (1, 4), (2, 5))
        assert find_causal_flow(six_cycle).cover is None

    def test_two_cycle_splice_rejected(self):
        # single edge, no inputs or outputs: the only saturating matching
        # splices into a 2-cycle, so no cover exists
        assert _splice_orbits((1, 0)) is None
        g = Graph.from_edges(2, [(0, 1)])
        geom = Geometry(g, frozenset(), frozenset())
        assert first_path_cover(geom) is None
        assert find_causal_flow(geom).cover is None

    def test_triangle_without_outputs(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        geom = Geometry(g, frozenset(), frozenset())
        assert first_path_cover(geom) is None
        assert find_causal_flow(geom).cover is None

    def test_validation_rejects_bad_covers(self, six_cycle):
        bad = [
            (((0, 1, 3), (2, 4), (5,)), "adjacent", r"^paths\[0\]: f\('a0'\) is not 'a1'$"),
            (((0, 3),), r"paths but", r"^paths: vertex 'a1' is on no path$"),
        ]
        # Written into a flow file beside f(a_i) = b_i, neither lists the orbits of f.
        flow = CausalFlow(successor_function(6, [(0, 3), (1, 4), (2, 5)]), (0,) * 6)
        for paths, cover_message, file_message in bad:
            with pytest.raises(ValueError, match=cover_message):
                check_cover(six_cycle, PathCover(paths))
            with pytest.raises(FlowFormatError, match=file_message):
                load_flow(six_cycle, reference_dump_flow(six_cycle, flow, PathCover(paths)))
            with pytest.raises(FlowFormatError, match=file_message):
                dump_flow(six_cycle, flow, PathCover(paths))

    def test_validation_checks_endpoint_membership(self):
        geom = Geometry(path_geometry(3).graph, frozenset({1}), frozenset({2}))
        cover = PathCover(((0, 1, 2),))
        with pytest.raises(ValueError, match="initial"):
            check_cover(geom, cover)
        # In a flow file the path is the orbit of f, so it loads; the input
        # in its middle is f(0), which verify_flow rejects.  dump_flow
        # refuses such a flow, so the reference renderer writes the file.
        flow = CausalFlow(successor_function(3, [(0, 1), (1, 2)]), (0, 1, 2))
        loaded, _ = load_flow(geom, reference_dump_flow(geom, flow, cover))
        with pytest.raises(FlowDomainError, match="input set"):
            verify_flow(geom, loaded)


class TestFindCausalFlow:
    def test_six_cycle_no_flow(self, six_cycle):
        res = find_causal_flow(six_cycle)
        assert res.status == "no-flow"
        assert res.reason == "cyclic-D"
        assert res.cycle == (0, 1, 2)
        assert res.obstruction == (0, 1, 2)

    def test_complete_graph_hits_edge_gate(self):
        g = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        geom = Geometry(g, frozenset({0}), frozenset({4}))
        res = find_causal_flow(geom)
        assert res.status == "no-flow"
        assert res.reason == "edge-bound"

    def test_path_graph_flow(self):
        res = find_causal_flow(path_geometry(4))
        assert res.status == "found"
        assert verify_flow(path_geometry(4), res.flow).ok
        check_cover(path_geometry(4), orbit_cover(path_geometry(4), res.flow))

    def test_no_cover_reason(self):
        # output-less vertex whose only neighbour is an input
        g = Graph.from_edges(2, [(0, 1)])
        geom = Geometry(g, frozenset({1}), frozenset({1}))
        res = find_causal_flow(geom)
        assert res.status == "no-flow"
        assert res.reason == "no-cover"

    def test_no_outputs_means_no_flow(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        geom = Geometry(g, frozenset(), frozenset())
        res = find_causal_flow(geom)
        assert res.status == "no-flow"
        assert res.reason == "no-cover"

    def test_empty_geometry_has_trivial_flow(self):
        geom = Geometry(Graph.from_edges(0), frozenset(), frozenset())
        res = find_causal_flow(geom)
        assert res.status == "found"
        assert res.flow.successor.pairs == ()

    def test_long_path_decided(self):
        geom = path_geometry(12)
        res = find_causal_flow(geom)
        assert res.status == "found"
        assert verify_flow(geom, res.flow).ok
        assert orbit_cover(geom, res.flow).paths == (tuple(range(12)),)

    def test_a_root_whose_neighbours_are_all_inputs_gives_no_cover_at_once(self):
        # Vertex 0's only neighbour is the input 1, so no matching gives 0 a
        # partner: the completion answers before 2 or 4, which share the
        # output 3, takes a partner.
        geom = Geometry(Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)]), frozenset({1}), frozenset({1, 3}))
        image, _layer, unprocessed = _backward_greedy(geom)
        assert unprocessed == [0, 2, 4]
        assert not _complete_matching(geom, image, unprocessed)
        assert image == [-1] * 5
        res = find_causal_flow(geom)
        assert (res.reason, res.obstruction) == ("no-cover", (0, 2, 4))

    def test_budget_zero_still_decides_small_instances(self, six_cycle):
        # The decision spends no search budget: even the smallest hard
        # instance comes back decided, with a checkable obstruction.
        res = find_causal_flow(six_cycle)
        assert res.status == "no-flow"
        assert res.obstruction == (0, 1, 2)
        assert verify_obstruction(six_cycle, res.obstruction)

    @pytest.mark.parametrize(
        "base, squares",
        [(path_geometry(12), 5), (grid_geometry(3, 8), 5), (path_geometry(20), 6)],
        ids=["path12", "grid3x8", "path20"],
    )
    def test_six_cycle_unions_with_side_squares_decided(self, six_cycle, base, squares):
        # Each side square has four saturating matchings, so a search over
        # matchings grows as 4**squares on these unions.
        geom = disjoint_union([base, six_cycle, *[SIDE_SQUARE] * squares])
        res = find_causal_flow(geom)
        assert res.status == "no-flow"
        assert res.reason == "cyclic-D"
        offset = base.vertex_count
        assert res.obstruction == (offset, offset + 1, offset + 2)
        assert set(res.cycle) == set(res.obstruction)
        assert verify_obstruction(geom, res.obstruction)

    def test_flow_from_cover_matches_search(self):
        geom = path_geometry(5)
        cover = orbit_cover(geom, find_causal_flow(geom).flow)
        res = flow_from_cover(geom, cover)
        assert res.status == "found"
        assert verify_flow(geom, res.flow).ok
        assert res.flow == find_causal_flow(geom).flow

    def test_depth_is_minimum_over_all_flows(self):
        # Seeded sample of gate-passing geometries with n <= 7, against an
        # exhaustive search over every candidate f.
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            geom = random_geometry(rng, rng.randint(1, 7))
            if geom.graph.edge_count > gamma(geom.vertex_count, geom.output_count):
                continue
            checked += 1
            res = find_causal_flow(geom)
            best = exhaustive_min_depth(geom)
            if best is None:
                assert res.status == "no-flow"
            else:
                assert res.status == "found"
                assert verify_flow(geom, res.flow).ok
                assert orbit_counting_holds(geom, res.flow)
                assert res.flow.depth == best

    def test_no_flow_reasons_match_enumeration(self):
        # Seeded sample with n <= 8; the criterion-4 sweep checks every
        # geometry with n <= 6 the same way.
        rng = random.Random(11)
        reasons = {"no-cover": 0, "cyclic-D": 0}
        for _ in range(300):
            geom = random_geometry(rng, rng.randint(1, 8))
            res = find_causal_flow(geom)
            if res.status == "no-flow" and res.reason != "edge-bound":
                assert no_flow_reason_fault(geom, res) is None, geom
                reasons[res.reason] += 1
        assert min(reasons.values()) >= 20, reasons

    @pytest.mark.parametrize("size", [1000, 2000, 4000])
    def test_naming_the_reason_is_linear_on_stalling_family(self, size):
        # Augmenting from each r one at a time walks the whole dead cycle
        # first, which is quadratic; the layered phases read about 8.1m.
        geom = stalling_geometry(size, size)
        counting, reads = counting_geometry(geom)
        res = find_causal_flow(counting)
        assert res.reason == "cyclic-D"
        assert res.obstruction == tuple(sorted(geom.inputs))  # the greedy stalls at once
        assert reads[0] <= 12 * geom.graph.edge_count

    def test_names_no_flow_reasons_at_40000(self, six_cycle):
        sparse = random_sparse_geometry(random.Random(40), 40_000, 120_000, 5)
        extremal, _cover = generate_extremal(ExtremalPartition((8000,) * 5))
        gadget = disjoint_union([extremal, six_cycle])
        offset = extremal.vertex_count
        res = find_causal_flow(sparse)
        assert res.reason == "no-cover"
        assert verify_obstruction(sparse, res.obstruction)
        res = find_causal_flow(gadget)
        assert res.reason == "cyclic-D"
        assert res.obstruction == (offset, offset + 1, offset + 2)
        assert set(res.cycle) <= set(range(offset, offset + 6))
        assert verify_obstruction(gadget, res.obstruction)

    def test_decides_extremal_k5_at_40000_under_one_second(self):
        geom, _cover = generate_extremal(ExtremalPartition((8000,) * 5))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            res = find_causal_flow(geom)
            best = min(best, time.perf_counter() - t0)
        assert res.status == "found"
        assert verify_flow(geom, res.flow).ok
        assert best < 1.0, f"{best:.3f}s"


class TestObstruction:
    def test_six_cycle_certificate(self, six_cycle):
        assert verify_obstruction(six_cycle, (0, 1, 2))

    def test_dropping_a_vertex_fails(self, six_cycle):
        for v in (0, 1, 2):
            assert not verify_obstruction(six_cycle, {0, 1, 2} - {v})

    def test_empty_set_fails(self, six_cycle):
        assert not verify_obstruction(six_cycle, ())

    def test_outputs_and_unknown_vertices_fail(self, six_cycle):
        assert not verify_obstruction(six_cycle, (0, 1, 2, 3))
        assert not verify_obstruction(six_cycle, (0, 1, 2, 6))

    @pytest.mark.parametrize("bad", [1.0, "1", True])
    def test_non_int_ids_fail(self, six_cycle, bad):
        assert verify_obstruction(six_cycle, (0, 1, 2))
        assert not verify_obstruction(six_cycle, (0, bad, 2))
        assert not verify_obstruction(path_geometry(3), [bad])

    def test_no_cover_certificate(self):
        g = Graph.from_edges(2, [(0, 1)])
        geom = Geometry(g, frozenset({1}), frozenset({1}))
        res = find_causal_flow(geom)
        assert res.reason == "no-cover"
        assert res.obstruction == (0,)
        assert verify_obstruction(geom, res.obstruction)

    @given(geometries(max_vertices=5), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_accepted_sets_rule_out_flows(self, geom, rng):
        subset = [v for v in range(geom.vertex_count) if rng.random() < 0.5]
        if verify_obstruction(geom, subset):
            assert brute_force_flow(geom) is None


class TestBruteForceOracle:
    def test_six_cycle_definitive_absence(self, six_cycle):
        assert brute_force_flow(six_cycle) is None

    def test_two_isolated_vertices_inputs_equal_outputs(self):
        g = Graph.from_edges(2)
        geom = Geometry(g, frozenset({0, 1}), frozenset({0, 1}))
        flow = brute_force_flow(geom)
        assert flow is not None
        assert flow.successor.pairs == ()

    def test_bound_enforced(self):
        geom = path_geometry(11)
        with pytest.raises(OracleBoundError):
            brute_force_flow(geom)
        assert brute_force_flow(geom, bound=11) is not None

    def test_returns_lexicographically_first_f(self):
        # diamond: both 0->1 and 0->2 start valid flows; lex order picks 1
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
        geom = Geometry(g, frozenset({0}), frozenset({3, 2}))
        flow = brute_force_flow(geom)
        assert flow is not None
        assert flow.successor.image[0] == 1

    @given(geometries(max_vertices=5))
    @settings(max_examples=120, deadline=None)
    def test_oracle_agrees_with_pipeline(self, geom):
        oracle = brute_force_flow(geom)
        res = find_causal_flow(geom)
        assert (oracle is not None) == (res.status == "found")
        if oracle is not None:
            assert verify_flow(geom, oracle).ok
            # orbits of any produced flow must lay out as a valid cover
            check_cover(geom, orbit_cover(geom, oracle))
        if res.status == "found":
            assert verify_flow(geom, res.flow).ok
            check_cover(geom, orbit_cover(geom, res.flow))
        elif res.reason != "edge-bound":
            assert verify_obstruction(geom, res.obstruction)

    def test_seeded_differential_n7_to_10(self):
        rng = random.Random(2007)
        found = 0
        for i in range(240):
            geom = random_geometry(rng, 7 + i % 4)
            oracle = brute_force_flow(geom)
            res = find_causal_flow(geom)
            assert (oracle is not None) == (res.status == "found"), geom
            if res.status == "found":
                found += 1
                assert verify_flow(geom, res.flow).ok
                assert orbit_counting_holds(geom, res.flow) and orbit_counting_holds(geom, oracle)
            elif res.reason != "edge-bound":
                assert verify_obstruction(geom, res.obstruction)
        assert 40 <= found <= 200  # the sample covers both verdicts

    @given(geometries(max_vertices=5))
    @settings(max_examples=60, deadline=None)
    def test_edge_gate_soundness(self, geom):
        from flowscope import gamma

        n, k = geom.vertex_count, geom.output_count
        if n == 0 or k == 0:
            return
        if geom.graph.edge_count > gamma(n, k):
            assert brute_force_flow(geom) is None


class TestFlowSerialization:
    def test_round_trip(self):
        geom = path_geometry(4)
        res = find_causal_flow(geom)
        text = dump_flow(geom, res.flow)
        flow, cover = load_flow(geom, text)
        assert flow == res.flow
        assert cover == orbit_cover(geom, res.flow)
        assert dump_flow(geom, flow, cover) == text

    def test_orbit_split_just_before_vertex_0_refused(self):
        # On the path 1 - 0 - 2, f(1) = 0: a path that stops at 1 splits an orbit.
        geom = Geometry(Graph.from_edges(3, [(0, 1), (0, 2)]), frozenset({1}), frozenset({2}))
        data = json.loads(dump_flow(geom, find_causal_flow(geom).flow))
        assert data["paths"] == [["1", "0", "2"]]
        data["paths"] = [["1"], ["0", "2"]]
        with pytest.raises(FlowFormatError, match=r"^paths\[0\]: ends at '1', where f is defined$"):
            load_flow(geom, json.dumps(data))

    def test_float_id_of_cover_rejected(self):
        # A bool is not a vertex id either, though True == 1.
        geom = path_geometry(3)
        flow = find_causal_flow(geom).flow
        for bad, message in [(1.0, r"^unknown vertex 1\.0$"), (True, r"^unknown vertex True$")]:
            with pytest.raises(GeometryError, match=message):
                dump_flow(geom, flow, PathCover(((0, bad, 2),)))

    @pytest.mark.parametrize("bad", [False, True, 1.0, -1])
    def test_bad_rank_refused_as_load_flow_refuses(self, bad):
        # A bool was written as False, a float or negative rank made a file
        # that load_flow rejects; dump_flow refuses each with load_flow's message.
        geom, _ = generate_extremal(ExtremalPartition((2, 2)))
        flow = find_causal_flow(geom).flow
        v = geom.id_of("v2_1")
        broken = CausalFlow(flow.successor, flow.order_rank[:v] + (bad,) + flow.order_rank[v + 1 :])
        with pytest.raises(FlowFormatError) as loaded:
            load_flow(geom, reference_dump_flow(geom, broken))
        with pytest.raises(FlowDomainError) as dumped:
            dump_flow(geom, broken)
        assert str(dumped.value) == str(loaded.value) == "ranks['v2_1']: expected a non-negative integer"

    def test_short_rank_tuple_refused_as_load_flow_refuses(self):
        geom, _ = generate_extremal(ExtremalPartition((2, 2)))
        flow = find_causal_flow(geom).flow
        missing = geom.label_of(geom.vertex_count - 1)
        data = json.loads(dump_flow(geom, flow))
        del data["ranks"][missing]
        with pytest.raises(FlowFormatError) as loaded:
            load_flow(geom, json.dumps(data))
        with pytest.raises(FlowDomainError) as dumped:
            dump_flow(geom, CausalFlow(flow.successor, flow.order_rank[:-1]))
        assert str(dumped.value) == str(loaded.value) == f"missing rank for vertex {missing!r}"

    def test_unknown_label_rejected(self):
        geom = path_geometry(2)
        from flowscope import FlowFormatError

        with pytest.raises(FlowFormatError, match="unknown"):
            load_flow(geom, '{"successor": {"9": "1"}, "ranks": {}, "paths": []}')

    def test_missing_rank_rejected(self):
        geom = path_geometry(2)
        from flowscope import FlowFormatError

        with pytest.raises(FlowFormatError, match="missing rank"):
            load_flow(geom, '{"successor": {"0": "1"}, "ranks": {"0": 0}, "paths": [["0", "1"]]}')


def plus_one_edge(geom: Geometry) -> Geometry:
    """``geom`` with its first missing edge added; inputs, outputs and labels kept."""
    adj = geom.graph.adjacency
    extra = next((u, v) for u in range(geom.vertex_count) for v in range(u + 1, geom.vertex_count) if v not in adj[u])
    return Geometry(
        Graph.from_edges(geom.vertex_count, [*geom.graph.edges(), extra]), geom.inputs, geom.outputs, geom.labels
    )


def test_flow_from_cover_refuses_past_the_edge_bound():
    # One edge more than gamma(n, k): the gate decides before the cover is read.
    geom, cover = generate_extremal(ExtremalPartition((2, 3, 3)))
    denser = plus_one_edge(geom)
    assert denser.graph.edge_count == gamma(denser.vertex_count, denser.output_count) + 1
    res = flow_from_cover(denser, cover)
    assert (res.status, res.reason, res.cover, res.flow) == ("no-flow", "edge-bound", None, None)


@given(geometries(max_vertices=5))
@settings(max_examples=80, deadline=None)
def test_found_flows_reconstruct_as_covers(geom):
    res = find_causal_flow(geom)
    if res.status != "found":
        return
    # the search lays out no cover; the orbits of f form one
    assert res.cover is None
    cover = orbit_cover(geom, res.flow)
    assert successor_function(geom.vertex_count, cover_pairs(cover)) == res.flow.successor
    check_cover(geom, cover)
