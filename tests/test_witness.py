"""The greedy and the no-flow witness against their frozen references.

``find_causal_flow`` runs a backward greedy that keeps counts only, then
completes the greedy's matching and seeks the cycle of a ``cyclic-D``
verdict on the obstruction S alone.  ``tests.witness_reference`` keeps
the count-and-XOR greedy and the whole-graph completion and ranking that
these replaced.  On every geometry the two must give equal results: the
greedy's image, layers and unprocessed rest, and the verdict's status,
reason, cycle and obstruction, and the flow when there is one.
"""

from __future__ import annotations

import random
from collections import Counter

from flowscope import ExtremalPartition, Geometry, Graph, find_causal_flow, generate_extremal, load_geometry
from flowscope.flow import _backward_greedy
from flowscope.geometry import serialize_geometry

from .conftest import path_geometry, relabel
from .test_flow import SIDE_SQUARE, disjoint_union, grid_geometry, random_sparse_geometry
from .test_metamorphic import SIX_CYCLE
from .witness_reference import reference_backward_greedy, reference_find_causal_flow

SWEEP_GEOMETRIES = 20_000
# The gadget unions of the search-mixed benchmark: (base, side squares).
GADGET_SHAPES = [
    (path_geometry(12), 3),
    (path_geometry(12), 5),
    (grid_geometry(3, 8), 5),
    (path_geometry(20), 6),
]


def small_geometry(rng: random.Random) -> Geometry:
    """A random geometry on at most 16 vertices, dense or sparse, with up to 5 inputs and 5 outputs."""
    n = rng.randint(0, 16)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if rng.random() < 0.5:
        density = rng.uniform(0.05, 0.5)
        edges = [pair for pair in pairs if rng.random() < density]
    else:
        edges = rng.sample(pairs, min(len(pairs), rng.randint(n // 2, 2 * n)))
    inputs = rng.sample(range(n), rng.randint(0, min(5, n)))
    outputs = rng.sample(range(n), rng.randint(0, min(5, n)))
    return Geometry(Graph.from_edges(n, edges), frozenset(inputs), frozenset(outputs))


def test_search_matches_the_whole_graph_witness_on_small_geometries():
    rng = random.Random(29)
    verdicts: Counter = Counter()
    for _ in range(SWEEP_GEOMETRIES):
        geom = small_geometry(rng)
        result = find_causal_flow(geom)
        assert result == reference_find_causal_flow(geom), sorted(geom.graph.edges())
        verdicts[result.reason] += 1
    # Every verdict is well represented: found (None), the edge gate and both witnesses.
    assert min(verdicts[reason] for reason in (None, "edge-bound", "no-cover", "cyclic-D")) > 1000, verdicts


def test_search_matches_the_whole_graph_witness_on_gadget_unions():
    rng = random.Random(2029)
    for base, squares in GADGET_SHAPES:
        for _ in range(25):
            parts = [base, SIX_CYCLE, *[SIDE_SQUARE] * squares]
            rng.shuffle(parts)
            union = disjoint_union(parts)
            geom = relabel(union, rng.sample(range(union.vertex_count), union.vertex_count))
            result = find_causal_flow(geom)
            assert result.reason == "cyclic-D"
            assert result == reference_find_causal_flow(geom)


def with_terminals(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> Geometry:
    """A graph on n vertices with up to 6 random inputs and 1 to 6 random outputs."""
    inputs = rng.sample(range(n), rng.randint(0, min(6, n)))
    outputs = rng.sample(range(n), rng.randint(1, min(6, n)))
    return Geometry(Graph.from_edges(n, edges), frozenset(inputs), frozenset(outputs))


def structured_geometries(rng: random.Random):
    """Extremal geometries relabelled and reloaded, grids, stars, complete bipartite, hubs and sparse graphs."""
    for _ in range(40):
        k = rng.randint(1, 6)
        n = rng.randint(k, 300)
        cuts = sorted(rng.sample(range(1, n), k - 1))
        parts = sorted(b - a for a, b in zip([0, *cuts], [*cuts, n]))
        geom, _cover = generate_extremal(ExtremalPartition(tuple(parts)))
        moved = relabel(geom, rng.sample(range(n), n))
        yield from (geom, moved, load_geometry(serialize_geometry(moved)))
    for _ in range(40):
        rows, cols = rng.randint(1, 20), rng.randint(1, 20)
        grid = grid_geometry(rows, cols)
        yield grid
        yield with_terminals(rng, rows * cols, list(grid.graph.edges()))
        n = rng.randint(2, 400)  # a star, its centre a random vertex
        centre = rng.randrange(n)
        yield with_terminals(rng, n, [(centre, v) for v in range(n) if v != centre])
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        yield with_terminals(rng, a + b, [(u, a + v) for u in range(a) for v in range(b)])
        n = rng.randint(3, 400)  # a path and a hub of degree n - 1
        hub = rng.randrange(n)
        rest = [v for v in range(n) if v != hub]
        yield with_terminals(rng, n, [(hub, v) for v in rest] + list(zip(rest, rest[1:])))
        n = rng.randint(2, 400)
        yield random_sparse_geometry(rng, n, rng.randint(0, min(2 * n, n * (n - 1) // 2)), rng.randint(1, min(6, n)))


def test_greedy_matches_its_frozen_reference():
    rng = random.Random(30)
    geometries = [small_geometry(rng) for _ in range(2000)] + list(structured_geometries(rng))
    stalled = 0
    for geom in geometries:
        image, layer, unprocessed = _backward_greedy(geom)
        assert (image, layer, unprocessed) == reference_backward_greedy(geom), sorted(geom.graph.edges())
        stalled += bool(unprocessed)
    # Both outcomes are well represented: greedies that stall and greedies that process every vertex.
    assert 500 < stalled < len(geometries) - 500, stalled
