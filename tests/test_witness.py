"""The no-flow witness, confined to the obstruction, against its frozen whole-graph reference.

``find_causal_flow`` completes the greedy's matching and seeks the cycle
of a ``cyclic-D`` verdict on the obstruction S alone.
``tests.witness_reference`` keeps the whole-graph completion and ranking
that this replaced.  On every geometry the two must give equal results:
status, reason, cycle and obstruction, and the flow when there is one.
"""

from __future__ import annotations

import random
from collections import Counter

from flowscope import Geometry, Graph, find_causal_flow

from .conftest import path_geometry, relabel
from .test_flow import SIDE_SQUARE, disjoint_union, grid_geometry
from .test_metamorphic import SIX_CYCLE
from .witness_reference import reference_find_causal_flow

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

