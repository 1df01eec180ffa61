"""The exhaustive oracle: frozen-reference equality, long instances, and the 7-vertex atlas sweep."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from flowscope import (
    Geometry,
    Graph,
    brute_force_flow,
    find_causal_flow,
    verify_flow,
    verify_obstruction,
)

from .conftest import path_geometry
from .oracle_reference import reference_brute_force_flow

REFERENCE_INSTANCES = 1500
ATLAS_CHOICES = 4
ATLAS_SEVEN_GRAPHS = 1044


def random_geometry(rng: random.Random, n: int, density: float) -> Geometry:
    """Each pair an edge with probability ``density``; a random non-empty O and an I no larger."""
    edges = [pair for pair in combinations(range(n), 2) if rng.random() < density]
    outputs = rng.sample(range(n), rng.randint(1, n))
    inputs = rng.sample(range(n), rng.randint(0, len(outputs)))
    return Geometry(Graph.from_edges(n, edges), frozenset(inputs), frozenset(outputs))


def test_matches_frozen_reference():
    rng = random.Random(20071)
    found = 0
    for _ in range(REFERENCE_INSTANCES):
        geom = random_geometry(rng, rng.randint(5, 10), rng.choice((0.2, 0.4, 0.6, 0.9)))
        flow = brute_force_flow(geom)
        assert flow == reference_brute_force_flow(geom), geom
        found += flow is not None
    # Both verdicts must be well represented for the comparison to mean anything.
    assert REFERENCE_INSTANCES // 5 < found < REFERENCE_INSTANCES * 4 // 5


def test_long_path_within_raised_bound():
    geom = path_geometry(1500)
    flow = brute_force_flow(geom, bound=1500)
    assert flow is not None
    assert flow.successor.pairs == tuple((i, i + 1) for i in range(1499))
    assert verify_flow(geom, flow)


def test_seven_vertex_atlas_sweep():
    """Every 7-vertex atlas graph under seeded (I, O) choices: verdicts agree, certificates check."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    graphs = [ng for ng in nx.graph_atlas_g() if ng.number_of_nodes() == 7]
    assert len(graphs) == ATLAS_SEVEN_GRAPHS
    tally = {"found": 0, "no-flow": 0, "edge-bound": 0}
    for ng in graphs:
        graph = Graph.from_edges(7, list(ng.edges()))
        for _ in range(ATLAS_CHOICES):
            outputs = rng.sample(range(7), rng.randint(1, 7))
            inputs = rng.sample(range(7), rng.randint(0, len(outputs)))
            geom = Geometry(graph, frozenset(inputs), frozenset(outputs))
            oracle = brute_force_flow(geom)
            result = find_causal_flow(geom)
            assert (oracle is not None) == (result.status == "found"), geom
            if oracle is not None:
                assert verify_flow(geom, oracle), geom
                assert verify_flow(geom, result.flow), geom
            elif result.reason != "edge-bound":
                assert verify_obstruction(geom, result.obstruction), geom
            tally["edge-bound" if result.reason == "edge-bound" else result.status] += 1
    assert min(tally.values()) > 0, tally
