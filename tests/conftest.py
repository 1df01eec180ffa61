"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import json
from itertools import combinations, product

import pytest
from hypothesis import strategies as st

from flowscope import Geometry, Graph, PathCover, load_geometry
from flowscope.flow import _splice_orbits

# Alternating 6-cycle a0-b0-a1-b1-a2-b2-a0 with the a side as inputs and
# the b side as outputs; the canonical geometry without a causal flow.
SIX_CYCLE_TEXT = json.dumps(
    {
        "vertices": ["a0", "a1", "a2", "b0", "b1", "b2"],
        "edges": [
            ["a0", "b0"],
            ["a1", "b0"],
            ["a1", "b1"],
            ["a2", "b1"],
            ["a2", "b2"],
            ["a0", "b2"],
        ],
        "inputs": ["a0", "a1", "a2"],
        "outputs": ["b0", "b1", "b2"],
    }
)


@pytest.fixture
def six_cycle() -> Geometry:
    return load_geometry(SIX_CYCLE_TEXT)


def path_geometry(n: int) -> Geometry:
    """Path v0-v1-...-v(n-1) with the first vertex as input, last as output."""
    graph = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return Geometry(graph, frozenset({0}), frozenset({n - 1}))


@st.composite
def geometries(draw, max_vertices: int = 6) -> Geometry:
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    vertex_sets = st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())
    inputs = draw(vertex_sets)
    outputs = draw(vertex_sets)
    return Geometry(Graph.from_edges(n, edges), inputs, outputs)


def saturating_assignments(candidates):
    """Every choice of distinct candidates, one per position, lexicographically."""
    for choice in product(*candidates):
        if len(set(choice)) == len(choice):
            yield choice


def first_path_cover(geom: Geometry) -> PathCover | None:
    """Orbits of the first saturating matching whose orbits form paths, or None.

    Matchings pair each measured vertex with a distinct neighbour outside
    the input set and are taken in lexicographic order.  The enumeration
    is exhaustive, so keep it to desk-scale instances.
    """
    n = geom.vertex_count
    if n == 0:
        return PathCover(())
    if geom.output_count == 0:
        return None
    allowed = set(geom.non_inputs)
    candidates = [[y for y in geom.graph.adjacency[x] if y in allowed] for x in geom.measured]
    for assignment in saturating_assignments(candidates):
        paths = _splice_orbits(n, dict(zip(geom.measured, assignment)))
        if paths is not None:
            return PathCover(paths)
    return None
