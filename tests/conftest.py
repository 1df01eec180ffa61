"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import json
from itertools import combinations, product

import pytest
from hypothesis import strategies as st

from flowscope import Geometry, Graph, PathCover, SuccessorFunction, load_geometry
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


def successor_function(n: int, pairs) -> SuccessorFunction:
    """f on n vertices from its (x, f(x)) pairs, undefined (-1) elsewhere; any candidate is accepted."""
    image = [-1] * n
    for x, fx in pairs:
        image[x] = fx
    return SuccessorFunction(tuple(image))


def cover_pairs(cover: PathCover) -> tuple[tuple[int, int], ...]:
    """The (u, v) steps along the cover's paths, path by path."""
    return tuple((u, v) for path in cover.paths for u, v in zip(path, path[1:]))


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


def candidate_lists(geom: Geometry) -> list[list[int]]:
    """Each measured vertex's possible partners: its neighbours outside the inputs, ascending."""
    return [[y for y in geom.graph.adjacency[x] if y not in geom.inputs] for x in geom.measured]


def saturating_assignments(candidates):
    """Every choice of distinct candidates, one per position, lexicographically."""
    for choice in product(*candidates):
        if len(set(choice)) == len(choice):
            yield choice


def no_flow_reason_fault(geom: Geometry, result) -> str | None:
    """How a no-flow reason contradicts the enumeration of saturating assignments, or None.

    The reason must be "no-cover" exactly when there is no output or no
    assignment pairs every measured vertex with a distinct neighbour
    outside the inputs; a "cyclic-D" cycle must be a closed walk of the
    influencing digraph of one such assignment.
    """
    # Imported here: the reference module imports this one's helpers.
    from .extremal_reference import iter_influence_arcs

    assignments = saturating_assignments(candidate_lists(geom))
    if result.reason == "no-cover":
        if geom.output_count and next(assignments, None) is not None:
            return "no-cover, but a saturating assignment exists"
        return None
    if result.reason != "cyclic-D" or not geom.output_count:
        return f"reason {result.reason} with {geom.output_count} outputs"
    cycle = result.cycle
    walk = set(zip(cycle, cycle[1:] + cycle[:1]))
    for assignment in assignments:
        if walk <= set(iter_influence_arcs(geom, zip(geom.measured, assignment))):
            return None
    return f"cycle {cycle} is in the influencing digraph of no saturating assignment"


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
    for assignment in saturating_assignments(candidate_lists(geom)):
        paths = _splice_orbits(successor_function(n, zip(geom.measured, assignment)).image)
        if paths is not None:
            return PathCover(paths)
    return None


def check_cover(geom: Geometry, cover: PathCover) -> None:
    """Raise ValueError unless ``cover`` is a path cover of ``geom``.

    A cover has one path per output, its paths are vertex-disjoint walks
    along edges that together visit every vertex, each path ends in an
    output, and outputs appear only as final points and inputs only as
    initial points.
    """
    if len(cover.paths) != geom.output_count:
        raise ValueError(
            f"cover has {len(cover.paths)} paths but the geometry has {geom.output_count} outputs"
        )
    seen: set[int] = set()
    for path in cover.paths:
        if not path:
            raise ValueError("empty path in cover")
        for u, v in zip(path, path[1:]):
            if v not in geom.graph.adjacency[u]:
                raise ValueError(f"consecutive vertices {u}, {v} are not adjacent")
        for pos, v in enumerate(path):
            if v in seen:
                raise ValueError(f"vertex {v} appears in two paths")
            seen.add(v)
            if v in geom.outputs and pos != len(path) - 1:
                raise ValueError(f"output vertex {v} is not a final point")
            if v in geom.inputs and pos != 0:
                raise ValueError(f"input vertex {v} is not an initial point")
        if path[-1] not in geom.outputs:
            raise ValueError(f"path ending at {path[-1]} does not end in an output")
    if len(seen) != geom.vertex_count:
        raise ValueError("cover does not visit every vertex")


def orbit_cover(geom: Geometry, flow) -> PathCover:
    """The orbits of a flow's f, laid out by ``_splice_orbits`` as ``dump_flow`` writes them."""
    paths = _splice_orbits(flow.successor.image)
    assert paths is not None, "f is not injective or has a cyclic orbit"
    return PathCover(paths)


def relabel(geom: Geometry, perm: list[int]) -> Geometry:
    """``geom`` with each vertex v renamed ``perm[v]``."""
    return Geometry(
        Graph.from_edges(geom.vertex_count, [(perm[u], perm[v]) for u, v in geom.graph.edges()]),
        frozenset(perm[v] for v in geom.inputs),
        frozenset(perm[v] for v in geom.outputs),
    )
