"""Metamorphic relations of the flow search: relabelling and disjoint unions.

Each relation holds for the greedy alone, so it needs no oracle and runs
at the sizes the paper is about.  The ``assert_*`` helpers are also run
at n = 40000 by a CI smoke step.
"""

from __future__ import annotations

import random

from flowscope import (
    ExtremalPartition,
    FlowSearchResult,
    Geometry,
    Graph,
    find_causal_flow,
    generate_extremal,
    load_geometry,
)

from .conftest import SIX_CYCLE_TEXT, path_geometry, relabel
from .extremal_reference import orbit_counting_holds
from .test_extremal import random_partition
from .test_flow import disjoint_union, grid_geometry, random_geometry

SIX_CYCLE = load_geometry(SIX_CYCLE_TEXT)  # cyclic-D
# The no-cover gadget: one measured vertex whose only neighbour is an input.
NO_COVER_GADGET = Geometry(Graph.from_edges(2, [(0, 1)]), frozenset({1}), frozenset({1}))


def assert_relabel_invariant(geom: Geometry, rng: random.Random) -> FlowSearchResult:
    """Relabel ``geom`` by a random permutation and check that the verdict maps across; return it.

    Status and reason must not change.  The ranks (so the depth) and the
    obstruction must map across exactly, and the successor too when
    |I| = |O|, where the flow is unique.  A found flow must obey the orbit
    counting of ``orbit_counting_holds``.
    """
    n = geom.vertex_count
    perm = rng.sample(range(n), n)
    res = find_causal_flow(geom)
    moved = find_causal_flow(relabel(geom, perm))
    assert (moved.status, moved.reason) == (res.status, res.reason)
    if res.status == "found":
        assert orbit_counting_holds(geom, res.flow)
        ranks = [0] * n
        for v, rank in enumerate(res.flow.order_rank):
            ranks[perm[v]] = rank
        assert moved.flow.order_rank == tuple(ranks)
        assert moved.flow.depth == res.flow.depth
        if len(geom.inputs) == geom.output_count:
            pairs = sorted((perm[x], perm[y]) for x, y in res.flow.successor.pairs)
            assert moved.flow.successor.pairs == tuple(pairs)
    elif res.obstruction is None:
        assert moved.obstruction is None
    else:
        assert moved.obstruction == tuple(sorted(perm[v] for v in res.obstruction))
    return res


def assert_gadget_union(geom: Geometry, gadget: Geometry) -> None:
    """``geom``, which has a flow, beside a no-flow ``gadget`` with an output: the gadget's verdict, shifted."""
    alone = find_causal_flow(gadget)
    assert alone.status == "no-flow" and alone.reason != "edge-bound" and gadget.output_count
    res = find_causal_flow(disjoint_union([geom, gadget]))
    n = geom.vertex_count
    assert (res.status, res.reason) == ("no-flow", alone.reason)
    assert res.obstruction == tuple(v + n for v in alone.obstruction)


def assert_flow_union(first: Geometry, second: Geometry) -> None:
    """Two geometries with flows, side by side: a flow of the larger depth, f the two fs, the second shifted.

    The union's flow must obey the orbit counting of ``orbit_counting_holds``.
    """
    a, b = find_causal_flow(first).flow, find_causal_flow(second).flow
    union = disjoint_union([first, second])
    res = find_causal_flow(union)
    assert res.status == "found" and orbit_counting_holds(union, res.flow)
    assert res.flow.depth == max(a.depth, b.depth)
    n = first.vertex_count
    assert res.flow.successor.pairs == a.successor.pairs + tuple((x + n, y + n) for x, y in b.successor.pairs)


def test_relations_on_small_random_geometries():
    rng = random.Random(4007)
    flows: list[Geometry] = []
    gadgets = [SIX_CYCLE, NO_COVER_GADGET]
    counts = {"found": 0, "unique": 0, "no-cover": 0, "cyclic-D": 0}
    for _ in range(3000):
        geom = random_geometry(rng, rng.randint(1, 30))
        res = assert_relabel_invariant(geom, rng)
        if res.status == "found":
            counts["found"] += 1
            counts["unique"] += len(geom.inputs) == geom.output_count
            flows.append(geom)
        elif res.reason in counts:
            counts[res.reason] += 1
            if geom.vertex_count <= 12:
                gadgets.append(geom)
    # The sample covers every verdict, and unique flows among the found.
    assert all(count >= 100 for count in counts.values()), counts
    for i, geom in enumerate(flows[:400]):
        assert_gadget_union(geom, gadgets[i % len(gadgets)])
        assert_flow_union(geom, flows[-1 - i])


def test_relations_on_extremal_and_grid_geometries_up_to_5000():
    rng = random.Random(20071009)
    extremal = [generate_extremal(random_partition(rng, 5000))[0] for _ in range(6)]
    large = extremal + [grid_geometry(11, 400), grid_geometry(70, 70), path_geometry(5000)]
    for i, geom in enumerate(large):
        res = assert_relabel_invariant(geom, rng)
        assert res.status == "found" and len(geom.inputs) == geom.output_count
        assert orbit_counting_holds(geom, res.flow, tight=i < len(extremal))
    small, _ = generate_extremal(ExtremalPartition((2, 3, 3)))
    for geom in large[::2]:
        assert_gadget_union(geom, SIX_CYCLE)
        assert_gadget_union(geom, NO_COVER_GADGET)
    for first, second in zip(large, large[1:] + [small]):
        assert_flow_union(first, second)
