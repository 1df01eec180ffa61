"""The ``no-cover`` verdict against networkx's Hopcroft-Karp matching, at scale.

On a geometry with k >= 1 outputs that the edge gate passes,
``find_causal_flow`` must answer ``no-cover`` exactly when no matching
gives every measured vertex its own partner among its non-input
neighbours.  networkx finds a maximum matching of that bipartite graph
with no code in common with the package.  Tier-1 runs the check up to
n = 2000; ``python -m pytest -m scale`` runs it at n = 10000.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import Callable, Sequence, TypeVar

import pytest

from flowscope import Geometry, Graph, find_causal_flow, gamma

T = TypeVar("T")


def random_gated_geometry(rng: random.Random, n: int) -> Geometry:
    """A random sparse geometry on n vertices with 1 to 5 outputs that the edge gate passes.

    Three in ten have up to 2n uniform random edges.  The rest are k
    random paths ending at the outputs, less a few of their edges, plus
    up to n/2 chords, with inputs mostly at the path starts: f along the
    paths would be a matching but for the dropped edges, so some of these
    have a saturating matching and some do not.
    """
    k = rng.randint(1, 5)
    if rng.random() < 0.3:
        size = rng.randint(n // 2, min(2 * n, gamma(n, k)))
        edges: set[tuple[int, int]] = set()
        outputs = rng.sample(range(n), k)
        pool: Sequence[int] = range(n)
    else:
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), k - 1))
        paths = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        edges = {(min(u, v), max(u, v)) for path in paths for u, v in zip(path, path[1:])}
        for edge in rng.sample(sorted(edges), min(len(edges), rng.randint(0, 3))):
            edges.discard(edge)
        size = len(edges) + rng.randint(0, min(gamma(n, k) - len(edges), n // 2))
        outputs = [path[-1] for path in paths]
        pool = [path[0] for path in paths] if rng.random() < 0.7 else range(n)
    while len(edges) < size:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    inputs = rng.sample(pool, rng.randint(0, min(k, len(pool))))
    return Geometry(Graph.from_edges(n, sorted(edges)), frozenset(inputs), frozenset(outputs))


def deep_call(call: Callable[[], T], depth: int) -> T:
    """``call()``, run where Python may recurse ``depth`` frames deep.

    networkx follows an augmenting path with one recursive call per step,
    and such a path may hold every measured vertex.  So the call runs in a
    thread with a 256 MB stack, and the recursion limit, which is
    process-wide, is raised for the length of the call.
    """
    out: list = []

    def run() -> None:
        try:
            out.append((True, call()))
        except Exception as exc:  # raised again in the caller below
            out.append((False, exc))

    limit = sys.getrecursionlimit()
    stack = threading.stack_size(1 << 28)
    sys.setrecursionlimit(max(limit, 2 * depth + 1000))
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(stack)
        sys.setrecursionlimit(limit)
    ok, value = out[0]
    if not ok:
        raise value
    return value


def assert_no_cover_iff_unmatchable(geom: Geometry) -> str:
    """Check the verdict of ``geom`` against a Hopcroft-Karp maximum matching; return its reason."""
    nx = pytest.importorskip("networkx")
    assert geom.output_count >= 1 and geom.graph.edge_count <= gamma(geom.vertex_count, geom.output_count)
    bipartite = nx.Graph()
    measured = [("x", x) for x in geom.measured]
    bipartite.add_nodes_from(measured)
    adj = geom.graph.adjacency
    bipartite.add_edges_from(
        (("x", x), ("y", y)) for x in geom.measured for y in adj[x] if y not in geom.inputs
    )
    matching = deep_call(lambda: nx.bipartite.hopcroft_karp_matching(bipartite, top_nodes=measured), len(measured))
    saturated = sum(1 for x in measured if x in matching) == len(measured)
    result = find_causal_flow(geom)
    assert (result.reason == "no-cover") == (not saturated), (result.status, result.reason)
    return result.reason


@pytest.mark.parametrize(
    "n, count", [(20, 300), (200, 60), (2000, 12), pytest.param(10000, 8, marks=pytest.mark.scale)]
)
def test_no_cover_exactly_when_hopcroft_karp_leaves_a_vertex_unmatched(n, count):
    rng = random.Random(n)
    reasons = [assert_no_cover_iff_unmatchable(random_gated_geometry(rng, n)) for _ in range(count)]
    assert "no-cover" in reasons and len(set(reasons) - {"no-cover"}) >= 1, reasons
