"""The materialised influencing digraph, kept as the reference the adjacency-read ranking is tested against.

``influence_arcs`` lists the arcs from an edge set rather than the sorted
adjacency, and ``acyclic_order`` ranks them with Kahn's algorithm over an
explicit arc list, so neither shares code with ``flowscope.flow``.  The
cycle reported for a cyclic digraph follows the rule the package
documents: walk back from the smallest vertex Kahn's algorithm never
pops, always to its smallest unpopped predecessor, and rotate the first
cycle met to start at its smallest vertex.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from flowscope import Geometry


def influence_arcs(geom: Geometry, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Arcs x -> f(x) and x -> y for every other neighbour y of f(x), per (x, f(x)) pair."""
    neighbours: dict[int, set[int]] = {v: set() for v in range(geom.vertex_count)}
    for u, v in geom.graph.edges():
        neighbours[u].add(v)
        neighbours[v].add(u)
    arcs = []
    for x, fx in pairs:
        arcs.append((x, fx))
        arcs.extend((x, y) for y in sorted(neighbours[fx] - {x}))
    return arcs


def acyclic_order(
    n: int, arcs: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """Longest-path ranks as ``(ranks, None)``, or ``(None, cycle)`` for a cyclic digraph.

    Every arc raises the rank by at least one, and the ranks do not depend
    on the order in which the arcs are given.
    """
    arcs = list(arcs)
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in arcs:
        succ[u].append(v)
        indeg[v] += 1
    layer = [0] * n
    queue: deque[int] = deque(v for v in range(n) if indeg[v] == 0)
    popped = [False] * n
    while queue:
        u = queue.popleft()
        popped[u] = True
        for w in succ[u]:
            layer[w] = max(layer[w], layer[u] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if all(popped):
        return tuple(layer), None

    preds: dict[int, set[int]] = {}
    for u, v in arcs:
        if not popped[u] and not popped[v]:
            preds.setdefault(v, set()).add(u)
    walk = [min(v for v in range(n) if not popped[v])]
    while True:
        prev = min(preds[walk[-1]])
        if prev in walk:
            cycle = walk[walk.index(prev):][::-1]
            pivot = cycle.index(min(cycle))
            return None, tuple(cycle[pivot:] + cycle[:pivot])
        walk.append(prev)


def influence_order(
    geom: Geometry, pairs: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """``acyclic_order`` of the influencing digraph of the (x, f(x)) ``pairs``."""
    return acyclic_order(geom.vertex_count, influence_arcs(geom, pairs))
