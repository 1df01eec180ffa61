"""Bipartite matching behind the no-flow diagnosis.

Left vertices are the positions 0..len(candidates)-1; ``candidates[i]``
lists the right vertices available to position i in ascending order.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

_INF = float("inf")


def max_matching(candidates: Sequence[Sequence[int]]) -> list[int | None]:
    """A maximum matching: the right vertex of each position, or None.

    Hopcroft-Karp with deterministic (ascending) tie-breaking.
    """
    right_index: dict[int, int] = {}
    adj = [[right_index.setdefault(y, len(right_index)) for y in row] for row in candidates]

    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * len(right_index)
    dist: list[float] = [0.0] * n_left
    while _bfs_layers(adj, match_l, match_r, dist):
        for u in range(n_left):
            if match_l[u] == -1:
                _augment(u, adj, dist, match_l, match_r)
    right_vertex = list(right_index)
    return [right_vertex[j] if j != -1 else None for j in match_l]


def _bfs_layers(adj, match_l, match_r, dist) -> bool:
    queue: deque[int] = deque()
    free_dist = _INF
    for u in range(len(adj)):
        if match_l[u] == -1:
            dist[u] = 0
            queue.append(u)
        else:
            dist[u] = _INF
    while queue:
        u = queue.popleft()
        if dist[u] >= free_dist:
            continue
        for v in adj[u]:
            w = match_r[v]
            if w == -1:
                free_dist = min(free_dist, dist[u] + 1)
            elif dist[w] == _INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return free_dist != _INF


def _augment(root, adj, dist, match_l, match_r) -> bool:
    # Iterative layered DFS; recursion depth would track path length.
    us = [root]
    its = [iter(adj[root])]
    vs: list[int] = [-1]
    while us:
        u = us[-1]
        moved = False
        for v in its[-1]:
            w = match_r[v]
            if w == -1:
                vs[-1] = v
                for uu, vv in zip(us, vs):
                    match_l[uu] = vv
                    match_r[vv] = uu
                return True
            if dist[w] == dist[u] + 1:
                vs[-1] = v
                us.append(w)
                its.append(iter(adj[w]))
                vs.append(-1)
                moved = True
                break
        if not moved:
            dist[u] = _INF
            us.pop()
            its.pop()
            vs.pop()
    return False
