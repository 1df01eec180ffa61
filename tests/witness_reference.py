"""The no-flow witness as it was before it was confined to the obstruction.

``find_causal_flow`` once completed the greedy's matching over the whole
graph: it built the owner of every partner, and each phase layered every
measured vertex from every free partner.  It then ranked the whole
influencing digraph of the completed f to find a cycle.  These are those
routines, kept verbatim as the reference that the witness sweep compares
the package's ``find_causal_flow`` with; they share only the edge gate
and the backward greedy with it.  Not public API.
"""

from __future__ import annotations

from typing import Sequence

from flowscope import CausalFlow, FlowSearchResult, Geometry, SuccessorFunction
from flowscope.flow import _backward_greedy, _exceeds_gamma


def reference_find_causal_flow(geom: Geometry) -> FlowSearchResult:
    """``find_causal_flow``, with the matching completed and the cycle found over the whole graph."""
    if _exceeds_gamma(geom):
        return FlowSearchResult("no-flow", reason="edge-bound")
    image, layer, unprocessed = _backward_greedy(geom)
    if not unprocessed:
        depth = max(layer, default=0)
        flow = CausalFlow(SuccessorFunction(tuple(image)), tuple(depth - l for l in layer))
        return FlowSearchResult("found", flow=flow)
    obstruction = tuple(unprocessed)
    if geom.output_count == 0 or not reference_complete_matching(geom, image, unprocessed):
        return FlowSearchResult("no-flow", reason="no-cover", obstruction=obstruction)
    _ranks, cycle = reference_influence_order(geom, image)
    if cycle is None:
        raise AssertionError("backward greedy stalled on a geometry that has a flow")
    return FlowSearchResult("no-flow", reason="cyclic-D", cycle=cycle, obstruction=obstruction)


def reference_complete_matching(geom: Geometry, image: list[int], exposed: list[int]) -> bool:
    """Extend ``image`` in place to give every vertex of ``exposed`` a partner; False if impossible.

    ``image`` matches measured vertices to distinct non-input neighbours,
    and ``exposed`` lists the measured vertices it leaves out.  Each phase
    layers the measured vertices by their alternating distance to a free
    partner, searching backwards from every free non-input vertex.  An
    exposed vertex left unlayered has no augmenting path, so no matching
    saturates it and the answer is False.  Otherwise each exposed vertex,
    ascending, augments along strictly falling layers through vertices
    not yet used in the phase, and those that fail wait for the next
    phase.  A root on layer 0 takes its first free partner.  On the
    greedy's image only ``exposed`` changes, and every cycle of the result
    lies in it, since no greedy partner has an unprocessed neighbour.
    """
    n = geom.vertex_count
    adj = geom.graph.adjacency
    inputs = geom.inputs
    owner = [-1] * n  # the measured vertex matched to each partner
    for x, y in enumerate(image):
        if y >= 0:
            owner[y] = x
    # Outputs never get a layer: the sentinel n marks them as not measured.
    unlayered = [n if v in geom.outputs else -1 for v in range(n)]
    free = [y for y in range(n) if owner[y] < 0 and y not in inputs]
    while exposed:
        layer = unlayered[:]
        partners, depth = free, 0
        while partners:
            upcoming = []
            for y in partners:
                for x in adj[y]:
                    if layer[x] < 0:
                        layer[x] = depth
                        if image[x] >= 0:
                            upcoming.append(image[x])
            partners, depth = upcoming, depth + 1
        if any(layer[x] < 0 for x in exposed):
            return False
        used = [False] * n
        for root in exposed:
            path = [root]
            scans = [iter(adj[root])]
            while path:
                x = path[-1]
                for y in scans[-1]:
                    if y in inputs:
                        continue
                    o = owner[y]
                    if o < 0:
                        # y is free: each vertex on the path takes the next one's partner.
                        for u in reversed(path):
                            owner[y] = u
                            image[u], y = y, image[u]
                            used[u] = True
                        path = []
                        break
                    if layer[o] == layer[x] - 1 and not used[o]:
                        path.append(o)
                        scans.append(iter(adj[o]))
                        break
                else:
                    used[x] = True
                    path.pop()
                    scans.pop()
        exposed = [x for x in exposed if image[x] < 0]
        free = [y for y in free if owner[y] < 0]
    return True


def reference_influence_order(
    geom: Geometry, image: Sequence[int]
) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """Ranks of the influencing digraph of f's ``image`` as ``(ranks, None)``, or ``(None, cycle)``.

    The successors of x are f(x) and the neighbours of f(x) other than x,
    so no arc list is built.  Vertices are taken a whole layer at a time,
    which makes the layer in which a vertex's in-degree reaches zero its
    longest-path rank; every arc thus raises the rank by at least one.  A
    processed x also decrements its own in-degree when it meets itself
    among the neighbours of f(x); that count is then negative and never
    reaches zero again.
    """
    n = geom.vertex_count
    adj = geom.graph.adjacency
    indeg = [0] * n
    for x, fx in enumerate(image):
        if fx < 0:
            continue
        nbrs = adj[fx]
        indeg[fx] += 1
        for y in nbrs:
            indeg[y] += 1
        if x in nbrs:
            indeg[x] -= 1
    layer = [-1] * n
    frontier = [v for v in range(n) if not indeg[v]]
    depth = 0
    while frontier:
        upcoming = []
        for u in frontier:
            layer[u] = depth
            fu = image[u]
            if fu < 0:
                continue
            indeg[fu] -= 1
            if not indeg[fu]:
                upcoming.append(fu)
            for w in adj[fu]:
                indeg[w] -= 1
                if not indeg[w]:
                    upcoming.append(w)
        frontier = upcoming
        depth += 1
    if min(layer, default=0) >= 0:
        return tuple(layer), None
    return None, reference_extract_cycle(adj, image, layer)


def reference_extract_cycle(
    adj: tuple[tuple[int, ...], ...], image: Sequence[int], layer: list[int]
) -> tuple[int, ...]:
    """The cycle met walking back from the smallest unranked vertex, rotated to its smallest.

    ``image`` is an injective f, and ``layer`` is -1 on the vertices that
    ``reference_influence_order`` left unranked.  The predecessors of v
    are the u with f(u) = v or with f(u) adjacent to v (u != v), so each
    is read from f's inverse at v and at v's neighbours.  Each step goes
    to the smallest unranked predecessor.  Every unranked vertex keeps
    one, so the walk revisits a vertex within n steps.
    """
    source = [-1] * len(image)  # the inverse of f
    for u, fu in enumerate(image):
        if fu >= 0:
            source[fu] = u
    cur = layer.index(-1)
    seen = {cur: 0}
    path = [cur]
    while True:
        prev = min(u for w in (cur, *adj[cur]) if (u := source[w]) >= 0 and u != cur and layer[u] < 0)
        if prev in seen:
            cycle = path[seen[prev]:][::-1]
            pivot = cycle.index(min(cycle))
            return tuple(cycle[pivot:] + cycle[:pivot])
        seen[prev] = len(path)
        path.append(prev)
        cur = prev
