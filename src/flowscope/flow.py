"""Causal flow search and verification.

A causal flow pairs every measured vertex x with an adjacent partner f(x)
outside the input set, so that some vertex order puts x strictly before
f(x) and before every other neighbour of f(x).  Such an order exists for a
given f exactly when the induced influencing digraph is acyclic.

The decision runs the backward greedy of Mhalla and Perdrix ("Finding
optimal flows efficiently", arXiv:0709.2670) in O(n + m): starting from
the outputs, a processed vertex with exactly one unprocessed neighbour
becomes that neighbour's partner.  It keeps one count per vertex and
reads only the neighbour lists of the vertices it processes, so a greedy
that stalls early costs little more than its O(n) set-up.  The greedy is
complete, so every geometry is decided, and the flow it builds has
minimum depth.  A round of the greedy costs only the vertices it claims,
which matters on the paper's gamma-saturating geometries: each round
there claims one vertex, so the greedy runs n - k rounds.  When it
stalls, the vertices it never processed, the obstruction S, form a
no-flow certificate, and completing the greedy's partial matching names
the reason.  No greedy partner has a neighbour in S, so the completion
and the search for a cycle of a ``cyclic-D`` verdict work on S, its
neighbours and what S reaches, and no loop runs over the whole graph: a
no-flow verdict costs about one greedy pass.  Every verdict's
certificate is checked in one place, ``_certificate_holds``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Literal, Sequence

from flowscope.geometry import (
    Geometry,
    GeometryError,
    _first_bad,
    _gc_paused,
    _Record,
    json_block,
    load_json_object,
)

DEFAULT_ORACLE_BOUND = 10

SearchStatus = Literal["found", "no-flow"]


class FlowDomainError(ValueError):
    """A successor function does not map the measured set into allowed partners."""


class OracleBoundError(ValueError):
    """An instance exceeds the exhaustive oracle's size cap."""


class FlowFormatError(ValueError):
    """A flow file cannot be parsed against the given geometry."""


class SuccessorFunction(_Record):
    """Partial map from measured vertices to their correction partners.

    Stored as the image indexed by vertex: ``image[v]`` is f(v), or -1
    where f is undefined (the outputs, for a flow); ``pairs`` lists the
    (x, f(x)) where f is defined, ascending.  Construction accepts
    arbitrary candidates so that verifiers can inspect broken ones;
    ``verify_flow`` checks the full contract: the shape of a flow (see
    ``_check_flow``), adjacency, and the order conditions that imply
    injectivity.
    """

    _fields = ("image",)

    def __init__(self, image: tuple[int, ...]) -> None:
        self.__dict__["image"] = image

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple([(x, fx) for x, fx in enumerate(self.image) if fx != -1])


class PathCover(_Record):
    """Vertex-disjoint directed paths covering the whole graph.

    There is one path per output vertex; outputs appear only as final
    points and inputs only as initial points.
    """

    _fields = ("paths",)

    def __init__(self, paths: tuple[tuple[int, ...], ...]) -> None:
        self.__dict__["paths"] = paths


class CausalFlow(_Record):
    """A successor function plus a vertex rank map witnessing the order.

    ``order_rank[v]`` is a non-negative integer; arcs of the influencing
    digraph go strictly uphill in rank.
    """

    _fields = ("successor", "order_rank")

    def __init__(self, successor: SuccessorFunction, order_rank: tuple[int, ...]) -> None:
        d = self.__dict__
        d["successor"] = successor
        d["order_rank"] = order_rank

    @property
    def depth(self) -> int:
        return max(self.order_rank, default=0)


class FlowCheck(_Record):
    """Outcome of verifying a flow; falsy when a condition fails."""

    _fields = ("ok", "condition", "witness")

    def __init__(self, ok: bool, condition: str | None = None, witness: tuple[int, ...] | None = None) -> None:
        d = self.__dict__
        d["ok"] = ok
        d["condition"] = condition
        d["witness"] = witness

    def __bool__(self) -> bool:
        return self.ok


class FlowSearchResult(_Record):
    """Verdict of the flow pipeline.

    ``status`` is "found" or "no-flow".  A no-flow verdict carries a reason
    tag ("edge-bound", "no-cover", or "cyclic-D"); for cyclic-D, ``cycle``
    is a cycle of the influencing digraph of the greedy's matching, completed.
    Unless the edge gate decided, a no-flow verdict also carries
    ``obstruction``, the vertices the greedy never processed, ascending;
    ``verify_obstruction`` accepts it.  Only ``flow_from_cover`` sets
    ``cover``, to the cover it was given.
    """

    _fields = ("status", "flow", "cover", "reason", "cycle", "obstruction")

    def __init__(
        self,
        status: SearchStatus,
        flow: CausalFlow | None = None,
        cover: PathCover | None = None,
        reason: str | None = None,
        cycle: tuple[int, ...] | None = None,
        obstruction: tuple[int, ...] | None = None,
    ) -> None:
        d = self.__dict__
        d["status"] = status
        d["flow"] = flow
        d["cover"] = cover
        d["reason"] = reason
        d["cycle"] = cycle
        d["obstruction"] = obstruction


def gamma(n: int, k: int) -> int:
    """Maximum edge count of an n-vertex geometry with k outputs that can
    still admit a causal flow."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n < k:
        raise ValueError(f"n must be at least k, got n={n}, k={k}")
    return k * n - k * (k + 1) // 2


def _exceeds_gamma(geom: Geometry) -> bool:
    """The paper's edge gate: with k >= 1 outputs, more than gamma(n, k) edges rule out every flow."""
    k = geom.output_count
    return k >= 1 and geom.graph.edge_count > gamma(geom.vertex_count, k)


def verify_flow(geom: Geometry, flow: CausalFlow) -> FlowCheck:
    """Check the three flow conditions against a geometry.

    Returns the first violated condition with witnesses: "adjacency" when
    x is not adjacent to f(x), "successor-order" when rank(x) is not below
    rank(f(x)), and "neighborhood-order" when some other neighbour y of
    f(x) does not come strictly after x.  A flow without the shape of one
    on ``geom`` raises FlowDomainError instead (see ``_check_flow``).
    """
    _check_flow(geom, flow)
    adj = geom.graph.adjacency
    ranks = flow.order_rank
    image = flow.successor.image
    for x in geom.measured:
        fx = image[x]
        if fx not in adj[x]:
            return FlowCheck(False, "adjacency", (x, fx))
        if not ranks[x] < ranks[fx]:
            return FlowCheck(False, "successor-order", (x, fx))
        for y in adj[fx]:
            if y != x and not ranks[x] < ranks[y]:
                return FlowCheck(False, "neighborhood-order", (x, y))
    return FlowCheck(True)


def _check_flow(geom: Geometry, flow: CausalFlow) -> None:
    """Raise FlowDomainError unless ``flow`` has the shape of a flow on ``geom``.

    f's image must have one entry per vertex, -1 exactly on the outputs
    and an int vertex outside the inputs elsewhere, and there must be one
    rank per vertex, each a non-negative int; a bool is neither a vertex
    nor a rank.  Each rule is tested on the whole collection at once; only
    a failure walks the items, to name the first bad vertex by its label.
    """
    n = geom.vertex_count
    names = geom._names
    image = flow.successor.image
    if len(image) != n:
        raise FlowDomainError(f"image of f has {len(image)} entries for {n} vertices")
    outputs = geom.outputs
    in_range = set(map(type, image)) <= {int} and min(image, default=0) >= -1 and max(image, default=-1) < n
    # Among ints in [-1, n), as many -1s as outputs, all on them, leave f undefined exactly there.
    if not (in_range and image.count(-1) == len(outputs) and all(image[v] == -1 for v in outputs)):
        for x, fx in enumerate(image):
            if type(fx) is not int or not -1 <= fx < n:
                raise FlowDomainError(f"f({names[x]!r}) = {fx!r} is not a vertex")
        extra = [v for v in outputs if image[v] != -1]
        if extra:
            raise FlowDomainError(f"f is defined on output vertex {names[min(extra)]!r}")
        x = next(x for x, fx in enumerate(image) if fx == -1 and x not in outputs)
        raise FlowDomainError(f"f is undefined on measured vertex {names[x]!r}")
    inputs = geom.inputs
    if not inputs.isdisjoint(image):
        x = next(x for x, fx in enumerate(image) if fx in inputs)
        raise FlowDomainError(f"f({names[x]!r}) = {names[image[x]]!r} lies in the input set")
    ranks = flow.order_rank
    if len(ranks) < n:
        raise FlowDomainError(f"missing rank for vertex {names[len(ranks)]!r}")
    if len(ranks) > n:
        raise FlowDomainError(f"rank map has {len(ranks)} ranks for {n} vertices")
    bad = _first_bad(ranks)
    if bad is not None:
        raise FlowDomainError(f"ranks[{names[bad]!r}]: expected a non-negative integer")


def _influence_order(
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
    return None, _extract_cycle(adj, image, layer, range(n))


def _extract_cycle(
    adj: tuple[tuple[int, ...], ...], image: Sequence[int], layer: list[int], domain: Iterable[int]
) -> tuple[int, ...]:
    """The cycle met walking back from the smallest unranked vertex, rotated to its smallest.

    ``image`` is an injective f, and ``layer`` is -1 on the vertices left
    unranked, each of which lies in ``domain``.  The predecessors of v are
    the u with f(u) = v or with f(u) adjacent to v (u != v), so each is
    read from f's inverse at v and at v's neighbours; the inverse is built
    on ``domain`` only, which holds every unranked predecessor.  Each step
    goes to the smallest unranked predecessor.  Every unranked vertex
    keeps one, so the walk revisits a vertex within n steps.
    """
    source = [-1] * len(image)  # the inverse of f on ``domain``
    for u in domain:
        fu = image[u]
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


def _splice_orbits(image: Sequence[int]) -> tuple[tuple[int, ...], ...] | None:
    """Chain f into paths; None when f is not injective or some orbit closes into a cycle."""
    n = len(image)
    targets = set(image) - {-1}
    if len(targets) != n - image.count(-1):
        return None
    paths: list[tuple[int, ...]] = []
    for start in range(n):
        if start in targets:
            continue
        path = [start]
        cur = image[start]
        while cur >= 0:
            path.append(cur)
            cur = image[cur]
        paths.append(tuple(path))
    # Every vertex is on a path unless some orbit closes into a cycle.
    return tuple(paths) if sum(map(len, paths)) == n else None


def _backward_greedy(geom: Geometry) -> tuple[list[int], list[int], list[int]]:
    """The image of f and the layers, from the outputs backwards, plus the unprocessed rest.

    A corrector is a processed non-input vertex not yet used as a partner.
    In each round every corrector with exactly one unprocessed neighbour u
    claims it, the smallest corrector winning ties, and all claimed
    vertices form the next layer.  Only the count of unprocessed
    neighbours is kept per vertex.  A corrector is queued when its count
    drops to one, and u is found by scanning the corrector's neighbours
    when it is considered.  Its count falls to zero once u is processed,
    so a count of one also says that it is unused.

    A round costs only its claims.  ``claimer[u]`` is the smallest
    corrector that has claimed u, or n.  The list is made once and never
    cleared, since a claimed vertex is processed and never claimed again,
    and u's first claim also puts u on the round's list ``claimed``.  One
    pass over that list sets the images and layers, marks each vertex
    processed and lowers its neighbours' counts.  A claimed vertex is
    queued when it is processed if its count is one then, or else when a
    later one of the round lowers its count to one.  So every vertex is
    queued at most once, and the scans cost O(n + m) in all.  This
    matters on the gamma-saturating geometries, where every round claims
    one vertex and the greedy runs n - k rounds.  Past the O(n) set-up, a
    greedy that stalls early reads only the edges of the vertices it
    processed.
    """
    n = geom.vertex_count
    adj = geom.graph.adjacency
    inputs = geom.inputs
    processed = [False] * n
    count = list(map(len, adj))
    for v in geom.outputs:
        processed[v] = True
        for w in adj[v]:
            count[w] -= 1
    image = [-1] * n
    layer = [0] * n
    depth = 0
    ready = [v for v in geom.outputs if count[v] == 1 and v not in inputs]
    claimer = [n] * n
    while ready:
        claimed = []
        for v in ready:
            # Skip entries whose last neighbour was claimed after they were queued.
            if count[v] == 1:
                for u in adj[v]:
                    if not processed[u]:
                        break
                c = claimer[u]
                if c == n:
                    claimed.append(u)
                    claimer[u] = v
                elif c > v:
                    claimer[u] = v
        if not claimed:
            break
        depth += 1
        ready = []
        for u in claimed:
            image[u] = claimer[u]
            layer[u] = depth
            processed[u] = True
            if count[u] == 1 and u not in inputs:
                ready.append(u)
            for w in adj[u]:
                count[w] -= 1
                if count[w] == 1 and processed[w] and w not in inputs:
                    ready.append(w)
    return image, layer, [v for v in range(n) if not processed[v]] if False in processed else []


def find_causal_flow(geom: Geometry) -> FlowSearchResult:
    """Decide flow existence and construct a minimum-depth flow when one exists.

    Pipeline: reject immediately when the edge count exceeds the gamma
    bound for k = |outputs|; then run the backward greedy, whose layer
    l(v) gives the rank depth - l(v).  When the greedy stalls, no flow
    exists and the unprocessed vertices are the obstruction S.  Completing
    the greedy's partial matching then names the reason: "no-cover" when
    measured vertices cannot all be matched to distinct partners,
    otherwise "cyclic-D" with a cycle of the completed matching's
    influencing digraph.  The completion changes f only on S (see
    ``_complete_matching``), and the cycle is sought from S alone (see
    ``_obstruction_cycle``), so naming the reason costs no pass over the
    whole graph.
    """
    if _exceeds_gamma(geom):
        return FlowSearchResult("no-flow", reason="edge-bound")

    image, layer, unprocessed = _backward_greedy(geom)
    if not unprocessed:
        depth = max(layer, default=0)
        flow = CausalFlow(SuccessorFunction(tuple(image)), tuple(map(depth.__sub__, layer)))
        return FlowSearchResult("found", flow=flow)

    obstruction = tuple(unprocessed)
    # With k = 0, k paths must cover n > 0 vertices; impossible with zero paths.
    if geom.output_count == 0 or not _complete_matching(geom, image, unprocessed):
        return FlowSearchResult("no-flow", reason="no-cover", obstruction=obstruction)
    cycle = _obstruction_cycle(geom, image, unprocessed)
    return FlowSearchResult("no-flow", reason="cyclic-D", cycle=cycle, obstruction=obstruction)


def _complete_matching(geom: Geometry, image: list[int], obstruction: list[int]) -> bool:
    """Extend the greedy's ``image`` in place to give every vertex of ``obstruction`` a partner; False if impossible.

    ``obstruction`` is S, the measured vertices the greedy never
    processed, ascending.  No greedy partner has a neighbour in S, since
    each claimed its last unprocessed neighbour.  So every alternating
    path from S stays in S, and it ends at a non-input neighbour of S
    that no vertex of S has taken yet: the completion reads and changes
    f only on S and its neighbours, and no loop runs over the whole graph.

    The first phase is a plain pass.  Every non-input neighbour of S is
    still free, so every vertex of S with one lies on layer 0 of the
    layering below, and a root on layer 0 takes its first free partner.
    Each vertex of S, ascending, thus takes its first non-input neighbour
    that no vertex of S has taken, and one whose neighbours are all
    inputs has no partner in any matching, so the answer is False.

    Each later phase layers S alone by its alternating distance to a free
    partner, searching backwards from the neighbours of S still free.  A
    root, a vertex of S still without a partner, that is left unlayered
    has no augmenting path, so no matching saturates it and the answer is
    False.  Otherwise each root, ascending, augments along strictly
    falling layers through layered vertices not yet used in the phase,
    and those that fail wait for the next phase.
    """
    n = geom.vertex_count
    adj = geom.graph.adjacency
    inputs = geom.inputs
    owner = [-1] * n  # the vertex of S matched to each partner; no greedy partner is asked
    exposed = []
    for x in obstruction:
        for y in adj[x]:
            if owner[y] < 0 and y not in inputs:
                owner[y] = x
                image[x] = y
                break
        else:
            if inputs.issuperset(adj[x]):
                return False
            exposed.append(x)
    if not exposed:
        return True
    free = {y for x in obstruction for y in adj[x]} - inputs
    # Vertices outside S never get a layer: the sentinel n marks them.
    unlayered = [n] * n
    for x in obstruction:
        unlayered[x] = -1
    while exposed:
        free = [y for y in free if owner[y] < 0]
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
                    if 0 <= layer[o] == layer[x] - 1 and not used[o]:
                        path.append(o)
                        scans.append(iter(adj[o]))
                        break
                else:
                    used[x] = True
                    path.pop()
                    scans.pop()
        exposed = [x for x in exposed if image[x] < 0]
    return True


def _obstruction_cycle(geom: Geometry, image: list[int], obstruction: list[int]) -> tuple[int, ...]:
    """The cycle that ``_influence_order`` would name for the completed f, found from S alone.

    A greedy partner's other neighbours were all processed before the
    vertex it claimed, so every arc from a vertex outside S, the
    ``obstruction``, goes to one the greedy processed earlier, and every
    cycle lies in S.  ``_influence_order`` leaves unranked exactly the
    vertices that a cycle reaches, so they, and the paths that reach
    them, lie in the forward closure R of S.  Ranking R alone, counting
    the arcs from R, all of which end in R, therefore leaves the same
    vertices unranked, and ``_extract_cycle`` walks back from the same
    smallest one through the same predecessors, all of them in R: the
    cycle is unchanged.  The work is O(|R| + arcs from R).
    """
    n = len(image)
    adj = geom.graph.adjacency
    layer = [0] * n  # -1 on R until ranked, 0 elsewhere
    indeg = [0] * n
    closure = list(obstruction)
    for x in closure:
        layer[x] = -1
    for x in closure:  # the list grows as R is found
        fx = image[x]
        if fx < 0:
            continue
        indeg[x] -= 1  # x is a neighbour of f(x), but no arc goes from x to itself
        indeg[fx] += 1
        if not layer[fx]:
            layer[fx] = -1
            closure.append(fx)
        for y in adj[fx]:
            indeg[y] += 1
            if not layer[y]:
                layer[y] = -1
                closure.append(y)
    ready = [v for v in closure if not indeg[v]]
    while ready:
        u = ready.pop()
        layer[u] = 0
        fu = image[u]
        if fu < 0:
            continue
        indeg[fu] -= 1
        if not indeg[fu]:
            ready.append(fu)
        for w in adj[fu]:
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    if -1 not in layer:
        raise AssertionError("backward greedy stalled on a geometry that has a flow")
    return _extract_cycle(adj, image, layer, closure)


def verify_obstruction(geom: Geometry, obstruction: Iterable[int]) -> bool:
    """Check a no-flow certificate S in O(n + m).

    S must be non-empty and hold no output, and no vertex outside S and
    the inputs may have exactly one neighbour in S.  Such an S rules out
    every flow: the last-measured x in S would need a partner f(x) outside
    S and the inputs whose only neighbour in S is x.
    """
    n = geom.vertex_count
    ids = list(obstruction)
    if not ids or _first_bad(ids, n) is not None or not geom.outputs.isdisjoint(ids):
        return False
    inside = [False] * n
    for v in ids:
        inside[v] = True
    hits = [0] * n
    for v, nbrs in enumerate(geom.graph.adjacency):
        if inside[v]:
            for w in nbrs:
                hits[w] += 1
    return all(hits[w] != 1 for w in range(n) if not inside[w] and w not in geom.inputs)


def _certificate_holds(geom: Geometry, result: FlowSearchResult) -> bool:
    """Whether a verdict's certificate holds: its flow, its edge count, or its obstruction."""
    try:
        if result.status == "found":
            return verify_flow(geom, result.flow).ok
        if result.reason == "edge-bound":
            return _exceeds_gamma(geom)
        return verify_obstruction(geom, result.obstruction or ())
    except FlowDomainError:
        return False


@_gc_paused
def flow_from_cover(geom: Geometry, cover: PathCover) -> FlowSearchResult:
    """Run the gate and the topological sort of the influencing digraph for one cover.

    The cover is trusted (callers such as the extremal generator produce
    valid ones); only the flow conditions themselves are decided here.
    """
    if _exceeds_gamma(geom):
        return FlowSearchResult("no-flow", reason="edge-bound")
    image = [-1] * geom.vertex_count
    for u, v in chain.from_iterable(zip(path, path[1:]) for path in cover.paths):
        image[u] = v
    ranks, cycle = _influence_order(geom, image)
    if ranks is not None:
        return FlowSearchResult("found", flow=CausalFlow(SuccessorFunction(tuple(image)), ranks), cover=cover)
    return FlowSearchResult("no-flow", reason="cyclic-D", cycle=cycle)


def brute_force_flow(geom: Geometry, *, bound: int = DEFAULT_ORACLE_BOUND) -> CausalFlow | None:
    """Exhaustive oracle: try every injective f along edges, smallest first.

    Independent of the greedy pipeline on purpose: it shares only the
    final ranking with it.  Measured vertices take partners in ascending
    order, each trying its neighbours outside the inputs in ascending
    order, and the first complete acyclic assignment wins.
    Partial assignments whose digraph has a cycle are pruned, which is
    sound because extending f only adds arcs.  The arcs of a placed u are
    f(u) and the other neighbours of f(u), so f alone holds them.  They
    are acyclic and the new ones all leave x, so giving x a partner closes
    a cycle exactly when one DFS from the new arcs' targets reaches x.
    The levels keep their next index into ``adj[x]`` in one list, not on
    the call stack, so the search depth is limited only by memory.  The
    flow's ranks are longest-path ranks, from ``_influence_order``.
    """
    n = geom.vertex_count
    if n > bound:
        raise OracleBoundError(f"instance has {n} vertices; oracle bound is {bound}")
    measured = geom.measured
    inputs = geom.inputs
    adj = geom.graph.adjacency
    image = [-1] * n  # f(u) of each placed u
    used = [False] * n
    seen = [0] * n  # visit stamp of the last cycle test that reached each vertex
    stamp = 0
    levels = len(measured)
    nxt = [0] * levels  # next index into adj[x] per level
    i = 0
    while 0 <= i < levels:
        x = measured[i]
        if image[x] >= 0:  # back from level i + 1: release x's partner
            used[image[x]] = False
            image[x] = -1
        nbrs = adj[x]
        for j in range(nxt[i], len(nbrs)):
            y = nbrs[j]
            if used[y] or y in inputs:
                continue
            stamp += 1
            stack = [y, *adj[y]]
            stack.remove(x)  # y is a neighbour of x, so x occurs once
            while stack:
                u = stack.pop()
                if u == x:
                    break
                if seen[u] != stamp:
                    seen[u] = stamp
                    fu = image[u]
                    if fu >= 0:
                        stack.append(fu)
                        stack += adj[fu]
            else:  # x is unreachable: keep y
                image[x] = y
                used[y] = True
                nxt[i] = j + 1
                i += 1
                break
        else:  # neighbours exhausted: back to level i - 1
            nxt[i] = 0
            i -= 1
    if i < 0:
        return None
    ranks, _cycle = _influence_order(geom, image)
    return CausalFlow(SuccessorFunction(tuple(image)), ranks)


FLOW_FILE_KEYS = ("successor", "ranks", "paths")


def dump_flow(geom: Geometry, flow: CausalFlow, cover: PathCover | None = None) -> str:
    """Render a flow as byte-stable text keyed by vertex labels.

    ``successor`` lists each x where f is defined and ``ranks`` every
    vertex, both in label order; ``paths`` follows the cover, by default
    the orbits of f.  The layout is ``json.dumps(payload, indent=2)`` plus
    a final newline, with ASCII escapes.  A flow without the shape of one
    on ``geom`` raises FlowDomainError, as in ``verify_flow``.  An f that
    is not injective or has a cyclic orbit raises ValueError.  An id of
    the cover that is not an int vertex (a bool is not one) raises
    GeometryError, and a cover that is not the orbits of f raises the
    FlowFormatError that ``load_flow`` would raise.
    """
    _check_flow(geom, flow)
    n = geom.vertex_count
    image = flow.successor.image
    ranks = flow.order_rank
    if cover is None:
        paths = _splice_orbits(image)
        if paths is None:
            raise ValueError("f is not injective or has a cyclic orbit; cannot lay out paths")
    else:
        paths = cover.paths
        ids = list(chain.from_iterable(paths))
        bad = _first_bad(ids, n)
        if bad is not None:
            raise GeometryError(f"unknown vertex {ids[bad]!r}")
        _check_orbits(geom, image, paths)
    names = geom._names
    esc = list(map(encode_basestring_ascii, names))
    order = sorted(range(n), key=names.__getitem__)
    fields = (
        ("successor", json_block([f"{esc[x]}: {esc[image[x]]}" for x in order if image[x] >= 0], 1, "{}")),
        ("ranks", json_block([f"{esc[v]}: {ranks[v]}" for v in order], 1, "{}")),
        ("paths", json_block([json_block([esc[v] for v in path], 2) for path in paths], 1)),
    )
    return json_block([f'"{key}": {value}' for key, value in fields], 0, "{}") + "\n"


@_gc_paused
def load_flow(geom: Geometry, text: str) -> tuple[CausalFlow, PathCover]:
    """Parse a flow file against a geometry; the flow conditions are left to verify_flow.

    Labels are resolved a list at a time by ``_resolve``, those of
    ``successor`` in file order (key, value, key, ...); ``ranks`` checks
    each label and its value in one pass.  ``paths`` must be the orbits
    of f, in any order (see ``_check_orbits``).
    """
    data = load_json_object(text, FLOW_FILE_KEYS, FlowFormatError, "flow")

    successor = data["successor"]
    if not isinstance(successor, dict):
        raise FlowFormatError("'successor' must be an object")
    ends = iter(_resolve(geom, list(chain.from_iterable(successor.items())), "successor"))
    image = [-1] * geom.vertex_count
    for x, fx in zip(ends, ends):
        image[x] = fx

    raw_ranks = data["ranks"]
    if not isinstance(raw_ranks, dict):
        raise FlowFormatError("'ranks' must be an object")
    labels, values = list(raw_ranks), list(raw_ranks.values())
    bad = _first_bad(values)
    if bad is not None:
        # A bad label before the bad value, or beside it, is named first.
        _resolve(geom, labels[: bad + 1], "ranks")
        raise FlowFormatError(f"ranks[{labels[bad]!r}]: expected a non-negative integer")
    ids = _resolve(geom, labels, "ranks")
    ranks = [0] * geom.vertex_count
    for v, value in zip(ids, values):
        ranks[v] = value
    if len(ids) != geom.vertex_count:
        missing_v = min(set(range(geom.vertex_count)) - set(ids))
        raise FlowFormatError(f"missing rank for vertex {geom.label_of(missing_v)!r}")

    raw_paths = data["paths"]
    if not isinstance(raw_paths, list):
        raise FlowFormatError("'paths' must be a list")
    paths = []
    for pos, raw in enumerate(raw_paths):
        if not isinstance(raw, list):
            raise FlowFormatError(f"paths[{pos}]: expected a list of labels")
        paths.append(tuple(_resolve(geom, raw, f"paths[{pos}]")))

    _check_orbits(geom, image, paths)
    return CausalFlow(SuccessorFunction(tuple(image)), tuple(ranks)), PathCover(tuple(paths))


def _resolve(geom: Geometry, labels: list[object], where: str) -> list[int]:
    """The ids of ``labels``, mapped in bulk; FlowFormatError at ``where`` names the first bad one."""
    index = geom._label_index
    try:
        return list(map(index.__getitem__, labels))
    except (KeyError, TypeError):
        bad = next(label for label in labels if not isinstance(label, str) or label not in index)
    if isinstance(bad, str):
        raise FlowFormatError(f"{where}: unknown vertex label {bad!r}")
    raise FlowFormatError(f"{where}: expected a vertex label, got {bad!r}")


def _check_orbits(geom: Geometry, image: Sequence[int], paths: list[tuple[int, ...]]) -> None:
    """Raise FlowFormatError unless ``paths`` are the orbits of f, in any order.

    The paths must partition the vertices, f must map each vertex of a
    path to the next one, and each path must end outside f's domain.  The
    first path that breaks a rule is named; a vertex on no path is named
    once every path has passed.
    """
    names = geom._names
    on_path = [False] * geom.vertex_count
    for pos, path in enumerate(paths):
        where = f"paths[{pos}]"
        if not path:
            raise FlowFormatError(f"{where}: empty path")
        for v in path:
            if on_path[v]:
                raise FlowFormatError(f"{where}: vertex {names[v]!r} appears twice")
            on_path[v] = True
        for u, v in zip(path, path[1:]):
            if image[u] != v:
                raise FlowFormatError(f"{where}: f({names[u]!r}) is not {names[v]!r}")
        last = path[-1]
        if image[last] >= 0:
            raise FlowFormatError(f"{where}: ends at {names[last]!r}, where f is defined")
    if not all(on_path):
        raise FlowFormatError(f"paths: vertex {names[on_path.index(False)]!r} is on no path")
