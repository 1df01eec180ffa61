"""The structural facts behind the extremal construction, kept as test oracles.

``flowscope.extremal.generate_extremal`` builds the gamma(n, k)-saturating
geometry of a partition and its path cover.  The checks here confirm the
facts that make the construction work: paths i and j are joined by
n_i + n_j - 1 edges, every arc of the influencing digraph comes from one
construction rule, no path has a chord and no two paths cross, the
lexicographic (position, path) order certifies acyclicity, and the
position sums of the connecting edges between two paths are distinct.
``orbit_counting_holds`` checks the counting behind gamma(n, k) on any
flow, not only on the construction's.  The unit tests run them at desk
sizes and the CI smoke step at n = 40000.  Not public API.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from flowscope import CausalFlow, ExtremalPartition, Geometry, PathCover
from flowscope.flow import _splice_orbits

from .conftest import cover_pairs


def iter_influence_arcs(geom: Geometry, pairs: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Arcs of the influencing digraph of f, given as its (x, f(x)) pairs, read from the adjacency.

    There is an arc x -> y (x != y) exactly when y = f(x) or y is adjacent
    to f(x); its acyclicity certifies a flow for f.
    """
    adj = geom.graph.adjacency
    for x, fx in pairs:
        yield (x, fx)
        for y in adj[fx]:
            if y != x:
                yield (x, y)


class ArcKind(Enum):
    """Which construction rule produced an arc of the influencing digraph.

    PATH tags successor arcs along a path and SKIP the distance-two arcs a
    path edge induces; A through F tag arcs induced by connecting edges
    between two distinct paths.
    """

    PATH = "path"
    SKIP = "skip"
    A = "a"
    B = "b"
    C = "c"
    D = "d"
    E = "e"
    F = "f"


def count_connecting_edges(partition: ExtremalPartition, i: int, j: int) -> int:
    """Number of connecting edges between paths i and j (1-based, i < j):
    n_i + n_j - 1."""
    if not (1 <= i < j <= partition.k):
        raise ValueError(f"need 1 <= i < j <= {partition.k}, got i={i}, j={j}")
    return partition.parts[i - 1] + partition.parts[j - 1] - 1


def _path_positions(cover: PathCover) -> tuple[dict[int, int], dict[int, int], tuple[int, ...]]:
    path_of: dict[int, int] = {}
    pos_of: dict[int, int] = {}
    for idx, path in enumerate(cover.paths):
        for offset, v in enumerate(path):
            path_of[v] = idx
            pos_of[v] = offset + 1
    return path_of, pos_of, tuple(map(len, cover.paths))


def classify_arcs(geom: Geometry, cover: PathCover) -> dict[tuple[int, int], ArcKind]:
    """Tag every arc of the influencing digraph with the rule that made it.

    Cross-path arcs are matched against the six connecting-edge patterns in
    the order A..F, first match wins; within-path arcs are successor (PATH)
    or distance-two (SKIP) arcs.  An unmatched arc means the geometry was
    not produced by the generator and is reported as an error.
    """
    path_of, pos_of, lengths = _path_positions(cover)
    tags: dict[tuple[int, int], ArcKind] = {}
    for arc in iter_influence_arcs(geom, cover_pairs(cover)):
        x, y = arc
        p, a = path_of[x], pos_of[x]
        q, b = path_of[y], pos_of[y]
        if p == q:
            if b == a + 1:
                tags[arc] = ArcKind.PATH
            elif b == a + 2:
                tags[arc] = ArcKind.SKIP
            else:
                raise ValueError(f"arc {x} -> {y} matches no construction rule")
            continue
        lo, hi = (p, q) if p < q else (q, p)
        n_lo, n_hi = lengths[lo], lengths[hi]
        if p == lo and b == a + 1 and 2 <= b <= n_lo:
            tags[arc] = ArcKind.A
        elif p == hi and b == a + 1 and 2 <= b <= n_lo:
            tags[arc] = ArcKind.B
        elif p == lo and b == a and 1 <= a <= n_lo - 1:
            tags[arc] = ArcKind.C
        elif p == hi and b == a + 2 and 1 <= a <= n_lo - 2:
            tags[arc] = ArcKind.D
        elif p == lo and a == n_lo - 1 and n_lo <= b <= n_hi:
            tags[arc] = ArcKind.E
        elif p == hi and b == n_lo and max(n_lo, 2) <= a + 1 <= n_hi:
            tags[arc] = ArcKind.F
        else:
            raise ValueError(f"arc {x} -> {y} matches no construction rule")
    return tags


def lex_acyclicity_certificate(geom: Geometry, cover: PathCover) -> bool:
    """Check the ordering argument that makes the generated digraph acyclic.

    Every arc must go strictly upward in the (position, path index)
    lexicographic order, except arcs into a path's final vertex, which are
    harmless because final vertices have no outgoing arcs.  A vertex has
    outgoing arcs exactly when it is a source of f, since x -> f(x) is one.
    """
    path_of, pos_of, lengths = _path_positions(cover)
    pairs = cover_pairs(cover)
    sources = {x for x, _ in pairs}
    for x, y in iter_influence_arcs(geom, pairs):
        if (pos_of[x], path_of[x]) < (pos_of[y], path_of[y]):
            continue
        if pos_of[y] == lengths[path_of[y]] and y not in sources:
            continue
        return False
    return True


def observation_checks(geom: Geometry, cover: PathCover) -> bool:
    """Two necessary conditions for an acyclic influencing digraph.

    First, no path may carry a chord: an edge between non-consecutive
    vertices of one path closes a cycle immediately.  Second, no two paths
    may be joined by a crossing pair of edges (one edge earlier on the
    first path but later on the second).
    """
    path_of, pos_of, _ = _path_positions(cover)
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in geom.graph.edges():
        pu, pv = path_of[u], path_of[v]
        if pu == pv:
            if abs(pos_of[u] - pos_of[v]) != 1:
                return False
            continue
        if pu < pv:
            by_pair.setdefault((pu, pv), []).append((pos_of[u], pos_of[v]))
        else:
            by_pair.setdefault((pv, pu), []).append((pos_of[v], pos_of[u]))
    for pairs in by_pair.values():
        # Sorted by (a, b), a crossing pair exists exactly when b drops between neighbours.
        pairs.sort()
        if any(b2 < b1 for (_, b1), (_, b2) in zip(pairs, pairs[1:])):
            return False
    return True


def lambda_labels(geom: Geometry, cover: PathCover, i: int, j: int) -> list[int]:
    """Position sums a+b of the connecting edges between paths i and j.

    Indices are 1-based with i < j.  When the influencing digraph is
    acyclic these sums are pairwise distinct and lie in [2, n_i + n_j],
    which is what caps the connecting edges at n_i + n_j - 1.
    """
    if not (1 <= i < j <= len(cover.paths)):
        raise ValueError(f"need 1 <= i < j <= {len(cover.paths)}, got i={i}, j={j}")
    path_of, pos_of, _ = _path_positions(cover)
    wanted = {i - 1, j - 1}
    pairs = []
    for u, v in geom.graph.edges():
        if {path_of[u], path_of[v]} == wanted:
            if path_of[u] == i - 1:
                pairs.append((pos_of[u], pos_of[v]))
            else:
                pairs.append((pos_of[v], pos_of[u]))
    return [a + b for a, b in sorted(pairs)]


def orbit_counting_holds(geom: Geometry, flow: CausalFlow, *, tight: bool = False) -> bool:
    """Whether a flow obeys the counting that bounds m by gamma(n, k), in O(n + m).

    The orbits of f are the paths x, f(x), f(f(x)), ... from the vertices
    outside f's image: k = |O| paths that partition the vertices.  Two
    facts hold for every flow, and are checked here:

    * No orbit has a chord.  Proof: let x_a and x_b, b >= a + 2, be
      adjacent on one orbit.  x_a is a neighbour of f(x_{b-1}) = x_b other
      than x_{b-1}, so x_{b-1} comes before x_a; yet x comes before f(x)
      all along the orbit, so x_a comes before x_{b-1}.
    * Orbits i and j, of n_i and n_j vertices, share at most n_i + n_j - 1
      edges: the position sums of their connecting edges are distinct and
      lie in [2, n_i + n_j] (see ``lambda_labels``).

    Summed over the orbits and their pairs, the two give
    m <= (n - k) + sum over i < j of (n_i + n_j - 1) = gamma(n, k).  With
    ``tight``, every pair must share exactly n_i + n_j - 1 edges, as on an
    extremal geometry, where m = gamma(n, k) forces equality throughout.
    """
    path_of, pos_of, lengths = _path_positions(PathCover(_splice_orbits(flow.successor.image)))
    shared: dict[tuple[int, int], int] = {}
    for u, v in geom.graph.edges():
        i, j = path_of[u], path_of[v]
        if i == j:
            if abs(pos_of[u] - pos_of[v]) != 1:
                return False
            continue
        pair = (i, j) if i < j else (j, i)
        shared[pair] = shared.get(pair, 0) + 1
    if any(count > lengths[i] + lengths[j] - 1 for (i, j), count in shared.items()):
        return False
    k = len(lengths)
    return not tight or (
        len(shared) == k * (k - 1) // 2
        and all(count == lengths[i] + lengths[j] - 1 for (i, j), count in shared.items())
    )
