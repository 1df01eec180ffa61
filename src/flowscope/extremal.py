"""Edge-maximal geometries: the gamma bound and the construction saturating it.

A geometry on n vertices with k outputs can admit a causal flow only when
it has at most gamma(n, k) = k*n - k*(k+1)/2 edges; ``gamma`` is defined
in ``flowscope.flow``, whose edge gate uses it, and re-exported here.
For every sorted partition n_1 <= ... <= n_k of n the generator below
produces a geometry with exactly that many edges together with its
canonical path cover, and the certificates in this module check the
structural facts that make the construction work: no chords on paths,
no crossing edges between paths, and a lexicographic ordering argument
for acyclicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat

from flowscope.flow import PathCover, _influence_arcs, gamma  # noqa: F401 (gamma is re-exported)
from flowscope.geometry import Geometry, Graph, _gc_paused


@dataclass(frozen=True)
class ExtremalPartition:
    """Sorted integer partition n_1 <= ... <= n_k with positive parts.

    Unsorted input is rejected rather than silently sorted: the connecting
    rules are asymmetric in the path order, so reordering behind the
    caller's back would hide bugs.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("partition must have at least one part")
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        if any(a > b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be non-decreasing, got {parts}")

    @classmethod
    def parse(cls, text: str) -> ExtremalPartition:
        """Parse the comma-separated form, e.g. "6,8,9"."""
        items = [item.strip() for item in text.split(",")]
        try:
            parts = tuple(int(item) for item in items)
        except ValueError:
            raise ValueError(f"invalid partition {text!r}: expected comma-separated integers") from None
        return cls(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)


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


@_gc_paused
def generate_extremal(partition: ExtremalPartition) -> tuple[Geometry, PathCover]:
    """Build the saturating geometry for a partition, plus its path cover.

    Path i consists of the vertices v{i}_1 .. v{i}_{n_i}.  Besides the path
    edges, each ordered pair of paths i < j receives three families of
    connecting edges:

      (i)   v{i}_a -- v{j}_a          for 1 <= a < n_i,
      (ii)  v{i}_{a+1} -- v{j}_a      for 1 <= a < n_i,
      (iii) v{i}_{n_i} -- v{j}_a      for n_i <= a <= n_j.

    Inputs are the path starts, outputs the path ends, and v{i}_a has id
    starts[i] + a - 1.  The families are disjoint, so paths i and j are
    joined by exactly n_i + n_j - 1 edges (``count_connecting_edges``);
    ``Graph._from_ends`` rejects any repeat.
    """
    parts = partition.parts
    k = partition.k
    n = partition.n
    starts = [0] * k
    for i in range(1, k):
        starts[i] = starts[i - 1] + parts[i - 1]

    # Edge ends u0, v0, u1, v1, ... straight from the range arithmetic, as
    # slices of one id list so that the graph shares n int objects.
    ids = list(range(n))
    ends: list[int] = []
    for si, ni in zip(starts, parts):
        ends += chain.from_iterable(zip(ids[si : si + ni - 1], ids[si + 1 : si + ni]))
    for i in range(k):
        si, ni = starts[i], parts[i]
        last = si + ni - 1
        for j in range(i + 1, k):
            sj, nj = starts[j], parts[j]
            ends += chain.from_iterable(zip(ids[si:last], ids[sj : sj + ni - 1]))
            ends += chain.from_iterable(zip(ids[si + 1 : last + 1], ids[sj : sj + ni - 1]))
            ends += chain.from_iterable(zip(repeat(ids[last]), ids[sj + ni - 1 : sj + nj]))

    labels = tuple(
        f"v{i + 1}_{a}" for i in range(k) for a in range(1, parts[i] + 1)
    )
    geom = Geometry(
        Graph._from_ends(n, ends),
        frozenset(starts),
        frozenset(si + ni - 1 for si, ni in zip(starts, parts)),
        labels,
    )
    cover = PathCover(tuple(tuple(ids[si : si + ni]) for si, ni in zip(starts, parts)))
    return geom, cover


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
    return path_of, pos_of, cover.lengths()


def classify_arcs(geom: Geometry, cover: PathCover) -> dict[tuple[int, int], ArcKind]:
    """Tag every arc of the influencing digraph with the rule that made it.

    Cross-path arcs are matched against the six connecting-edge patterns in
    the order A..F, first match wins; within-path arcs are successor (PATH)
    or distance-two (SKIP) arcs.  An unmatched arc means the geometry was
    not produced by the generator and is reported as an error.
    """
    path_of, pos_of, lengths = _path_positions(cover)
    tags: dict[tuple[int, int], ArcKind] = {}
    for arc in _influence_arcs(geom, cover.successor_pairs()):
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
    pairs = cover.successor_pairs()
    sources = {x for x, _ in pairs}
    for x, y in _influence_arcs(geom, pairs):
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
