"""Edge-maximal geometries: the gamma bound and the construction saturating it.

A geometry on n vertices with k outputs can admit a causal flow only when
it has at most gamma(n, k) = k*n - k*(k+1)/2 edges; ``gamma`` is defined
in ``flowscope.flow``, whose edge gate uses it, and re-exported here.
For every sorted partition n_1 <= ... <= n_k of n the generator below
produces a geometry with exactly that many edges together with its
canonical path cover.  The structural facts that make the construction
work (no chords on paths, no crossing edges between paths, and a
lexicographic ordering argument for acyclicity) are checked by the test
oracles in ``tests/extremal_reference.py``, not here.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable

from flowscope.flow import PathCover, gamma  # noqa: F401 (gamma is re-exported)
from flowscope.geometry import Geometry, Graph, _gc_paused, _Record


class ExtremalPartition(_Record):
    """Sorted integer partition n_1 <= ... <= n_k with positive parts.

    Unsorted input is rejected rather than silently sorted: the connecting
    rules are asymmetric in the path order, so reordering behind the
    caller's back would hide bugs.
    """

    _fields = ("parts",)

    def __init__(self, parts: Iterable[int]) -> None:
        parts = self.__dict__["parts"] = tuple(parts)
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
    joined by exactly n_i + n_j - 1 edges; ``Graph._from_ends`` rejects
    any repeat.
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
