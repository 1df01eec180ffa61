"""Immutable graphs, geometries, and digraphs, plus the geometry file format.

Vertices are dense integers 0..n-1 everywhere inside the package.  String
labels exist only at the ingestion and serialization boundary; they are
carried on the geometry so output stays readable.

The bulk builders (``Graph.from_edges``, ``load_geometry``, and in other
modules ``load_flow``, ``generate_extremal`` and ``flow_from_cover``) run
with CPython's cyclic garbage collector paused through ``_gc_paused``:
they allocate O(n + m) lists and tuples but no reference cycles, so
nothing is lost.  Instead of rescanning the growing heap many times, the
collector catches up with one young-generation pass as the call returns.
Its enabled state is restored on return or raise.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from functools import cached_property, wraps
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

FILE_KEYS = ("vertices", "edges", "inputs", "outputs")


def _gc_paused(func):
    """Make ``func`` run with CPython's cyclic garbage collector paused.

    The collector is disabled only if it is enabled, and re-enabled when
    the call returns or raises; nested calls, and callers that disabled
    it themselves, leave it alone.  The switch is process-wide, so other
    threads also run without the collector for the length of the call.
    """

    @wraps(func)
    def call(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()
            # The young-generation pass that the next allocation would start
            # runs here instead, so the call, not its successor, pays for it.
            # A threshold of 0 turns automatic collection off.
            threshold = gc.get_threshold()[0]
            if threshold and gc.get_count()[0] > threshold:
                gc.collect(0)

    return call


class GeometryError(ValueError):
    """A graph, geometry, or geometry file violates a structural rule."""


class EdgeError(GeometryError):
    """An edge list names an unknown vertex, a self-loop or a duplicate edge.

    ``position`` is the index of the first offending edge and ``fault`` one
    of "unknown-vertex", "self-loop" or "duplicate".
    """

    def __init__(self, message: str, position: int, fault: str):
        super().__init__(message)
        self.position = position
        self.fault = fault


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: no self-loops, no parallel edges.

    ``adjacency[v]`` is the ascending tuple of neighbours of ``v``.  Keeping
    neighbour order sorted makes every traversal in the package
    deterministic.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    @classmethod
    @_gc_paused
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
        """Build a graph from unordered vertex pairs, validating simplicity.

        This is the one place that rejects self-loops, duplicate edges and
        unknown vertices.  Each edge costs one set insert of its key
        u * n + v (u < v; a self-loop inserts -1); the edge list is scanned
        for the first offending edge only when the set comes out short or
        holds a negative key, or an endpoint fails to index the adjacency.
        """
        if vertex_count < 0:
            raise GeometryError("vertex count must be non-negative")
        n = vertex_count
        edges = list(edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        keys: set[int] = set()
        add = keys.add
        try:
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
                add(u * n + v if u < v else v * n + u if v < u else -1)
        except (IndexError, TypeError):
            _raise_first_bad_edge(n, edges)
            raise
        if len(keys) != len(edges) or (keys and min(keys) < 0):
            _raise_first_bad_edge(n, edges)
        for nbrs in adj:
            nbrs.sort()
        return cls(n, tuple(map(tuple, adj)), len(edges))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Ascending neighbours of ``v``; never contains ``v`` itself."""
        self._check_vertex(v)
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def _check_vertex(self, v: int) -> None:
        if not (isinstance(v, int) and 0 <= v < self.vertex_count):
            raise GeometryError(f"unknown vertex {v!r}")


def _raise_first_bad_edge(n: int, edges: list[tuple[int, int]]) -> None:
    """Raise EdgeError for the first edge that is not a new pair of distinct known vertices."""
    seen: set[tuple[int, int]] = set()
    for pos, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeError(f"edge ({u}, {v}) references an unknown vertex", pos, "unknown-vertex")
        if u == v:
            raise EdgeError(f"self-loop at vertex {u}", pos, "self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeError(f"duplicate edge ({key[0]}, {key[1]})", pos, "duplicate")
        seen.add(key)


@dataclass(frozen=True)
class Geometry:
    """A graph together with its input and output vertex sets.

    Inputs and outputs may overlap.  The measured vertices are those
    outside the output set; correction partners must lie outside the
    input set.  Instances are immutable and safe to share.
    """

    graph: Graph
    inputs: frozenset[int]
    outputs: frozenset[int]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", frozenset(self.inputs))
        object.__setattr__(self, "outputs", frozenset(self.outputs))
        n = self.graph.vertex_count
        for name in ("inputs", "outputs"):
            for v in getattr(self, name):
                if not (isinstance(v, int) and 0 <= v < n):
                    raise GeometryError(f"{name} reference unknown vertex {v!r}")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != n:
                raise GeometryError("label count does not match vertex count")
            if len(set(labels)) != n:
                raise GeometryError("duplicate vertex label")

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def output_count(self) -> int:
        return len(self.outputs)

    @cached_property
    def measured(self) -> tuple[int, ...]:
        """Vertices outside the output set, ascending."""
        return tuple(v for v in range(self.vertex_count) if v not in self.outputs)

    @cached_property
    def non_inputs(self) -> tuple[int, ...]:
        """Vertices outside the input set, ascending."""
        return tuple(v for v in range(self.vertex_count) if v not in self.inputs)

    def label_of(self, v: int) -> str:
        self.graph._check_vertex(v)
        return self.labels[v] if self.labels is not None else str(v)

    @cached_property
    def _names(self) -> tuple[str, ...]:
        """``label_of(v)`` for every vertex, indexed by id."""
        return self.labels if self.labels is not None else tuple(map(str, range(self.vertex_count)))

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return dict(zip(self._names, range(self.vertex_count)))

    def id_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise GeometryError(f"unknown vertex label {label!r}") from None


@dataclass(frozen=True)
class Digraph:
    """Directed graph over dense vertex ids; loops and parallel arcs allowed."""

    vertex_count: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        for u, v in self.arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise GeometryError(f"arc ({u}, {v}) references an unknown vertex")

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbour lists, each ascending (parallel arcs preserved)."""
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.arcs:
            out[u].append(v)
        return tuple(tuple(sorted(vs)) for vs in out)


def load_json_object(text: str, keys: tuple[str, ...], error: type[ValueError], kind: str) -> dict:
    """Parse a ``kind`` file: one JSON object holding exactly ``keys``.

    A key repeated in any object of the file is rejected instead of
    silently keeping its last value.  Every problem raises ``error``.
    """

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise error(f"duplicate key {key!r}")
                seen.add(key)
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {kind} file: {exc}") from exc
    except RecursionError:
        raise error(f"malformed {kind} file: nested too deeply") from None
    if not isinstance(data, dict):
        raise error(f"{kind} file must contain a top-level object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise error(f"missing key(s): {', '.join(missing)}")
    unknown = [k for k in data if k not in keys]
    if unknown:
        raise error(f"unknown key(s): {', '.join(unknown)}")
    return data


def json_block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Lay out encoded JSON items as ``json.dumps(..., indent=2)`` does at ``depth``.

    Items are values for a list, or ``"key": value`` strings for an object
    (``brackets="{}"``).  The standard library drops to its pure-Python
    encoder whenever ``indent`` is set, so the byte-stable file formats are
    built with this instead.
    """
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


@_gc_paused
def load_geometry(text: str) -> Geometry:
    """Parse a geometry file (see ``serialize_geometry`` for the format).

    Labels are mapped to dense integer ids in file order and retained on
    the returned geometry.  Structural problems are reported with the
    offending key and position.  Each list is resolved in one pass; its
    items are inspected one by one only to name the first bad one.
    Self-loops and duplicate edges are left to ``Graph.from_edges``.
    """
    data = load_json_object(text, FILE_KEYS, GeometryError, "geometry")
    for key in FILE_KEYS:
        if not isinstance(data[key], list):
            raise GeometryError(f"'{key}' must be a list")

    labels = data["vertices"]
    index = dict(zip(labels, range(len(labels)))) if set(map(type, labels)) <= {str} else {}
    if len(index) != len(labels) or "" in index:
        index = {}
        for pos, label in enumerate(labels):
            if not isinstance(label, str) or not label:
                raise GeometryError(f"vertices[{pos}]: labels must be non-empty strings")
            if label in index:
                raise GeometryError(f"vertices[{pos}]: duplicate label {label!r}")
            index[label] = pos

    def check(key: str, pos: int, item: object) -> int:
        if not isinstance(item, str) or item not in index:
            raise GeometryError(f"{key}[{pos}]: unknown vertex label {item!r}")
        return index[item]

    pairs = data["edges"]
    edges = None
    if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}:
        try:
            edges = [(index[a], index[b]) for a, b in pairs]
        except (KeyError, TypeError):
            pass
    if edges is None:  # some pair is malformed or names an unknown label
        for pos, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise GeometryError(f"edges[{pos}]: expected a 2-element list of labels")
            check("edges", pos, pair[0])
            check("edges", pos, pair[1])
    try:
        graph = Graph.from_edges(len(labels), edges)
    except EdgeError as exc:
        a, b = pairs[exc.position]
        if exc.fault == "self-loop":
            raise GeometryError(f"edges[{exc.position}]: self-loop at {a!r}") from None
        if exc.fault == "duplicate":
            raise GeometryError(f"edges[{exc.position}]: duplicate edge {a!r} -- {b!r}") from None
        raise

    ends: dict[str, frozenset[int]] = {}
    for key in ("inputs", "outputs"):
        items = data[key]
        try:
            ids = frozenset(index[item] for item in items)
        except (KeyError, TypeError):
            ids = frozenset()
        if len(ids) != len(items):
            seen: set[int] = set()
            for pos, item in enumerate(items):
                vid = check(key, pos, item)
                if vid in seen:
                    raise GeometryError(f"{key}[{pos}]: duplicate label {item!r}")
                seen.add(vid)
        ends[key] = ids

    return Geometry(graph, ends["inputs"], ends["outputs"], tuple(labels))


def serialize_geometry(geom: Geometry) -> str:
    """Render a geometry as byte-stable text.

    Keys appear in the order vertices, edges, inputs, outputs; every list
    of labels is sorted lexicographically and each edge is written with
    its smaller label first.  The layout is ``json.dumps(payload,
    indent=2)`` plus a final newline, with ASCII escapes.
    """
    n = geom.vertex_count
    names = geom._names
    order = sorted(range(n), key=names.__getitem__)
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    esc = [encode_basestring_ascii(names[v]) for v in order]
    # Label ranks stand in for labels: an edge becomes the key a * n + b
    # of its end ranks a < b, and sorting the keys sorts the label pairs.
    keys = []
    for u, nbrs in enumerate(geom.graph.adjacency):
        a = rank[u]
        for w in nbrs:
            b = rank[w]
            if a < b:
                keys.append(a * n + b)
    keys.sort()
    first = ["[\n      " + e + ",\n      " for e in esc]
    second = [e + "\n    ]" for e in esc]
    fields = (
        ("vertices", esc),
        ("edges", [first[key // n] + second[key % n] for key in keys]),
        ("inputs", [esc[r] for r in sorted(rank[v] for v in geom.inputs)]),
        ("outputs", [esc[r] for r in sorted(rank[v] for v in geom.outputs)]),
    )
    return json_block([f'"{key}": {json_block(items, 1)}' for key, items in fields], 0, "{}") + "\n"
