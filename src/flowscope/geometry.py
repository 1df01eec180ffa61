"""Immutable graphs and geometries, plus the geometry file format.

Vertices are dense integers 0..n-1 everywhere inside the package.  String
labels exist only at the ingestion and serialization boundary; they are
carried on the geometry so output stays readable.  Every id a caller
hands in obeys the one rule of ``_first_bad``; only ``Graph._from_ends``
and ``_simple_graph`` trust their ids, which their callers resolved.

Each rule is checked once, where the data enters: ``load_geometry``
checks a file and builds its geometry without running the constructor's
checks again, and ``Geometry(...)`` checks what a caller hands it.  A
file that loads passes only bulk tests, each over a whole collection at
once; a file that one refuses is decoded again by ``_name_fault``, the
one place that names a file's first fault.  The label index behind
``id_of`` is built on first use; a loaded geometry keeps the index that
resolved its file.

Reading and writing a geometry file makes no object per edge beyond what
the JSON parser builds.  ``load_geometry`` links the parsed label pairs
straight into the neighbour lists a piece or a chunk at a time, so the
parser's lists and strings are freed while the graph grows, and it
decodes a large file's edge list a piece at a time, so they are never all
alive at once;
``serialize_geometry`` makes the text with one join over pieces shared per
label.  Loading a file in ``serialize_geometry``'s layout holds at most
about 2 times its length at once (any other layout about 5.3 times what
the same geometry takes in that layout), and writing one about 3 times.

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
from functools import cached_property, wraps
from json.encoder import encode_basestring_ascii
from typing import Collection, Iterable, Iterator, NoReturn

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
            # The young-generation pass that the next allocation would start
            # runs here instead, so the call, not its successor, pays for it.
            # A threshold of 0 turns automatic collection off.  Both numbers
            # are read while the collector is off, since the tuples that
            # report them are allocations that could start that pass.
            young, threshold = gc.get_count()[0], gc.get_threshold()[0]
            gc.enable()
            if threshold and young > threshold:
                gc.collect(0)

    return call


def _unchecked(cls, **fields):
    """An instance of the value class ``cls`` holding ``fields``, which obey its rules; no check runs."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _Record:
    """Base of the package's immutable value classes.

    A subclass names its fields, in order, in ``_fields``; its ``__init__``
    writes them straight into the instance ``__dict__``, as ``_unchecked``
    does.  Instances are equal when they have the same class and equal
    fields, hash by the tuple of their fields, print as
    ``Name(field=value, ...)``, and refuse assignment and deletion with
    ``dataclasses.FrozenInstanceError``, as a frozen dataclass does.  The
    classes are not dataclasses, so importing the package neither loads
    ``dataclasses`` nor generates code for them.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        return f"{type(self).__qualname__}({', '.join(f'{name}={d[name]!r}' for name in self._fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        _refuse(f"cannot delete field {name!r}")


def _refuse(message: str) -> None:
    from dataclasses import FrozenInstanceError  # loaded only on this error path

    raise FrozenInstanceError(message)


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


class Graph(_Record):
    """Undirected simple graph: no self-loops, no parallel edges.

    ``adjacency[v]`` is the ascending tuple of neighbours of ``v``.  Keeping
    neighbour order sorted makes every traversal in the package
    deterministic.
    """

    _fields = ("vertex_count", "adjacency", "edge_count")

    def __init__(self, vertex_count: int, adjacency: tuple[tuple[int, ...], ...], edge_count: int) -> None:
        d = self.__dict__
        d["vertex_count"] = vertex_count
        d["adjacency"] = adjacency
        d["edge_count"] = edge_count

    @classmethod
    @_gc_paused
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
        """Build a graph from unordered vertex pairs, validating simplicity.

        Every edge must be a pair; for any other fault (unknown vertex,
        self-loop or duplicate edge), the first offending edge is named.
        """
        if _first_bad((vertex_count,)) is not None:
            raise GeometryError(
                "vertex count must be non-negative"
                if type(vertex_count) is int
                else f"vertex count must be an int, not {vertex_count!r}"
            )
        try:
            ends = [end for u, v in edges for end in (u, v)]
        except (TypeError, ValueError):
            raise GeometryError("every edge must be a pair of vertex ids") from None
        if _first_bad(ends, vertex_count) is not None:
            _raise_first_bad_edge(vertex_count, ends)
        return cls._from_ends(vertex_count, ends)

    @classmethod
    def _from_ends(cls, n: int, ends: list[int]) -> Graph:
        """Build a graph on ``n >= 0`` vertices from edge ends ``u0, v0, u1, v1, ...``.

        The ends must be ids in ``range(n)``: they are trusted, because
        every caller resolved them itself.  No per-edge object is made.
        The ends are scanned for the first offending edge only if the graph is not simple.
        """
        adj: list[list[int]] = [[] for _ in range(n)]
        pairs = iter(ends)
        for u, v in zip(pairs, pairs):
            adj[u].append(v)
            adj[v].append(u)
        graph = _simple_graph(adj, len(ends) // 2)
        if graph is None:
            _raise_first_bad_edge(n, ends)
        return graph

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)


def _simple_graph(adj: list[list[int]], m: int) -> Graph | None:
    """The graph on the ``m`` edges in ``adj`` (sorted in place), or None if some list holds an id twice."""
    for nbrs in adj:
        nbrs.sort()
    if sum(map(len, map(set, adj))) != 2 * m:
        return None
    return _unchecked(Graph, vertex_count=len(adj), adjacency=tuple(map(tuple, adj)), edge_count=m)


def _first_bad(values: Collection[object], bound: int | None = None) -> int | None:
    """Position of the first value that breaks the vertex-id rule, or None.

    The package's one rule for an id ``v``: ``type(v) is int and 0 <= v <
    bound``, so a bool is no id; a ``bound`` of None (ranks) has no upper
    limit.  The collection is tested at once; only a failure walks it.
    """
    if (
        set(map(type, values)) <= {int}
        and min(values, default=0) >= 0
        and (bound is None or max(values, default=-1) < bound)
    ):
        return None
    return next(
        pos
        for pos, value in enumerate(values)
        if type(value) is not int or value < 0 or (bound is not None and value >= bound)
    )


def _raise_first_bad_edge(n: int, ends: list[int]) -> None:
    """Raise EdgeError for the first edge that is not a new pair of distinct vertex ids."""
    seen: set[tuple[int, int]] = set()
    pairs = iter(ends)
    for pos, (u, v) in enumerate(zip(pairs, pairs)):
        if _first_bad((u, v), n) is not None:
            raise EdgeError(f"edge ({u!r}, {v!r}) references an unknown vertex", pos, "unknown-vertex")
        if u == v:
            raise EdgeError(f"self-loop at vertex {u}", pos, "self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeError(f"duplicate edge ({key[0]}, {key[1]})", pos, "duplicate")
        seen.add(key)


class Geometry(_Record):
    """A graph together with its input and output vertex sets.

    Inputs and outputs may overlap.  The measured vertices are those
    outside the output set; correction partners must lie outside the
    input set.  Instances are immutable and safe to share.
    """

    _fields = ("graph", "inputs", "outputs", "labels")

    def __init__(
        self,
        graph: Graph,
        inputs: Iterable[int],
        outputs: Iterable[int],
        labels: Iterable[str] | None = None,
    ) -> None:
        d = self.__dict__
        d["graph"] = graph
        d["inputs"] = frozenset(inputs)
        d["outputs"] = frozenset(outputs)
        d["labels"] = labels
        n = graph.vertex_count
        for name in ("inputs", "outputs"):
            ids = tuple(d[name])
            bad = _first_bad(ids, n)
            if bad is not None:
                raise GeometryError(f"{name} reference unknown vertex {ids[bad]!r}")
        if labels is not None:
            labels = d["labels"] = tuple(labels)
            if len(labels) != n:
                raise GeometryError("label count does not match vertex count")
            _check_labels(labels)

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

    def label_of(self, v: int) -> str:
        if type(v) is int and 0 <= v < self.graph.vertex_count:
            return self._names[v]
        raise GeometryError(f"unknown vertex {v!r}")

    @cached_property
    def _names(self) -> tuple[str, ...]:
        """``label_of(v)`` for every vertex, indexed by id."""
        return self.labels if self.labels is not None else tuple(map(str, range(self.vertex_count)))

    @cached_property
    def _label_index(self) -> dict[str, int]:
        """Id by label, built on first use; ``load_geometry`` hands over its own."""
        return dict(zip(self._names, range(self.vertex_count)))

    def id_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label, such as a list
            raise GeometryError(f"unknown vertex label {label!r}") from None


def _check_labels(labels: tuple) -> None:
    """Raise GeometryError unless the labels are distinct non-empty strings.

    The first label that breaks the rule is named by its position.  The
    labels are inspected one by one only to find it.
    """
    if set(map(type, labels)) <= {str}:
        distinct = set(labels)
        if len(distinct) == len(labels) and "" not in distinct:
            return
    seen: set[str] = set()
    for pos, label in enumerate(labels):
        if not isinstance(label, str) or not label:
            raise GeometryError(f"vertices[{pos}]: labels must be non-empty strings")
        if label in seen:
            raise GeometryError(f"vertices[{pos}]: duplicate label {label!r}")
        seen.add(label)


class _DuplicateKey(Exception):
    """Raised by ``_unique_keys``; its one argument is the repeated key."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(key)
            seen.add(key)
    return obj


# Built once: ``json.loads`` with a hook would build a decoder per call.
_STRICT_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)

_KEY_SET = frozenset(FILE_KEYS)

# Characters of a large geometry file's edge list decoded at once (see ``load_geometry``).
_PIECE = 1 << 14
# Pairs of a whole-decoded edge list linked at once (see ``_load``).
_CHUNK = 1 << 10


def load_json_object(text: str, keys: tuple[str, ...], error: type[ValueError], kind: str) -> dict:
    """Parse a ``kind`` file: one JSON object holding exactly ``keys``.

    A key repeated in any object of the file is rejected instead of
    silently keeping its last value.  Every problem raises ``error``.
    """
    try:
        if text.startswith("\ufeff"):  # the check json.loads makes before decoding
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _STRICT_DECODER.decode(text)
    except _DuplicateKey as exc:
        raise error(f"duplicate key {exc.args[0]!r}") from None
    except json.JSONDecodeError as exc:
        raise error(f"malformed {kind} file: {exc}") from exc
    except RecursionError:
        raise error(f"malformed {kind} file: nested too deeply") from None
    if not isinstance(data, dict):
        raise error(f"{kind} file must contain a top-level object")
    if data.keys() == set(keys):
        return data
    missing = [k for k in keys if k not in data]
    if missing:
        raise error(f"missing key(s): {', '.join(missing)}")
    raise error(f"unknown key(s): {', '.join(k for k in data if k not in keys)}")


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
    the returned geometry, with the index that resolved them.  Structural
    problems are reported with the offending key and position.  Every rule
    is checked here, so the constructor's checks do not run.

    A file that loads passes only bulk tests, each made on a whole
    collection at once (see ``_load``).  When one refuses the file,
    ``_name_fault`` decodes it again and names its first fault, so the
    messages do not depend on which test refused it.

    A large file in ``serialize_geometry``'s layout is decoded in pieces,
    so that the decoder's list and two strings per edge are never alive
    for the whole edge list at once.  Its edge list is the text between
    ``\n  "edges": [`` and the last ``\n  ],\n  "inputs": ``, and must
    span at least two pieces of ``_PIECE`` characters.  The file with that
    text cut out is decoded first, with every bulk test of a whole file,
    and must give an empty ``edges``.  The edge list is then decoded a
    piece at a time: a piece ends at a pair's ``\n    ]`` that is followed
    by ``,\n`` and lies at least ``_PIECE`` characters on, and is decoded
    as ``"[" + piece + "]"``.  Each piece's pairs are linked before the
    next piece is decoded.  If the cut-out file fails a test, or a piece
    does not decode to a non-empty list, the pieces are dropped and the
    whole text is decoded, which then loads or is named as any other file.
    A file loaded in pieces gives the same geometry decoded whole:

    - The decoder refuses raw control characters inside strings, so every
      raw newline of an accepted file lies between two tokens, and so does
      every cut, which sits between a ``\n    ]`` and its ``,\n``.
    - A cut that does not fall between two elements of the edge list
      leaves a bracket of some piece unbalanced, and that piece does not
      decode.
    - JSON values nest context-free: the pieces' elements, put in order
      into the cut-out file's ``[]``, are exactly what decoding the whole
      text gives at that place.
    - A ``"edges": [`` nested anywhere but at the top level sits inside a
      value the format forbids, since labels are strings: that file fails
      a test and is decoded whole.

    A piece that decodes but whose pairs fail a test, or pieces that all
    link into a graph that fails one, or inputs or outputs that fail one,
    send the text straight to ``_name_fault``: the whole text is then
    bound to fail too.  If it does not decode, it fails.  If it decodes
    to a sound file, the cut-out file, which passed the key test, lost no
    key to the cut, so the edge list is the value just before
    ``"inputs"``, and the cut-out file holds the same labels, inputs and
    outputs.  The decoded piece is balanced, so it never closes that edge
    list, and its elements are consecutive pairs of it: they would fail
    the same test there.  So a bad large file is decoded whole at most
    twice: once when the piece path gives up and once to name its fault.
    """
    if len(text) >= 2 * _PIECE:  # a shorter file cannot hold two pieces, and is not searched
        opener = '\n  "edges": ['
        start = text.find(opener) + len(opener)
        end = text.rfind('\n  ],\n  "inputs": ', start) if start >= len(opener) else -1
        if end - start >= 2 * _PIECE:
            try:
                geom = _load(text[:start] + text[end:], _edge_pieces(text, start, end))
            except GeometryError:
                pass  # the whole text is decoded below, once this frame and its pieces are freed
            else:
                return geom if geom is not None else _name_fault(text)
    geom = _load(text)
    return geom if geom is not None else _name_fault(text)


def _edge_pieces(text: str, start: int, end: int) -> Iterator[list]:
    """The decoded pieces of the edge list ``text[start:end]`` (see ``load_geometry``).

    A piece that does not decode to a non-empty list raises GeometryError.
    """
    while start < end:
        cut = text.find("\n    ],\n", start + _PIECE, end)
        stop = end if cut < 0 else cut + 6  # just past the pair's "]"
        pairs = _decode("[" + text[start:stop] + "]")
        if not pairs:
            raise GeometryError("edge list piece does not decode")
        yield pairs
        start = stop + 1


def _decode(text: str) -> object:
    """``text`` decoded as strict JSON, or None if it does not decode."""
    try:
        return _STRICT_DECODER.decode(text)
    except (ValueError, RecursionError, _DuplicateKey):
        return None


def _tail_chunks(pairs: list) -> Iterator[list]:
    """``pairs`` cut off its end ``_CHUNK`` pairs at a time, so each chunk is freed once it is linked."""
    while pairs:
        chunk = pairs[-_CHUNK:]
        del pairs[-_CHUNK:]
        yield chunk


def _link(pairs: list, index: dict[str, int], adj: list[list[int]]) -> bool:
    """Link each label pair of ``pairs`` into ``adj``.

    False at the first item that is not a pair of labels in ``index``.
    """
    if not set(map(type, pairs)) <= {list}:  # a string such as "ab" would unpack into two labels
        return False
    try:
        for a, b in pairs:
            u, v = index[a], index[b]
            adj[u].append(v)
            adj[v].append(u)
    except (ValueError, KeyError, TypeError):
        return False  # a pair of another length, or an unknown or unhashable label
    return True


def _load(text: str, pieces: Iterator[list] | None = None) -> Geometry | None:
    """The geometry in the file ``text``, or None if a bulk test refuses it.

    The tests: the text decodes to an object with exactly the four keys,
    every value a list; the labels are strings whose index has an entry
    for each and no ``""``; every pair links (see ``_link``) into a
    simple graph; and the inputs and the outputs map to as many distinct
    ids as they have items.  The parsed edge list is cut off its end in
    chunks of ``_CHUNK`` pairs, each linked straight into the neighbour
    lists and then freed, so no list of edge ends is made and the parsed
    pairs are freed while the graph grows.  The order in which pairs are
    linked does not matter: the lists are sorted, and a refused file's
    first fault is named by ``_name_fault``.

    With ``pieces``, ``text`` is the file with its edge list cut out and
    ``pieces`` yields that list's pairs; a refused cut-out file, or a
    piece that does not decode, then raises GeometryError instead.
    """
    data = _decode(text)
    sound = type(data) is dict and data.keys() == _KEY_SET and set(map(type, data.values())) == {list}
    if sound:
        labels = tuple(data["vertices"])
        n = len(labels)
        # The type test comes first: only strings are labels, and only they may key the index.
        index = dict(zip(labels, range(n))) if set(map(type, labels)) <= {str} else {}
        edges = data.pop("edges")
        sound = len(index) == n and "" not in index and (pieces is None or not edges)
    if not sound:
        if pieces is not None:
            raise GeometryError("the file with its edge list cut out is refused")
        return None

    # The bulk of a whole file: each chunk of pairs is freed once it is linked.
    if pieces is None:
        pieces = _tail_chunks(edges)
    del edges
    adj: list[list[int]] = [[] for _ in range(n)]
    m = 0
    graph = None
    for pairs in pieces:
        m += len(pairs)
        if not _link(pairs, index, adj):
            break
    else:
        graph = _simple_graph(adj, m)
    del pieces, adj
    if graph is None:
        return None

    inputs, outputs = data["inputs"], data["outputs"]
    try:
        input_ids = frozenset(map(index.__getitem__, inputs))
        output_ids = frozenset(map(index.__getitem__, outputs))
    except (KeyError, TypeError):
        return None
    if len(input_ids) != len(inputs) or len(output_ids) != len(outputs):
        return None
    # Every rule is checked; the index that resolved the file becomes the cached ``_label_index``.
    return _unchecked(
        Geometry, graph=graph, inputs=input_ids, outputs=output_ids, labels=labels, _label_index=index
    )


def _name_fault(text: str) -> NoReturn:
    """Raise GeometryError naming the first fault of the geometry file ``text``.

    ``text`` is a file that some bulk test of ``_load`` refused.  It is
    decoded again, and its faults are sought one by one in this order:
    the decoding and the keys (see ``load_json_object``), a value that is
    not a list, the labels, each edge's shape and then its labels, a
    self-loop or a duplicate edge, and then each input and output.  A
    file with none of them is an internal error, never a load.
    """
    data = load_json_object(text, FILE_KEYS, GeometryError, "geometry")
    for key in FILE_KEYS:
        if not isinstance(data[key], list):
            raise GeometryError(f"'{key}' must be a list")
    labels = tuple(data["vertices"])
    _check_labels(labels)
    index = dict(zip(labels, range(len(labels))))

    def check(key: str, pos: int, item: object) -> int:
        if not isinstance(item, str) or item not in index:
            raise GeometryError(f"{key}[{pos}]: unknown vertex label {item!r}")
        return index[item]

    # Every pair's shape and labels are checked before a self-loop or duplicate is named.
    ends: list[int] = []
    for pos, pair in enumerate(data.pop("edges")):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GeometryError(f"edges[{pos}]: expected a 2-element list of labels")
        ends += [check("edges", pos, item) for item in pair]
    try:
        _raise_first_bad_edge(len(labels), ends)
    except EdgeError as exc:
        pos = exc.position
        a, b = labels[ends[2 * pos]], labels[ends[2 * pos + 1]]
        fault = f"self-loop at {a!r}" if exc.fault == "self-loop" else f"duplicate edge {a!r} -- {b!r}"
        raise GeometryError(f"edges[{pos}]: {fault}") from None
    for key in ("inputs", "outputs"):
        seen: set[int] = set()
        for pos, item in enumerate(data[key]):
            vid = check(key, pos, item)
            if vid in seen:
                raise GeometryError(f"{key}[{pos}]: duplicate label {item!r}")
            seen.add(vid)
    raise AssertionError("a geometry file that a bulk test refused has no fault to name")


def serialize_geometry(geom: Geometry) -> str:
    """Render a geometry as byte-stable text.

    Keys appear in the order vertices, edges, inputs, outputs; every list
    of labels is sorted lexicographically and each edge is written with
    its smaller label first.  The layout is ``json.dumps(payload,
    indent=2)`` plus a final newline, with ASCII escapes.

    The text is one join over pieces shared per label (its prefix as the
    first end of an edge and its suffix as the second) and one separator,
    so no per-edge string is made and the edge list is not copied again.
    """
    n = geom.vertex_count
    names = geom._names
    order = sorted(range(n), key=names.__getitem__)
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    esc = [encode_basestring_ascii(names[v]) for v in order]
    first = ["[\n      " + e + ",\n      " for e in esc]
    second = [e + "\n    ]" for e in esc]
    sep = ",\n    "
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
    m = len(keys)
    # out[0] opens the file, edge i is out[3i + 1 : 3i + 4] (its two ends and
    # a separator, the last one closing the list) and out[-1] ends the file.
    out = [sep] * (3 * m + 2)
    out[0] = f'{{\n  "vertices": {json_block(esc, 1)},\n  "edges": ' + ("[\n    " if m else "[]")
    out[1:-1:3] = [first[key // n] for key in keys]
    out[2:-1:3] = [second[key % n] for key in keys]
    del keys
    if m:
        out[-2] = "\n  ]"
    inputs = [esc[r] for r in sorted(rank[v] for v in geom.inputs)]
    outputs = [esc[r] for r in sorted(rank[v] for v in geom.outputs)]
    out[-1] = f',\n  "inputs": {json_block(inputs, 1)},\n  "outputs": {json_block(outputs, 1)}\n}}\n'
    return "".join(out)
