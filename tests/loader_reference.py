"""The geometry loader as it was before it built geometries without the constructor's checks.

``load_geometry`` once resolved a file with its own label index and then
handed the parts to the public ``Geometry(...)``, which checked every
rule again and built a second index.  These are those routines, kept
verbatim as the reference that the differential loader test compares
the package's ``load_geometry`` with.  They build the graph from a flat
list of edge ends through ``Graph._from_ends``, whose sort, simplicity
test and freeze are the tail that ``load_geometry`` runs too; they also
share the one edge check and the strict JSON decoder with the package.
Not public API.
"""

from __future__ import annotations

import json
from itertools import chain

from flowscope.geometry import (
    FILE_KEYS,
    _STRICT_DECODER,
    EdgeError,
    Geometry,
    GeometryError,
    Graph,
    _DuplicateKey,
)


def reference_index_labels(labels: list[str] | tuple[str, ...]) -> dict[str, int]:
    index = dict(zip(labels, range(len(labels)))) if set(map(type, labels)) <= {str} else {}
    if len(index) != len(labels) or "" in index:
        index = {}
        for pos, label in enumerate(labels):
            if not isinstance(label, str) or not label:
                raise GeometryError(f"vertices[{pos}]: labels must be non-empty strings")
            if label in index:
                raise GeometryError(f"vertices[{pos}]: duplicate label {label!r}")
            index[label] = pos
    return index


def reference_load_json_object(text: str, keys: tuple[str, ...], error: type[ValueError], kind: str) -> dict:
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
    missing = [k for k in keys if k not in data]
    if missing:
        raise error(f"missing key(s): {', '.join(missing)}")
    unknown = [k for k in data if k not in keys]
    if unknown:
        raise error(f"unknown key(s): {', '.join(unknown)}")
    return data


def reference_geometry(graph: Graph, inputs, outputs, labels) -> Geometry:
    """``Geometry(...)`` with the label index built and kept on construction, as it once was."""
    geom = Geometry(graph, inputs, outputs, labels)
    if geom.labels is not None:
        object.__setattr__(geom, "_label_index", reference_index_labels(geom.labels))
    return geom


def reference_load_geometry(text: str) -> Geometry:
    data = reference_load_json_object(text, FILE_KEYS, GeometryError, "geometry")
    for key in FILE_KEYS:
        if not isinstance(data[key], list):
            raise GeometryError(f"'{key}' must be a list")

    labels = data["vertices"]
    index = reference_index_labels(labels)

    def check(key: str, pos: int, item: object) -> int:
        if not isinstance(item, str) or item not in index:
            raise GeometryError(f"{key}[{pos}]: unknown vertex label {item!r}")
        return index[item]

    pairs = data["edges"]
    ends = None
    if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}:
        try:
            ends = list(map(index.__getitem__, chain.from_iterable(pairs)))
        except (KeyError, TypeError):
            pass
    if ends is None:  # some pair is malformed or names an unknown label
        for pos, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise GeometryError(f"edges[{pos}]: expected a 2-element list of labels")
            check("edges", pos, pair[0])
            check("edges", pos, pair[1])
    # The parsed pairs are the largest part of the file; free them first.
    del pairs, data["edges"]
    try:
        graph = Graph._from_ends(len(labels), ends)
    except EdgeError as exc:
        pos = exc.position
        a, b = labels[ends[2 * pos]], labels[ends[2 * pos + 1]]
        if exc.fault == "self-loop":
            raise GeometryError(f"edges[{pos}]: self-loop at {a!r}") from None
        if exc.fault == "duplicate":
            raise GeometryError(f"edges[{pos}]: duplicate edge {a!r} -- {b!r}") from None
        raise

    ids_of: dict[str, frozenset[int]] = {}
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
        ids_of[key] = ids

    return reference_geometry(graph, ids_of["inputs"], ids_of["outputs"], tuple(labels))
