"""The flow loader as it was before one resolver mapped its labels.

``load_flow`` once resolved the labels of ``successor``, ``ranks`` and
``paths`` each with its own bulk lookup and its own one-by-one fallback
that named the first bad label.  This is that routine, kept verbatim as
the reference that the differential flow loader test compares the
package's ``load_flow`` with.  It shares the strict JSON decoder and the
orbit check with the package.  Not public API.
"""

from __future__ import annotations

from flowscope.flow import (
    FLOW_FILE_KEYS,
    CausalFlow,
    FlowFormatError,
    PathCover,
    _check_orbits,
)
from flowscope.geometry import Geometry, GeometryError, _gc_paused, load_json_object

from .conftest import successor_function


@_gc_paused
def reference_load_flow(geom: Geometry, text: str) -> tuple[CausalFlow, PathCover]:
    """Parse a flow file against a geometry; the flow conditions are left to verify_flow.

    Labels are resolved in bulk through the geometry's label index; they
    are resolved one by one only to name the first that fails.  ``paths``
    must be the orbits of f, in any order (see ``_check_orbits``).
    """
    data = load_json_object(text, FLOW_FILE_KEYS, FlowFormatError, "flow")
    index = geom._label_index

    def resolve(label: object, where: str) -> int:
        if not isinstance(label, str):
            raise FlowFormatError(f"{where}: expected a vertex label, got {label!r}")
        try:
            return geom.id_of(label)
        except GeometryError as exc:
            raise FlowFormatError(f"{where}: {exc}") from None

    successor = data["successor"]
    if not isinstance(successor, dict):
        raise FlowFormatError("'successor' must be an object")
    try:
        pairs = [(index[x], index[y]) for x, y in successor.items()]
    except (KeyError, TypeError):
        pairs = [(resolve(x, "successor"), resolve(y, "successor")) for x, y in successor.items()]

    raw_ranks = data["ranks"]
    if not isinstance(raw_ranks, dict):
        raise FlowFormatError("'ranks' must be an object")
    values = list(raw_ranks.values())
    try:
        ids = [index[label] for label in raw_ranks]
    except KeyError:
        ids = None
    if ids is None or not set(map(type, values)) <= {int} or min(values, default=0) < 0:
        for label, value in raw_ranks.items():
            resolve(label, "ranks")
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise FlowFormatError(f"ranks[{label!r}]: expected a non-negative integer")
    ranks = [0] * geom.vertex_count
    for v, value in zip(ids, values):
        ranks[v] = value
    if len(ids) != geom.vertex_count:
        missing_v = min(set(range(geom.vertex_count)) - set(ids))
        raise FlowFormatError(f"missing rank for vertex {geom.label_of(missing_v)!r}")

    raw_paths = data["paths"]
    if not isinstance(raw_paths, list):
        raise FlowFormatError("'paths' must be a list")
    paths = None
    if set(map(type, raw_paths)) <= {list}:
        try:
            paths = [tuple(map(index.__getitem__, raw)) for raw in raw_paths]
        except (KeyError, TypeError):
            pass
    if paths is None:
        paths = []
        for pos, raw in enumerate(raw_paths):
            if not isinstance(raw, list):
                raise FlowFormatError(f"paths[{pos}]: expected a list of labels")
            paths.append(tuple(resolve(label, f"paths[{pos}]") for label in raw))

    flow = CausalFlow(successor_function(geom.vertex_count, pairs), tuple(ranks))
    _check_orbits(geom, flow.successor.image, paths)
    return flow, PathCover(tuple(paths))
