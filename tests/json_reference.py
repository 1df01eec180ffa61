"""The original ``json.dumps`` renderers of the two file formats, kept as the reference.

``serialize_geometry`` and ``dump_flow`` now build the same indent-2
layout by joining strings; these are the routines they once were, and the
byte-identity tests compare the two.  Not public API.
"""

from __future__ import annotations

import json

from flowscope import CausalFlow, Geometry, PathCover
from flowscope.flow import _splice_orbits


def reference_serialize_geometry(geom: Geometry) -> str:
    labels = [geom.label_of(v) for v in range(geom.vertex_count)]
    edge_pairs = sorted(sorted((labels[u], labels[v])) for u, v in geom.graph.edges())
    payload = {
        "vertices": sorted(labels),
        "edges": [list(pair) for pair in edge_pairs],
        "inputs": sorted(labels[v] for v in geom.inputs),
        "outputs": sorted(labels[v] for v in geom.outputs),
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_dump_flow(geom: Geometry, flow: CausalFlow, cover: PathCover | None = None) -> str:
    if cover is None:
        paths = _splice_orbits(flow.successor.image)
        if paths is None:
            raise ValueError("successor orbits contain a cycle; cannot lay out paths")
        cover = PathCover(paths)
    lab = geom.label_of
    payload = {
        "successor": {lab(x): lab(y) for x, y in sorted(flow.successor.pairs, key=lambda p: lab(p[0]))},
        "ranks": {lab(v): flow.order_rank[v] for v in sorted(range(geom.vertex_count), key=lab)},
        "paths": [[lab(v) for v in path] for path in cover.paths],
    }
    return json.dumps(payload, indent=2) + "\n"
