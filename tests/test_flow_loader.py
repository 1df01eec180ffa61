"""The flow loader against its frozen reference, on flow files with one or two faults."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowscope import (
    ExtremalPartition,
    FlowFormatError,
    Geometry,
    Graph,
    dump_flow,
    find_causal_flow,
    generate_extremal,
    load_flow,
)

from .conftest import path_geometry
from .flow_loader_reference import reference_load_flow

LABELS = st.text(st.sampled_from("ab'\"\\é"), min_size=1, max_size=3)
NOT_LABELS = st.sampled_from([3, None, "", ["a"], True, 1.5, {"a": 1}])
UNKNOWN = st.text(st.sampled_from("xyz"), min_size=1, max_size=2)  # no label of LABELS
BAD_LABELS = st.one_of(NOT_LABELS, UNKNOWN)


@st.composite
def flow_files(draw) -> tuple[Geometry, dict]:
    """A geometry with a flow and that flow's file as a JSON object, its keys and paths in any order.

    The geometry is an extremal one whose ids are permuted, so that label
    order, id order and orbit order all differ.
    """
    parts = tuple(sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    base, _ = generate_extremal(ExtremalPartition(parts))
    n = base.vertex_count
    perm = draw(st.permutations(range(n)))
    geom = Geometry(
        Graph.from_edges(n, [(perm[u], perm[v]) for u, v in base.graph.edges()]),
        frozenset(perm[v] for v in base.inputs),
        frozenset(perm[v] for v in base.outputs),
        draw(st.lists(LABELS, min_size=n, max_size=n, unique=True)),
    )
    data = json.loads(dump_flow(geom, find_causal_flow(geom).flow))
    for key in ("successor", "ranks"):
        data[key] = dict(draw(st.permutations(list(data[key].items()))))
    data["paths"] = draw(st.permutations(data["paths"]))
    return geom, data


def replace_item(draw, mapping: dict, change) -> dict:
    """``mapping`` with one entry (key, value) replaced by ``change(key, value)``, in place in the order."""
    items = list(mapping.items())
    pos = draw(st.integers(0, len(items) - 1))
    items[pos] = change(*items[pos])
    return dict(items)


def mutate(draw, data: dict, kind: str) -> None:
    """Apply one fault of ``kind`` to ``data`` in place, where the file has room for it."""
    successor, ranks, paths = data["successor"], data["ranks"], data["paths"]
    if kind == "successor-key" and successor:
        data["successor"] = replace_item(draw, successor, lambda key, value: (draw(UNKNOWN), value))
    elif kind == "successor-value" and successor:
        data["successor"] = replace_item(draw, successor, lambda key, value: (key, draw(BAD_LABELS)))
    elif kind == "rank-label":
        data["ranks"] = replace_item(draw, ranks, lambda key, value: (draw(UNKNOWN), value))
    elif kind == "rank-value":
        bad = st.sampled_from([True, False, -1, 1.5])
        data["ranks"] = replace_item(draw, ranks, lambda key, value: (key, draw(bad)))
    elif kind == "missing-rank":
        del ranks[draw(st.sampled_from(sorted(ranks)))]
    elif kind == "path-label":
        path = paths[draw(st.integers(0, len(paths) - 1))]
        path[draw(st.integers(0, len(path) - 1))] = draw(BAD_LABELS)
    elif kind == "not-an-orbit":
        pos = draw(st.integers(0, len(paths) - 1))
        path = paths[pos]
        change = draw(st.sampled_from(["reverse", "split", "drop", "join", "repeat", "empty"]))
        if change == "reverse" and len(path) > 1:
            path.reverse()
        elif change == "split" and len(path) > 1:
            cut = draw(st.integers(1, len(path) - 1))
            paths[pos : pos + 1] = [path[:cut], path[cut:]]
        elif change == "drop":
            del paths[pos]
        elif change == "join" and pos + 1 < len(paths):
            paths[pos : pos + 2] = [path + paths[pos + 1]]
        elif change == "repeat":
            path.append(path[0])
        elif change == "empty":
            paths.insert(pos, [])
    elif kind == "path-not-a-list" and paths:
        paths[draw(st.integers(0, len(paths) - 1))] = draw(st.sampled_from(["a", 1, None, {}]))
    elif kind == "not-an-object":
        data[draw(st.sampled_from(sorted(data)))] = draw(st.sampled_from([[], "a", 1, None]))


FAULTS = [
    "successor-key", "successor-value", "rank-label", "rank-value", "missing-rank",
    "path-label", "not-an-orbit", "path-not-a-list", "not-an-object",
]  # in the order they are applied: each later one may leave what an earlier one needs unusable


@st.composite
def faulty_flow_files(draw) -> tuple[Geometry, str]:
    """A geometry and a flow file for it with one or two faults."""
    geom, data = draw(flow_files())
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2))
    for kind in sorted(set(faults), key=FAULTS.index):
        mutate(draw, data, kind)
    return geom, json.dumps(data, indent=draw(st.sampled_from([None, 2])))


def outcome(load, geom: Geometry, text: str):
    """What ``load`` makes of ``text``: the flow and cover, or the error message."""
    try:
        return load(geom, text)
    except FlowFormatError as exc:
        return str(exc)


@given(faulty_flow_files())
@settings(max_examples=300, deadline=None)
def test_flow_loader_matches_reference(case):
    geom, text = case
    assert outcome(load_flow, geom, text) == outcome(reference_load_flow, geom, text)


@given(flow_files())
@settings(max_examples=50, deadline=None)
def test_valid_flow_files_load_as_the_reference_does(case):
    geom, data = case
    text = json.dumps(data)
    flow, cover = load_flow(geom, text)
    assert (flow, cover) == reference_load_flow(geom, text)
    assert flow == find_causal_flow(geom).flow


@pytest.mark.parametrize(
    "successor, ranks, message",
    [
        ({"0": "x", "y": "2"}, {}, "successor: unknown vertex label 'x'"),
        ({"y": "1", "1": "x"}, {}, "successor: unknown vertex label 'y'"),
        ({"0": "1", "1": None}, {}, "successor: expected a vertex label, got None"),
        ({}, {"0": -1, "x": 0}, "ranks['0']: expected a non-negative integer"),
        ({}, {"x": -1, "0": 0}, "ranks: unknown vertex label 'x'"),
        ({}, {"0": 0, "x": 0, "1": True}, "ranks: unknown vertex label 'x'"),
        ({}, {"0": 0, "1": 1.5, "x": 0}, "ranks['1']: expected a non-negative integer"),
    ],
)
def test_first_fault_in_file_order_is_named(successor, ranks, message):
    geom = path_geometry(3)
    text = json.dumps({"successor": successor, "ranks": ranks, "paths": []})
    for load in (load_flow, reference_load_flow):
        with pytest.raises(FlowFormatError) as exc:
            load(geom, text)
        assert str(exc.value) == message
