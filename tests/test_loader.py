"""The geometry loader against its frozen reference, and when the label index is built."""

from __future__ import annotations

import json
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowscope import (
    ExtremalPartition,
    Geometry,
    GeometryError,
    Graph,
    dump_flow,
    find_causal_flow,
    generate_extremal,
    load_flow,
    load_geometry,
    serialize_geometry,
)
from flowscope import geometry

from .conftest import geometries
from .loader_reference import reference_load_geometry

LABELS = st.text(st.sampled_from("ab'\"\\é"), min_size=1, max_size=3)
NOT_LABELS = st.sampled_from([3, None, "", ["a"], True, 1.5, {"a": 1}])


@st.composite
def geometry_data(draw) -> dict:
    """A valid geometry file as a JSON object, its lists in any order."""
    geom = draw(geometries())
    n = geom.vertex_count
    labels = draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))
    edges = [[labels[u], labels[v]][:: draw(st.sampled_from([1, -1]))] for u, v in geom.graph.edges()]
    return {
        "vertices": labels,
        "edges": draw(st.permutations(edges)),
        "inputs": draw(st.permutations([labels[v] for v in geom.inputs])),
        "outputs": draw(st.permutations([labels[v] for v in geom.outputs])),
    }


def mutate(draw, data: dict, kind: str) -> None:
    """Apply one fault of ``kind`` to ``data`` in place, where the file has room for it."""
    vertices, edges = data.get("vertices"), data.get("edges")
    # Faults that replace or remove a key come last, so only they may find a key gone or not a list;
    # "bad-pair" comes after the other edge faults, so only it may find an edge that is not a pair.
    index = st.integers(0, max(len(vertices) - 1, 0)) if isinstance(vertices, list) else None
    if kind == "drop-label" and vertices:
        del vertices[draw(index)]
    elif kind == "duplicate-label" and vertices:
        vertices.insert(draw(st.integers(0, len(vertices))), vertices[draw(index)])
    elif kind == "bad-label" and vertices:
        vertices[draw(index)] = draw(NOT_LABELS)
    elif kind == "unknown-edge-label" and edges:
        pair = edges[draw(st.integers(0, len(edges) - 1))]
        pair[draw(st.integers(0, 1))] = draw(st.one_of(NOT_LABELS, st.just("zz")))
    elif kind == "self-loop" and vertices:
        edges.insert(draw(st.integers(0, len(edges))), [vertices[draw(index)]] * 2)
    elif kind == "duplicate-edge" and edges:
        edges.insert(draw(st.integers(0, len(edges))), edges[draw(st.integers(0, len(edges) - 1))][::-1])
    elif kind == "bad-pair" and edges:
        pos = draw(st.integers(0, len(edges) - 1))
        edges[pos] = draw(st.sampled_from([edges[pos] + edges[pos][:1], edges[pos][:1], "ab", None]))
    elif kind == "duplicate-input":
        key = draw(st.sampled_from(["inputs", "outputs"]))
        items = data[key]
        if items:
            items.insert(draw(st.integers(0, len(items))), items[draw(st.integers(0, len(items) - 1))])
    elif kind == "unknown-input":
        items = data[draw(st.sampled_from(["inputs", "outputs"]))]
        items.insert(draw(st.integers(0, len(items))), draw(st.one_of(NOT_LABELS, st.just("zz"))))
    elif kind == "not-a-list":
        data[draw(st.sampled_from(sorted(data)))] = draw(st.sampled_from(["a", 1, None, {}]))
    elif kind == "missing-key":
        del data[draw(st.sampled_from(sorted(data)))]
    elif kind == "unknown-key":
        data["extra"] = []


TEXT_FAULTS = {
    "duplicate-key": lambda text: text.replace("{", '{"inputs": [], ', 1),
    "bom": lambda text: "\ufeff" + text,
    "truncated": lambda text: text[:-1],
    "not-an-object": lambda text: "[" + text + "]",
}
DATA_FAULTS = [
    "drop-label", "duplicate-label", "bad-label", "unknown-edge-label", "self-loop", "duplicate-edge",
    "bad-pair", "duplicate-input", "unknown-input", "not-a-list", "missing-key", "unknown-key",
]  # in the order they are applied: the last three replace or remove a key


@st.composite
def geometry_texts(draw) -> str:
    """A geometry file with one or two faults, each in its data or its text."""
    data = draw(geometry_data())
    faults = draw(st.lists(st.sampled_from(DATA_FAULTS + list(TEXT_FAULTS)), min_size=1, max_size=2))
    for kind in sorted(set(faults) & set(DATA_FAULTS), key=DATA_FAULTS.index):
        mutate(draw, data, kind)
    text = json.dumps(data, indent=draw(st.sampled_from([None, 2])))
    for kind in faults:
        if kind in TEXT_FAULTS:
            text = TEXT_FAULTS[kind](text)
    return text


def outcome(load, text: str):
    """What ``load`` makes of ``text``: the geometry with its label index, or the error."""
    try:
        geom = load(text)
    except GeometryError as exc:
        return type(exc), str(exc)
    ids = {label: geom.id_of(label) for label in geom.labels}
    return geom.graph, geom.inputs, geom.outputs, geom.labels, ids


@given(geometry_texts())
@settings(max_examples=200, deadline=None)
def test_loader_matches_reference(text):
    assert outcome(load_geometry, text) == outcome(reference_load_geometry, text)


@pytest.mark.parametrize("piece", [1, 40, 200])
@given(text=geometry_texts())
@settings(max_examples=300, deadline=None)
def test_loader_in_pieces_matches_reference(piece, text):
    # Half the files are laid out with indent=2, as serialize_geometry writes them, so a short
    # piece length sends each of those with a non-empty edge list down the piece path.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_PIECE", piece)
        assert outcome(load_geometry, text) == outcome(reference_load_geometry, text)


def laid_out(data: dict) -> str:
    """``data`` as a geometry file in ``serialize_geometry``'s layout, its keys in their order in ``data``."""
    return json.dumps(data, indent=2) + "\n"


def ring(labels: list[str]) -> dict:
    """A cycle through ``labels`` with two chords, one input and one output, as file data."""
    n = len(labels)
    edges = [[labels[i], labels[(i + 1) % n]] for i in range(n)]
    edges += [[labels[0], labels[n // 2]], [labels[1], labels[3]]]
    return {"vertices": labels, "edges": edges, "inputs": labels[:1], "outputs": labels[-1:]}


LABELS_12 = [f"v{i}" for i in range(12)]
M = len(ring(LABELS_12)["edges"])


def with_edge(pos: int, make) -> str:
    """The 12-vertex ring with edge ``pos`` replaced by ``make(edges, pos)``."""
    data = ring(LABELS_12)
    data["edges"][pos] = make(data["edges"], pos)
    return laid_out(data)


EDGE_FAULTS = {
    "non-list-pair": lambda edges, pos: "v0v1",
    "unknown-label": lambda edges, pos: [edges[pos][0], "zz"],
    "self-loop": lambda edges, pos: [edges[pos][0]] * 2,
    "duplicate": lambda edges, pos: edges[pos - 1 if pos else 1][::-1],
}


def nested_opener() -> str:
    """A file whose top-level edge list, written compact, holds an object laid out like a large file's edge list."""
    inner = json.dumps({"edges": ring(LABELS_12)["edges"], "inputs": []}, indent=2)
    return '{"vertices": %s, "edges": [["v0", %s]], "inputs": [], "outputs": []}' % (json.dumps(LABELS_12), inner)


PIECE_FILES = {
    "labels-like-the-layout": laid_out(ring(["a],", '"edges": [', "x\ny", "\n    ],\n", "b", "c", "d"])),
    "label-named-edges": laid_out(ring(["edges", "vertices", "inputs", "a", "b", "c"])),
    "edges-before-vertices": laid_out(
        {key: ring(LABELS_12)[key] for key in ("edges", "vertices", "inputs", "outputs")}
    ),
    "reversed-keys": laid_out(dict(reversed(list(ring(LABELS_12).items())))),
    "edges-then-inputs-before-vertices": laid_out(
        {key: ring(LABELS_12)[key] for key in ("edges", "inputs", "vertices", "outputs")}
    ),
    "repeated-inputs-after-edges": laid_out(ring(LABELS_12))[:-3] + ',\n  "inputs": []\n}\n',
    "repeated-edges-after-edges": laid_out(ring(LABELS_12))[:-3] + ',\n  "edges": []\n}\n',
    "trailing-data": laid_out(ring(LABELS_12)) + "x",
    "bom": "\ufeff" + laid_out(ring(LABELS_12)),
    "crlf": laid_out(ring(LABELS_12)).replace("\n", "\r\n"),
    "compact": json.dumps(ring(LABELS_12)),
    "empty-edge-list": laid_out(dict(ring(LABELS_12), edges=[])),
    "one-edge": laid_out(dict(ring(LABELS_12), edges=[["v0", "v1"]])),
    "trailing-comma-in-edge-list": laid_out(ring(LABELS_12)).replace("\n    ]\n  ],", "\n    ],\n  ],"),
    "object-in-edge-list": laid_out(ring(LABELS_12)).replace(
        "\n    ]\n  ],", '\n    ],\n    {"a": [\n    ],\n    "a": 1}\n  ],'
    ),
    "nested-edge-list": nested_opener(),
    "not-an-object": laid_out(ring(LABELS_12)).replace("{", "[{", 1)[:-1] + "]\n",
    "unknown-input": laid_out(dict(ring(LABELS_12), inputs=["zz"])),
    "bad-label": laid_out(dict(ring(LABELS_12), vertices=LABELS_12[:-1] + [7])),
    **{
        f"{fault}-{where}": with_edge(pos, make)
        for fault, make in EDGE_FAULTS.items()
        for where, pos in (("first", 0), ("middle", M // 2), ("last", M - 1))
    },
}


@pytest.mark.parametrize("piece", [1, 40])
@pytest.mark.parametrize("name", sorted(PIECE_FILES))
def test_file_loads_the_same_in_pieces_and_whole(monkeypatch, name, piece):
    text = PIECE_FILES[name]
    monkeypatch.setattr(geometry, "_PIECE", len(text))
    whole = outcome(load_geometry, text)
    monkeypatch.setattr(geometry, "_PIECE", piece)
    assert outcome(load_geometry, text) == whole == outcome(reference_load_geometry, text)


@pytest.mark.parametrize("name", sorted(PIECE_FILES) + ["sound"])
def test_file_in_the_layout_is_decoded_whole_at_most_twice(monkeypatch, name):
    # Once if the piece path gives up and once to name the fault.  A piece
    # that decodes but whose pairs fail a test goes straight to the namer,
    # so a file whose pieces all decode is decoded whole only by the namer.
    text = PIECE_FILES.get(name) or laid_out(ring(LABELS_12))
    decoder = geometry._STRICT_DECODER
    whole = []

    class Counting:
        def decode(self, s: str):
            whole.append(s is text)
            return decoder.decode(s)

    monkeypatch.setattr(geometry, "_STRICT_DECODER", Counting())
    monkeypatch.setattr(geometry, "_PIECE", 40)
    outcome(load_geometry, text)
    assert sum(whole) <= 2
    if name == "sound" or name == "unknown-input" or name.startswith(tuple(EDGE_FAULTS)):
        assert sum(whole) == (name != "sound")
        assert len(whole) >= 3  # the cut-out file and at least one piece were decoded first


@pytest.fixture
def index_builds(monkeypatch) -> list[Geometry]:
    """The geometries whose ``_label_index`` property builds an index, in call order."""
    built: list[Geometry] = []
    build = Geometry.__dict__["_label_index"].func

    def counted(geom: Geometry) -> dict[str, int]:
        built.append(geom)
        return build(geom)

    prop = cached_property(counted)
    prop.__set_name__(Geometry, "_label_index")
    monkeypatch.setattr(Geometry, "_label_index", prop)
    return built


def test_loaded_geometry_keeps_the_loaders_index(index_builds):
    geom, _ = generate_extremal(ExtremalPartition((3, 4, 5)))
    loaded = load_geometry(serialize_geometry(geom))
    assert vars(loaded)["_label_index"] == {label: v for v, label in enumerate(loaded.labels)}
    assert [loaded.id_of(label) for label in loaded.labels] == list(range(loaded.vertex_count))
    flow = find_causal_flow(loaded).flow
    assert load_flow(loaded, dump_flow(loaded, flow))[0] == flow
    assert index_builds == []


@pytest.mark.parametrize("asks", ["id_of", "load_flow"])
@pytest.mark.parametrize("make", ["generate_extremal", "Geometry"])
def test_constructed_geometry_indexes_labels_on_first_use(index_builds, make, asks):
    if make == "generate_extremal":
        geom, _ = generate_extremal(ExtremalPartition((3, 4, 5)))
    else:
        geom = Geometry(Graph.from_edges(3, [(0, 1), (1, 2)]), frozenset({0}), frozenset({2}), ["x", "y", "z"])
    assert "_label_index" not in vars(geom)
    flow = find_causal_flow(geom).flow
    text = dump_flow(geom, flow)
    assert index_builds == []
    if asks == "id_of":
        assert [geom.id_of(label) for label in geom.labels] == list(range(geom.vertex_count))
    else:
        assert load_flow(geom, text)[0] == flow
    assert geom.id_of(geom.labels[-1]) == geom.vertex_count - 1
    assert len(index_builds) == 1 and index_builds[0] is geom


def test_constructor_checks_label_count():
    with pytest.raises(GeometryError, match="^label count does not match vertex count$"):
        Geometry(Graph.from_edges(2, [(0, 1)]), frozenset(), frozenset(), ("a",))
