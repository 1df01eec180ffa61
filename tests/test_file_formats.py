"""Geometry and flow files: byte identity with the json.dumps reference, and the error contract."""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowscope import (
    CausalFlow,
    ExtremalPartition,
    FlowDomainError,
    FlowFormatError,
    Geometry,
    GeometryError,
    Graph,
    PathCover,
    SuccessorFunction,
    dump_flow,
    find_causal_flow,
    flow_from_cover,
    generate_extremal,
    load_flow,
    load_geometry,
    serialize_geometry,
)
from flowscope.flow import _splice_orbits
from flowscope.geometry import EdgeError

from .conftest import geometries, successor_function
from .json_reference import reference_dump_flow, reference_serialize_geometry

# Labels that exercise every escape json.dumps makes: quotes, backslashes,
# control characters, non-ASCII (BMP and astral) and plain text.
LABEL_CHARS = st.one_of(
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "λ", "€", "\U0001f600", "/"]),
    st.characters(),
)
LABELS = st.text(LABEL_CHARS, min_size=1, max_size=6)


@st.composite
def labelled_geometries(draw) -> Geometry:
    geom = draw(geometries())
    n = geom.vertex_count
    labels = draw(st.one_of(st.none(), st.lists(LABELS, min_size=n, max_size=n, unique=True)))
    return Geometry(geom.graph, geom.inputs, geom.outputs, labels)


def relabelled(geom: Geometry, loaded: Geometry, ids: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(loaded.id_of(geom.label_of(v)) for v in ids)


class TestByteIdentity:
    @given(labelled_geometries())
    @settings(max_examples=300, deadline=None)
    def test_geometry_matches_reference(self, geom):
        text = serialize_geometry(geom)
        assert text == reference_serialize_geometry(geom)
        loaded = load_geometry(text)
        assert serialize_geometry(loaded) == text

    @given(labelled_geometries(), st.lists(st.integers(0, 10**6), min_size=6, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_flow_matches_reference(self, geom, spare_ranks):
        res = find_causal_flow(geom)
        if res.status != "found":
            return
        flows = [res.flow, CausalFlow(res.flow.successor, tuple(spare_ranks[: geom.vertex_count]))]
        for flow in flows:
            text = dump_flow(geom, flow, res.cover)
            assert text == reference_dump_flow(geom, flow, res.cover)
            assert dump_flow(geom, flow) == reference_dump_flow(geom, flow)
            reread, cover = load_flow(geom, text)
            assert reread == flow
            assert dump_flow(geom, reread, cover) == text

    def test_empty_geometry(self):
        geom = Geometry(Graph.from_edges(0), frozenset(), frozenset())
        assert serialize_geometry(geom) == reference_serialize_geometry(geom)
        flow = find_causal_flow(geom).flow
        assert dump_flow(geom, flow) == reference_dump_flow(geom, flow)

    def test_extremal_k5_at_2000(self):
        geom, cover = generate_extremal(ExtremalPartition((200, 300, 400, 500, 600)))
        text = serialize_geometry(geom)
        assert text == reference_serialize_geometry(geom)
        loaded = load_geometry(text)
        assert serialize_geometry(loaded) == text
        paths = tuple(relabelled(geom, loaded, path) for path in cover.paths)
        res = flow_from_cover(loaded, PathCover(paths))
        assert res.status == "found"
        flow_text = dump_flow(loaded, res.flow, res.cover)
        assert flow_text == reference_dump_flow(loaded, res.flow, res.cover)
        assert dump_flow(loaded, res.flow) == reference_dump_flow(loaded, res.flow)
        reread, reread_cover = load_flow(loaded, flow_text)
        assert reread == res.flow
        assert reread_cover == res.cover

    def test_relabelled_grid_cover_round_trips_in_row_order(self):
        # Loading numbers vertices in label order, where r10c0 comes before
        # r2c0, so the rows of the cover are not the orbits of f by start.
        rows, cols = 12, 4
        edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
        edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
        geom = Geometry(
            Graph.from_edges(rows * cols, edges),
            frozenset(i * cols for i in range(rows)),
            frozenset(i * cols + cols - 1 for i in range(rows)),
            tuple(f"r{i}c{j}" for i in range(rows) for j in range(cols)),
        )
        loaded = load_geometry(serialize_geometry(geom))
        cover = PathCover(tuple(tuple(loaded.id_of(f"r{i}c{j}") for j in range(cols)) for i in range(rows)))
        res = flow_from_cover(loaded, cover)
        assert cover.paths != _splice_orbits(res.flow.successor.image)
        reread, reread_cover = load_flow(loaded, dump_flow(loaded, res.flow, cover))
        assert reread == res.flow
        assert reread_cover == cover

    @pytest.mark.parametrize(
        "image, paths, error, message",
        [
            ((3, 4, -2, -1, -1, -1), ((0, 3), (1, 4), (2, 5)), FlowDomainError, "f('a2') = -2 is not a vertex"),
            (
                (3, 4, 5, -1, -1, -1, -1),
                ((0, 3), (1, 4), (2, 5)),
                FlowDomainError,
                "image of f has 7 entries for 6 vertices",
            ),
            ((3, 4, 5, -1, -1, -1), ((0, 3), (1, 4), (2, 6)), GeometryError, "unknown vertex 6"),
            ((7, -1, -1, -1, -1, -1), None, FlowDomainError, "f('a0') = 7 is not a vertex"),
        ],
        ids=["pairs0-paths0", "pairs1-paths1", "pairs2-paths2", "pairs3-None"],
    )
    def test_unknown_vertex_in_flow_rejected(self, six_cycle, image, paths, error, message):
        # f's shape is checked before the cover is read.
        flow = CausalFlow(SuccessorFunction(image), (0,) * 6)
        with pytest.raises(error) as exc:
            dump_flow(six_cycle, flow, paths and PathCover(paths))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 2), (1, 2)],
            [(0, 1), (1, 0)],
            [(0, 1), (1, 2), (2, 1)],
            [(0, 2), (1, 2), (2, 5), (3, 4), (4, 3)],
        ],
        ids=["merge", "two-cycle", "merge-into-cycle", "merge-beside-cycle"],
    )
    def test_unsplicable_flow_without_cover_rejected(self, six_cycle, pairs):
        # With no inputs, and f's domain as the measured set, each f has the
        # shape of a flow, so dump_flow gets as far as laying out its orbits.
        domain = frozenset(x for x, _ in pairs)
        geom = Geometry(six_cycle.graph, frozenset(), frozenset(range(6)) - domain, six_cycle.labels)
        flow = CausalFlow(successor_function(6, pairs), (0,) * 6)
        with pytest.raises(ValueError, match="^f is not injective or has a cyclic orbit; cannot lay out paths$"):
            dump_flow(geom, flow)


def traced_peak(call):
    """Return ``call()`` and the most memory it held at once above its start, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestTransientMemory:
    def test_geometry_file_round_trip_peaks(self):
        geom, _ = generate_extremal(ExtremalPartition((400,) * 5))
        text, serialize_peak = traced_peak(lambda: serialize_geometry(geom))
        loaded, load_peak = traced_peak(lambda: load_geometry(text))
        assert serialize_geometry(loaded) == text
        # Written compact, the same geometry's edge list is decoded whole.
        compact = json.dumps(json.loads(text))
        whole, whole_peak = traced_peak(lambda: load_geometry(compact))
        assert whole == loaded
        # The finished text plus shared per-label pieces, the built graph
        # plus one piece of the edge list, and the whole parsed file plus
        # the built graph, as multiples of the indented file's length.
        assert serialize_peak <= 4.5 * len(text), serialize_peak / len(text)
        assert load_peak <= 2.5 * len(text), load_peak / len(text)
        assert whole_peak <= 5.5 * len(text), whole_peak / len(text)


def geometry_text(vertices, edges, inputs=(), outputs=()):
    return json.dumps(
        {"vertices": vertices, "edges": edges, "inputs": list(inputs), "outputs": list(outputs)}
    )


def path3_text() -> str:
    return geometry_text(["a", "b", "c"], [["a", "b"], ["b", "c"]], ["a"], ["c"])


class TestGeometryErrors:
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([["a", "b"], ["b", "c"], ["a", "a"]], r"^edges\[2\]: self-loop at 'a'$"),
            ([["a", "b"], ["b", "c"], ["c", "b"]], r"^edges\[2\]: duplicate edge 'c' -- 'b'$"),
            ([["a", "b"], ["a", "b"], ["c", "c"]], r"^edges\[1\]: duplicate edge 'a' -- 'b'$"),
            ([["a", "b"], ["c", "c"], ["a", "b"]], r"^edges\[1\]: self-loop at 'c'$"),
            ([["a", "b"], ["c", "c"]], r"^edges\[1\]: self-loop at 'c'$"),
            ([["a", "b"], ["c", "c"], ["b", "a"]], r"^edges\[1\]: self-loop at 'c'$"),
            ([["a", "b"], ["b", "a"]], r"^edges\[1\]: duplicate edge 'b' -- 'a'$"),
            ([["a", "b"], ["b", "x"]], r"^edges\[1\]: unknown vertex label 'x'$"),
            ([["a", "b"], ["b", 3]], r"^edges\[1\]: unknown vertex label 3$"),
            ([["a", "b"], ["b", ["c"]]], r"^edges\[1\]: unknown vertex label \['c'\]$"),
            ([["a", "b"], "bc"], r"^edges\[1\]: expected a 2-element list of labels$"),
            ([["a", "b"], ["a", "b", "c"]], r"^edges\[1\]: expected a 2-element list of labels$"),
            # Faults met after other pairs were linked and freed are still named from the file as
            # written, shape and labels before duplicates; "ab" would unpack into a new edge.
            ([["b", "c"], ["a", "c"], "ab"], r"^edges\[2\]: expected a 2-element list of labels$"),
            ([["a", "b"], ["b", "c"], ["a"], ["a", "c"]], r"^edges\[2\]: expected a 2-element list of labels$"),
            ([["a", "b"], ["b", "c"], [], ["a", "c"]], r"^edges\[2\]: expected a 2-element list of labels$"),
            ([["a", "b"], [["a"], "b"]], r"^edges\[1\]: unknown vertex label \['a'\]$"),
            ([["a", "b"], ["b", "a"], ["b", "x"]], r"^edges\[2\]: unknown vertex label 'x'$"),
        ],
    )
    def test_edge_errors_name_position_and_labels(self, edges, message):
        with pytest.raises(GeometryError, match=message):
            load_geometry(geometry_text(["a", "b", "c"], edges))

    @pytest.mark.parametrize(
        "vertices, inputs, outputs, message",
        [
            (["a", "b"], ["a", "b", "a"], [], r"^inputs\[2\]: duplicate label 'a'$"),
            (["a", "b"], [], ["b", "b"], r"^outputs\[1\]: duplicate label 'b'$"),
            (["a", "b"], ["a", "z"], [], r"^inputs\[1\]: unknown vertex label 'z'$"),
            (["a", "b"], [], [None], r"^outputs\[0\]: unknown vertex label None$"),
            (["a", "b", "a"], [], [], r"^vertices\[2\]: duplicate label 'a'$"),
            (["a", ""], [], [], r"^vertices\[1\]: labels must be non-empty strings$"),
            (["a", 7], [], [], r"^vertices\[1\]: labels must be non-empty strings$"),
        ],
    )
    def test_label_errors_name_position(self, vertices, inputs, outputs, message):
        with pytest.raises(GeometryError, match=message):
            load_geometry(geometry_text(vertices, [], inputs, outputs))

    @pytest.mark.parametrize(
        "edges, message, position, fault",
        [
            ([(0, 1), (1, 1)], r"^self-loop at vertex 1$", 1, "self-loop"),
            ([(0, 1), (2, 1), (1, 2)], r"^duplicate edge \(1, 2\)$", 2, "duplicate"),
            ([(0, 1), (1, 0)], r"^duplicate edge \(0, 1\)$", 1, "duplicate"),
            ([(0, 1), (1, 3)], r"^edge \(1, 3\) references an unknown vertex$", 1, "unknown-vertex"),
            ([(0, 1), (-1, 2)], r"^edge \(-1, 2\) references an unknown vertex$", 1, "unknown-vertex"),
            ([(0, 2), (-3, -1)], r"^edge \(-3, -1\) references an unknown vertex$", 1, "unknown-vertex"),
            ([(2, 2), (2, 2)], r"^self-loop at vertex 2$", 0, "self-loop"),
            ([(0, 1), (2, 2)], r"^self-loop at vertex 2$", 1, "self-loop"),
            ([(0, 1), (2, 2), (1, 0)], r"^self-loop at vertex 2$", 1, "self-loop"),
            ([(0, 1), (1, -1)], r"^edge \(1, -1\) references an unknown vertex$", 1, "unknown-vertex"),
            ([(1, 2), (0, -3)], r"^edge \(0, -3\) references an unknown vertex$", 1, "unknown-vertex"),
            ([(0, 1), (2, -1)], r"^edge \(2, -1\) references an unknown vertex$", 1, "unknown-vertex"),
            ([(0, 1), (True, 2)], r"^edge \(True, 2\) references an unknown vertex$", 1, "unknown-vertex"),
            ([(1, 1), (0, 7)], r"^self-loop at vertex 1$", 0, "self-loop"),
        ],
    )
    def test_from_edges_is_the_one_check(self, edges, message, position, fault):
        with pytest.raises(EdgeError, match=message) as info:
            Graph.from_edges(3, iter(edges))
        assert (info.value.position, info.value.fault) == (position, fault)

    def test_duplicate_keys_rejected(self):
        text = '{"vertices": ["a"], "edges": [], "inputs": [], "outputs": [], "inputs": ["a"]}'
        with pytest.raises(GeometryError, match="duplicate key 'inputs'"):
            load_geometry(text)

    def test_deep_nesting_rejected(self):
        text = '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(GeometryError, match="^malformed geometry file: nested too deeply$"):
            load_geometry(text)

    def test_byte_order_mark_rejected(self):
        with pytest.raises(GeometryError, match=r"^malformed geometry file: Unexpected UTF-8 BOM \(decode"):
            load_geometry("\ufeff" + path3_text())


class TestFlowErrors:
    @pytest.fixture
    def path3(self):
        return load_geometry(path3_text())

    @pytest.mark.parametrize(
        "successor, ranks, label",
        [
            ('{"a": "b", "b": "c", "a": "c"}', '{"a": 0, "b": 1, "c": 2}', "a"),
            ('{"a": "b", "b": "c"}', '{"a": 0, "b": 1, "c": 2, "b": 5}', "b"),
        ],
        ids=["successor", "ranks"],
    )
    def test_duplicate_keys_rejected(self, path3, successor, ranks, label):
        text = f'{{"successor": {successor}, "ranks": {ranks}, "paths": [["a", "b", "c"]]}}'
        with pytest.raises(FlowFormatError, match=f"^duplicate key '{label}'$"):
            load_flow(path3, text)

    @pytest.mark.parametrize(
        "successor, ranks, paths, message",
        [
            ({"a": "x"}, {"a": 0, "b": 1, "c": 2}, [], r"^successor: unknown vertex label 'x'$"),
            ({"a": 1}, {"a": 0, "b": 1, "c": 2}, [], r"^successor: expected a vertex label, got 1$"),
            ({}, {"a": 0, "b": True, "c": 2}, [], r"^ranks\['b'\]: expected a non-negative integer$"),
            ({}, {"a": 0, "b": -1, "c": 2}, [], r"^ranks\['b'\]: expected a non-negative integer$"),
            ({}, {"a": 0, "q": 1, "c": 2}, [], r"^ranks: unknown vertex label 'q'$"),
            ({}, {"a": 0, "c": 2}, [], r"^missing rank for vertex 'b'$"),
            ({}, {"a": 0, "b": 1, "c": 2}, [["a"], "bc"], r"^paths\[1\]: expected a list of labels$"),
            ({}, {"a": 0, "b": 1, "c": 2}, [["a"], ["b", "z"]], r"^paths\[1\]: unknown vertex label 'z'$"),
        ],
    )
    def test_errors_name_the_item(self, path3, successor, ranks, paths, message):
        text = json.dumps({"successor": successor, "ranks": ranks, "paths": paths})
        with pytest.raises(FlowFormatError, match=message):
            load_flow(path3, text)

    @pytest.mark.parametrize(
        "paths, message",
        [
            ([["c", "a"]], r"^paths\[0\]: f\('c'\) is not 'a'$"),
            ([["a"], ["b", "c"]], r"^paths\[0\]: ends at 'a', where f is defined$"),
            ([], r"^paths: vertex 'a' is on no path$"),
            ([["a", "b", "c"], ["a", "b", "c"]], r"^paths\[1\]: vertex 'a' appears twice$"),
            ([["a", "b", "c"], []], r"^paths\[1\]: empty path$"),
        ],
        ids=["out-of-order", "split-orbit", "no-paths", "repeated-path", "empty-path"],
    )
    def test_paths_must_be_the_orbits(self, path3, paths, message):
        text = json.dumps({**json.loads(path3_flow_text()), "paths": paths})
        with pytest.raises(FlowFormatError, match=message):
            load_flow(path3, text)

    def test_deep_nesting_rejected(self, path3):
        text = '{"paths": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(FlowFormatError, match="^malformed flow file: nested too deeply$"):
            load_flow(path3, text)


def path3_flow_text(successor_target: str = "b") -> str:
    successor = {"a": successor_target, "b": "c"}
    return json.dumps({"successor": successor, "ranks": {"a": 0, "b": 1, "c": 2}, "paths": [["a", "b", "c"]]})


# Every entry point that pauses the collector, on success and on each
# error path it can take.
PAUSING_CALLS = {
    "from_edges": (lambda: Graph.from_edges(3, [(0, 1), (1, 2)]), None),
    "from_edges-self-loop": (lambda: Graph.from_edges(3, [(0, 1), (1, 1)]), EdgeError),
    "from_edges-duplicate": (lambda: Graph.from_edges(3, [(0, 1), (1, 0)]), EdgeError),
    "load_geometry": (lambda: load_geometry(path3_text()), None),
    "load_geometry-malformed": (lambda: load_geometry('{"vertices": ['), GeometryError),
    "load_geometry-duplicate-key": (
        lambda: load_geometry('{"vertices": [], "edges": [], "inputs": [], "outputs": [], "edges": []}'),
        GeometryError,
    ),
    "load_geometry-self-loop": (lambda: load_geometry(geometry_text(["a", "b"], [["a", "a"]])), GeometryError),
    "load_geometry-duplicate-edge": (
        lambda: load_geometry(geometry_text(["a", "b"], [["a", "b"], ["b", "a"]])),
        GeometryError,
    ),
    "load_flow": (lambda: load_flow(load_geometry(path3_text()), path3_flow_text()), None),
    "load_flow-malformed": (lambda: load_flow(load_geometry(path3_text()), "{"), FlowFormatError),
    "load_flow-bad-label": (lambda: load_flow(load_geometry(path3_text()), path3_flow_text("z")), FlowFormatError),
    "generate_extremal": (lambda: generate_extremal(ExtremalPartition((2, 3))), None),
    "flow_from_cover": (lambda: flow_from_cover(load_geometry(path3_text()), PathCover(((0, 1, 2),))), None),
}


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("name", sorted(PAUSING_CALLS))
    def test_state_restored(self, restore_gc, name, enabled):
        call, error = PAUSING_CALLS[name]
        gc.enable() if enabled else gc.disable()
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert gc.isenabled() is enabled

    def test_no_collection_inside_bulk_loads(self, restore_gc):
        geom, cover = generate_extremal(ExtremalPartition((200, 300, 400, 500, 600)))
        text = serialize_geometry(geom)
        flow_text = dump_flow(geom, flow_from_cover(geom, cover).flow, cover)
        watched = {"load_geometry", "load_flow"}
        starts: list[tuple[int, str | None]] = []

        def probe(phase: str, info: dict) -> None:
            if phase != "start":
                return
            frame = sys._getframe(1)
            while frame is not None:
                name = frame.f_code.co_name
                if name in watched and frame.f_globals.get("__name__", "").startswith("flowscope."):
                    break
                frame = frame.f_back
            starts.append((info["generation"], None if frame is None else name))

        def starts_during(call):
            starts.clear()
            gc.collect()
            gc.callbacks.append(probe)
            try:
                return call()
            finally:
                gc.callbacks.remove(probe)

        # A low first-generation threshold makes any unpaused bulk load
        # start collections.
        thresholds = gc.get_threshold()
        gc.enable()
        gc.set_threshold(100, *thresholds[1:])
        try:
            # None starts while a body runs; a call ends with at most one
            # young-generation pass, the one its next allocation would start.
            loaded = starts_during(lambda: load_geometry(text))
            assert starts in ([], [(0, None)])
            flow, _ = starts_during(lambda: load_flow(loaded, flow_text))
            assert starts in ([], [(0, None)])
        finally:
            gc.set_threshold(*thresholds)
        assert loaded.vertex_count == 2000
        assert len(flow.successor.pairs) == 1995

    def test_call_ends_with_the_young_generation_pass(self, restore_gc):
        # The paused body allocates far past a lowered threshold; the wrapper
        # runs the one young-generation pass itself before it returns, so the
        # caller is handed a young count at or below the threshold.
        edges = [(v, v + 1) for v in range(19999)]
        starts: list[tuple[int, str, str]] = []

        def probe(phase: str, info: dict) -> None:
            if phase == "start":
                frame = sys._getframe(1)
                starts.append((info["generation"], frame.f_code.co_name, frame.f_globals.get("__name__", "")))

        thresholds = gc.get_threshold()
        gc.enable()
        gc.collect()
        gc.set_threshold(100, *thresholds[1:])
        gc.callbacks.append(probe)
        try:
            graph = Graph.from_edges(20000, edges)
            young = gc.get_count()[0]
        finally:
            gc.callbacks.remove(probe)
            gc.set_threshold(*thresholds)
        assert young <= 100
        assert starts == [(0, "call", "flowscope.geometry")]
        assert graph.edge_count == 19999

    def test_zero_threshold_starts_no_collection(self, restore_gc):
        geom, _ = generate_extremal(ExtremalPartition((200, 300, 400, 500, 600)))
        text = serialize_geometry(geom)
        starts: list[int] = []
        thresholds = gc.get_threshold()
        gc.enable()
        gc.set_threshold(0, *thresholds[1:])
        gc.callbacks.append(lambda phase, info: starts.append(info["generation"]))
        try:
            load_geometry(text)
        finally:
            gc.callbacks.pop()
            gc.set_threshold(*thresholds)
        assert starts == []
