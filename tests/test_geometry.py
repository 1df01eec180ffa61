"""Graph and geometry model, file ingestion, serialization."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given

from flowscope import Geometry, GeometryError, Graph, load_geometry, serialize_geometry
from flowscope.geometry import EdgeError

from .conftest import geometries


def make_text(vertices, edges, inputs, outputs):
    return json.dumps(
        {"vertices": vertices, "edges": edges, "inputs": inputs, "outputs": outputs}
    )


class TestLoadGeometry:
    def test_smallest_nontrivial(self):
        geom = load_geometry(make_text(["a", "b"], [["a", "b"]], ["a"], ["b"]))
        assert geom.vertex_count == 2
        assert geom.graph.edge_count == 1
        assert geom.inputs == {geom.id_of("a")}
        assert geom.outputs == {geom.id_of("b")}

    def test_six_cycle(self, six_cycle):
        assert six_cycle.vertex_count == 6
        assert six_cycle.graph.edge_count == 6

    def test_self_loop_rejected(self):
        with pytest.raises(GeometryError, match="self-loop"):
            load_geometry(make_text(["a"], [["a", "a"]], [], []))

    def test_duplicate_edge_rejected(self):
        text = make_text(["a", "b"], [["a", "b"], ["b", "a"]], [], [])
        with pytest.raises(GeometryError, match=r"edges\[1\].*duplicate"):
            load_geometry(text)

    def test_unknown_label_rejected(self):
        with pytest.raises(GeometryError, match=r"inputs\[0\].*unknown"):
            load_geometry(make_text(["a", "b"], [["a", "b"]], ["c"], []))

    def test_malformed_json(self):
        with pytest.raises(GeometryError, match="malformed"):
            load_geometry("{not json")

    def test_missing_key(self):
        with pytest.raises(GeometryError, match="missing key"):
            load_geometry('{"vertices": [], "edges": [], "inputs": []}')

    def test_unknown_key(self):
        with pytest.raises(GeometryError, match="unknown key"):
            load_geometry(
                '{"vertices": [], "edges": [], "inputs": [], "outputs": [], "extra": 1}'
            )

    def test_duplicate_vertex_label(self):
        with pytest.raises(GeometryError, match="duplicate label"):
            load_geometry(make_text(["a", "a"], [], [], []))

    def test_non_list_edge(self):
        with pytest.raises(GeometryError, match=r"edges\[0\]"):
            load_geometry(make_text(["a"], ["a"], [], []))

    def test_inputs_may_equal_outputs(self):
        geom = load_geometry(make_text(["a", "b"], [], ["a", "b"], ["a", "b"]))
        assert geom.inputs == geom.outputs == {0, 1}
        assert geom.measured == ()

    def test_empty_graph(self):
        geom = load_geometry(make_text([], [], [], []))
        assert geom.vertex_count == 0
        assert geom.measured == ()


class TestGraph:
    def test_neighbors_on_path(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.adjacency[1] == (0, 2)

    def test_neighbors_isolated(self):
        g = Graph.from_edges(1)
        assert g.adjacency[0] == ()

    def test_neighbors_six_cycle(self, six_cycle):
        b0 = six_cycle.id_of("b0")
        assert set(six_cycle.graph.adjacency[b0]) == {
            six_cycle.id_of("a0"),
            six_cycle.id_of("a1"),
        }

    def test_unknown_vertex(self):
        geom = Geometry(Graph.from_edges(2, [(0, 1)]), frozenset(), frozenset())
        for v in (5, -1, True, False):
            with pytest.raises(GeometryError, match=f"^unknown vertex {v!r}$"):
                geom.label_of(v)

    def test_bad_edge_endpoint(self):
        with pytest.raises(GeometryError, match="unknown vertex"):
            Graph.from_edges(2, [(0, 7)])

    @pytest.mark.parametrize("bad", [1.0, "1", True])
    def test_non_int_edge_end(self, bad):
        with pytest.raises(EdgeError, match="references an unknown vertex") as info:
            Graph.from_edges(3, [(0, 2), (0, bad)])
        assert (info.value.position, info.value.fault) == (1, "unknown-vertex")

    @pytest.mark.parametrize("bad", [(0, 1, 2), None, (0,)], ids=["triple", "none", "single"])
    def test_edge_not_a_pair_rejected(self, bad):
        with pytest.raises(GeometryError, match="^every edge must be a pair of vertex ids$"):
            Graph.from_edges(3, [(0, 1), bad])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GeometryError, match="^vertex count must be non-negative$"):
            Graph.from_edges(-1)

    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_non_int_vertex_count_rejected(self, bad):
        with pytest.raises(GeometryError, match=f"^vertex count must be an int, not {bad!r}$"):
            Graph.from_edges(bad, [(0, 1)])

    def test_edges_iteration_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 2), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]


class TestGeometryModel:
    def test_complement_accessors(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        geom = Geometry(g, frozenset({0, 1}), frozenset({3}))
        assert geom.measured == (0, 1, 2)
        assert geom.output_count == 1

    def test_unknown_input_vertex(self):
        g = Graph.from_edges(2, [(0, 1)])
        for v in (9, True, False):
            with pytest.raises(GeometryError, match=f"^inputs reference unknown vertex {v!r}$"):
                Geometry(g, frozenset({v}), frozenset())
        with pytest.raises(GeometryError, match="^outputs reference unknown vertex True$"):
            Geometry(g, frozenset({0}), frozenset({True}))

    @pytest.mark.parametrize(
        "labels, message",
        [
            (("a", "b", "a"), "vertices[2]: duplicate label 'a'"),
            (("a", "", "c"), "vertices[1]: labels must be non-empty strings"),
            (("a", "b", 3), "vertices[2]: labels must be non-empty strings"),
        ],
    )
    def test_bad_labels_named_by_position(self, labels, message):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(GeometryError) as exc:
            Geometry(g, frozenset(), frozenset(), labels)
        assert str(exc.value) == message

    def test_label_of_a_bool_is_unknown(self):
        # A bool is not a vertex id, though True == 1 and indexes like it.
        geom = Geometry(Graph.from_edges(2, [(0, 1)]), frozenset(), frozenset())
        with pytest.raises(GeometryError, match="^unknown vertex True$"):
            geom.label_of(True)
        assert geom.label_of(1) == "1"

    def test_label_of_one_past_the_last_vertex_is_unknown(self):
        geom = Geometry(Graph.from_edges(2, [(0, 1)]), frozenset(), frozenset())
        with pytest.raises(GeometryError, match="^unknown vertex 2$"):
            geom.label_of(2)

    def test_labels_indexed_on_construction(self):
        geom = Geometry(Graph.from_edges(2, [(0, 1)]), frozenset(), frozenset(), ["x", "y"])
        assert geom.labels == ("x", "y")
        assert (geom.id_of("y"), geom.label_of(0)) == (1, "x")

    def test_immutable(self):
        g = Graph.from_edges(2, [(0, 1)])
        geom = Geometry(g, frozenset(), frozenset())
        with pytest.raises(dataclasses.FrozenInstanceError):
            geom.inputs = frozenset({0})


class TestSerialization:
    def test_round_trip_six_cycle(self, six_cycle):
        text = serialize_geometry(six_cycle)
        again = load_geometry(text)
        assert serialize_geometry(again) == text
        assert again.vertex_count == six_cycle.vertex_count
        assert again.graph.edge_count == six_cycle.graph.edge_count

    def test_key_order_and_sorting(self):
        geom = load_geometry(make_text(["z", "y", "x"], [["z", "x"]], ["z"], ["x"]))
        data = json.loads(serialize_geometry(geom))
        assert list(data) == ["vertices", "edges", "inputs", "outputs"]
        assert data["vertices"] == ["x", "y", "z"]
        assert data["edges"] == [["x", "z"]]

    @given(geometries())
    def test_round_trip_structure(self, geom):
        loaded = load_geometry(serialize_geometry(geom))
        assert loaded.vertex_count == geom.vertex_count
        assert loaded.graph.edge_count == geom.graph.edge_count
        relabel = {geom.label_of(v): v for v in range(geom.vertex_count)}
        back = {v: relabel[loaded.label_of(v)] for v in range(loaded.vertex_count)}
        edges = {tuple(sorted((back[u], back[v]))) for u, v in loaded.graph.edges()}
        assert edges == set(geom.graph.edges())
        assert {back[v] for v in loaded.inputs} == set(geom.inputs)
        assert {back[v] for v in loaded.outputs} == set(geom.outputs)

    @given(geometries())
    def test_adjacency_invariants(self, geom):
        g = geom.graph
        pair_count = sum(map(len, g.adjacency))
        assert pair_count == 2 * g.edge_count
        for v, nbrs in enumerate(g.adjacency):
            assert v not in nbrs
            assert list(nbrs) == sorted(set(nbrs))
            for u in nbrs:
                assert v in g.adjacency[u]
