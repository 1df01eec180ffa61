"""The names the package exports, the test-only ones it no longer does, and its value classes."""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util

import numpy as np
import pytest

import flowscope
from flowscope import (
    CausalFlow,
    ExtremalPartition,
    FlowCheck,
    FlowSearchResult,
    Geometry,
    Graph,
    LinearMap,
    MeasurementPattern,
    PathCover,
    SuccessorFunction,
)

PUBLIC_NAMES = [
    "CausalFlow",
    "ExtremalPartition",
    "FlowCheck",
    "FlowDomainError",
    "FlowFormatError",
    "FlowSearchResult",
    "Geometry",
    "GeometryError",
    "Graph",
    "LinearMap",
    "MeasurementPattern",
    "OracleBoundError",
    "PathCover",
    "SimulationBoundError",
    "SuccessorFunction",
    "ZeroMapError",
    "brute_force_flow",
    "draw_angles",
    "dump_flow",
    "find_causal_flow",
    "flow_from_cover",
    "gamma",
    "generate_extremal",
    "isometry_defect",
    "load_flow",
    "load_geometry",
    "measurement_order",
    "serialize_geometry",
    "simulate_postselected",
    "verify_flow",
    "verify_obstruction",
]

# The materialised digraph and its helpers live in tests/digraph_reference.py,
# the extremal construction's structural checks in tests/extremal_reference.py.
REMOVED_NAMES = [
    "AcyclicityResult",
    "ArcKind",
    "Digraph",
    "PathCoverError",
    "acyclic_order",
    "build_influencing_digraph",
    "classify_arcs",
    "count_connecting_edges",
    "lambda_labels",
    "lex_acyclicity_certificate",
    "observation_checks",
]


def test_public_surface():
    assert flowscope.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(flowscope, name)] == []
    modules = ("flowscope", "flowscope.extremal", "flowscope.flow", "flowscope.geometry", "flowscope.simulate")
    for module_name in modules:
        module = importlib.import_module(module_name)
        assert [name for name in REMOVED_NAMES if hasattr(module, name)] == [], module_name


def test_matching_module_is_gone():
    # The no-flow reason completes the greedy's own matching inside flowscope.flow.
    assert importlib.util.find_spec("flowscope.matching") is None


EDGE = Graph(2, ((1,), (0,)), 1)
GEOM = Geometry(EDGE, frozenset({0}), frozenset({1}), ("a", "b"))
FLOW = CausalFlow(SuccessorFunction((1, -1)), (0, 1))

# Each public value class with a value for every field, in field order, the
# defaults of its optional fields, and one field set to another value.
VALUE_CLASSES = [
    (Graph, {"vertex_count": 2, "adjacency": ((1,), (0,)), "edge_count": 1}, {}, {"edge_count": 0}),
    (
        Geometry,
        {"graph": EDGE, "inputs": frozenset({0}), "outputs": frozenset({1}), "labels": ("a", "b")},
        {"labels": None},
        {"inputs": frozenset()},
    ),
    (SuccessorFunction, {"image": (1, -1)}, {}, {"image": (-1, -1)}),
    (PathCover, {"paths": ((0, 1),)}, {}, {"paths": ((1, 0),)}),
    (CausalFlow, {"successor": FLOW.successor, "order_rank": (0, 1)}, {}, {"order_rank": (0, 2)}),
    (
        FlowCheck,
        {"ok": False, "condition": "adjacency", "witness": (0, 1)},
        {"condition": None, "witness": None},
        {"witness": (1, 0)},
    ),
    (
        FlowSearchResult,
        {
            "status": "no-flow",
            "flow": FLOW,
            "cover": PathCover(((0, 1),)),
            "reason": "cyclic-D",
            "cycle": (0, 1),
            "obstruction": (0,),
        },
        {"flow": None, "cover": None, "reason": None, "cycle": None, "obstruction": None},
        {"obstruction": (1,)},
    ),
    (ExtremalPartition, {"parts": (1, 2)}, {}, {"parts": (2, 2)}),
    (MeasurementPattern, {"geometry": GEOM, "flow": FLOW, "angles": {0: 0.5}}, {}, {"angles": {0: 0.25}}),
    (
        LinearMap,
        {"amplitudes": np.eye(2), "output_qubits": (1,), "input_qubits": (0,)},
        {},
        {"amplitudes": np.zeros((2, 2))},
    ),
]
IDENTITY_EQUAL = (MeasurementPattern, LinearMap)


@pytest.mark.parametrize(
    "cls, fields, defaults, change", VALUE_CLASSES, ids=[row[0].__name__ for row in VALUE_CLASSES]
)
def test_value_class_behaves_as_a_frozen_dataclass(cls, fields, defaults, change):
    obj = cls(*fields.values())
    for name, value in fields.items():
        assert getattr(obj, name) is value or getattr(obj, name) == value, name
    keyword = cls(**fields)
    short = cls(*[value for name, value in fields.items() if name not in defaults])
    assert {name: getattr(short, name) for name in defaults} == defaults

    subclass = type("Other", (cls,), {})(*fields.values())
    assert obj != subclass and subclass != obj
    changed = cls(**{**fields, **change})
    if cls in IDENTITY_EQUAL:
        assert obj == obj and obj != keyword and len({obj, keyword}) == 2
    else:
        assert obj == keyword and hash(obj) == hash(keyword)
        assert obj != changed

    assert repr(obj) == f"{cls.__name__}({', '.join(f'{name}={getattr(obj, name)!r}' for name in fields)})"

    name = next(iter(fields))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    assert getattr(obj, name) is fields[name] or getattr(obj, name) == fields[name]
