"""The names the package exports, and the test-only ones it no longer does."""

from __future__ import annotations

import importlib
import importlib.util

import flowscope

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
