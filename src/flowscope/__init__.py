"""Causal flow analysis for measurement geometries.

Decide whether a geometry (graph plus input and output vertex sets)
admits a causal flow, construct the flow and its measurement schedule,
generate the edge-maximal geometries saturating the gamma(n, k) bound,
and check at desk scale that found flows implement isometries for any
choice of measurement angles.
"""

from flowscope.geometry import (
    Geometry,
    GeometryError,
    Graph,
    load_geometry,
    serialize_geometry,
)
from flowscope.flow import (
    CausalFlow,
    FlowCheck,
    FlowDomainError,
    FlowFormatError,
    FlowSearchResult,
    OracleBoundError,
    PathCover,
    SuccessorFunction,
    brute_force_flow,
    dump_flow,
    find_causal_flow,
    flow_from_cover,
    load_flow,
    verify_flow,
    verify_obstruction,
)
from flowscope.extremal import ExtremalPartition, gamma, generate_extremal
from flowscope.simulate import (
    LinearMap,
    MeasurementPattern,
    SimulationBoundError,
    ZeroMapError,
    draw_angles,
    isometry_defect,
    measurement_order,
    simulate_postselected,
)

__version__ = "0.1.0"

__all__ = [
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
