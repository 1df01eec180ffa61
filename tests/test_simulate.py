"""Post-selected statevector simulation and the isometry defect."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from flowscope import (
    ExtremalPartition,
    Geometry,
    Graph,
    LinearMap,
    MeasurementPattern,
    SimulationBoundError,
    ZeroMapError,
    draw_angles,
    find_causal_flow,
    generate_extremal,
    isometry_defect,
    measurement_order,
    simulate_postselected,
)

from .conftest import path_geometry
from .dense_reference import dense_defect, dense_simulate
from .test_acceptance import iter_partitions
from .test_flow import forced_six_cycle_flow, random_geometry


def proportional(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    pivot = a[idx]
    if abs(pivot) < tol:
        return bool(np.max(np.abs(b)) < tol)
    scale = b[idx] / pivot
    return bool(np.max(np.abs(b - scale * a)) < tol)


class TestMeasurementOrder:
    def test_path(self):
        res = find_causal_flow(path_geometry(3))
        assert measurement_order(res.flow) == [0, 1]

    def test_everything_output_is_empty(self):
        g = Graph.from_edges(2, [(0, 1)])
        geom = Geometry(g, frozenset({0, 1}), frozenset({0, 1}))
        res = find_causal_flow(geom)
        assert measurement_order(res.flow) == []

    def test_two_two_instance_respects_digraph(self):
        geom, cover = generate_extremal(ExtremalPartition((2, 2)))
        res = find_causal_flow(geom)
        order = measurement_order(res.flow)
        assert order == [geom.id_of("v1_1"), geom.id_of("v2_1")]

    def test_depends_only_on_flow(self):
        res = find_causal_flow(path_geometry(4))
        assert measurement_order(res.flow) == measurement_order(res.flow)


class TestSimulatePostselected:
    def test_single_edge_is_basis_change(self):
        geom = Geometry(Graph.from_edges(2, [(0, 1)]), frozenset({0}), frozenset({1}))
        res = find_causal_flow(geom)
        v = simulate_postselected(MeasurementPattern(geom, res.flow, {0: 0.0}))
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert proportional(v.matrix, expected)

    def test_identity_when_nothing_is_measured(self):
        g = Graph.from_edges(2)
        geom = Geometry(g, frozenset({0, 1}), frozenset({0, 1}))
        res = find_causal_flow(geom)
        v = simulate_postselected(MeasurementPattern(geom, res.flow, {}))
        assert proportional(v.matrix, np.eye(4))

    def test_empty_geometry(self):
        geom = Geometry(Graph.from_edges(0), frozenset(), frozenset())
        res = find_causal_flow(geom)
        v = simulate_postselected(MeasurementPattern(geom, res.flow, {}))
        assert v.matrix.shape == (1, 1)

    def test_qubit_bound(self):
        geom = path_geometry(13)
        flow = find_causal_flow(geom).flow
        pattern = MeasurementPattern(geom, flow, {v: 0.0 for v in geom.measured})
        with pytest.raises(SimulationBoundError):
            simulate_postselected(pattern)

    def test_angle_domain_validated(self):
        geom = path_geometry(3)
        flow = find_causal_flow(geom).flow
        with pytest.raises(ValueError, match="measured"):
            MeasurementPattern(geom, flow, {0: 0.0})

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        geom = path_geometry(3)
        flow = find_causal_flow(geom).flow
        with pytest.raises(ValueError, match="not finite"):
            MeasurementPattern(geom, flow, {0: theta, 1: 0.2})

    def test_schedule_must_cover_measured(self):
        geom = path_geometry(3)
        flow = find_causal_flow(geom).flow
        pattern = MeasurementPattern(geom, flow, {0: 0.1, 1: 0.2})
        with pytest.raises(ValueError, match="schedule"):
            simulate_postselected(pattern, schedule=[0])

    @pytest.mark.parametrize("parts", [(2, 2), (1, 3), (2, 2, 2), (4,)])
    def test_random_angles_give_isometries(self, parts):
        geom, _ = generate_extremal(ExtremalPartition(parts))
        res = find_causal_flow(geom)
        rng = np.random.default_rng(99)
        for _ in range(5):
            pattern = MeasurementPattern(geom, res.flow, draw_angles(geom.measured, rng))
            v = simulate_postselected(pattern)
            assert np.any(v.matrix)
            assert isometry_defect(v) < 1e-9

    def test_schedule_order_does_not_change_the_map(self):
        geom, _ = generate_extremal(ExtremalPartition((2, 2)))
        res = find_causal_flow(geom)
        rng = np.random.default_rng(3)
        angles = draw_angles(geom.measured, rng)
        pattern = MeasurementPattern(geom, res.flow, angles)
        base = simulate_postselected(pattern)
        swapped = simulate_postselected(pattern, schedule=list(reversed(measurement_order(res.flow))))
        assert proportional(base.matrix, swapped.matrix)

    def test_six_cycle_forced_flow_breaks_isometry(self, six_cycle):
        # regression: without a causal flow the surviving branch is not an
        # isometry, no matter what order the measurements happen in
        fake = forced_six_cycle_flow()
        rng = np.random.default_rng(7)
        worst = 0.0
        saw_zero = False
        for _ in range(20):
            angles = draw_angles(six_cycle.measured, rng)
            pattern = MeasurementPattern(six_cycle, fake, angles)
            v = simulate_postselected(pattern, schedule=[0, 1, 2])
            try:
                worst = max(worst, isometry_defect(v))
            except ZeroMapError:
                saw_zero = True
        assert saw_zero or worst > 1e-3


class TestIsometryDefect:
    def test_scaled_isometry_is_zero(self):
        m = 0.3 * np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        v = LinearMap(m.astype(complex), (0,), (1,))
        assert isometry_defect(v) < 1e-12

    def test_rank_deficient_map(self):
        v = LinearMap(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), (0,), (1,))
        assert isometry_defect(v) == pytest.approx(1.0)

    def test_zero_map_raises(self):
        v = LinearMap(np.zeros((2, 2), dtype=complex), (0,), (1,))
        with pytest.raises(ZeroMapError):
            isometry_defect(v)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            LinearMap(np.zeros((3, 2), dtype=complex), (0,), (1,))

    def test_passthrough_must_be_input_and_output(self):
        with pytest.raises(ValueError, match="pass-through"):
            LinearMap(np.ones((1, 2), dtype=complex), (0,), (1,), (1,))

    def test_passthrough_map_is_block_diagonal(self):
        # output qubits (2, 5), input qubits (5, 7), qubit 5 passes through
        amps = np.arange(1, 9, dtype=complex).reshape(2, 4)
        v = LinearMap(amps, (2, 5), (5, 7), (5,))
        expected = np.zeros((4, 4), dtype=complex)
        for out2, in5, in7 in np.ndindex(2, 2, 2):
            expected[2 * out2 + in5, 2 * in5 + in7] = amps[out2, 2 * in5 + in7]
        assert np.array_equal(v.matrix, expected)
        assert isometry_defect(v) == pytest.approx(dense_defect(expected), abs=1e-12)


def assert_matches_dense_reference(geom, flow, rng, schedule=None) -> None:
    pattern = MeasurementPattern(geom, flow, draw_angles(geom.measured, rng))
    vmap = simulate_postselected(pattern, schedule=schedule)
    matrix, outputs, inputs = dense_simulate(pattern, schedule)
    assert (vmap.output_qubits, vmap.input_qubits) == (outputs, inputs)
    assert vmap.matrix.shape == matrix.shape
    assert np.max(np.abs(vmap.matrix - matrix)) < 1e-12
    try:
        expected = dense_defect(matrix)
    except ZeroMapError:
        with pytest.raises(ZeroMapError):
            isometry_defect(vmap)
    else:
        assert isometry_defect(vmap) == pytest.approx(expected, abs=1e-12)


class TestAgainstDenseReference:
    def test_every_extremal_partition_up_to_8(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            for parts in iter_partitions(n):
                geom, _ = generate_extremal(ExtremalPartition(parts))
                assert_matches_dense_reference(geom, find_causal_flow(geom).flow, rng)

    def test_seeded_random_geometries_with_flow(self):
        rng = random.Random(2025)
        angle_rng = np.random.default_rng(12)
        checked = 0
        for i in range(300):
            geom = random_geometry(rng, 2 + i % 7)
            res = find_causal_flow(geom)
            if res.status != "found":
                continue
            checked += 1
            assert_matches_dense_reference(geom, res.flow, angle_rng)
        assert checked >= 100

    def test_forced_six_cycle_flow_under_every_schedule(self, six_cycle):
        rng = np.random.default_rng(13)
        for schedule in permutations([0, 1, 2]):
            assert_matches_dense_reference(six_cycle, forced_six_cycle_flow(), rng, list(schedule))


def test_all_ones_n12_stays_compact():
    # Twelve pass-through inputs, so 4096 input columns: the dense map
    # would be 4096 x 4096 complex (256 MB); the compact one holds 4096
    # amplitudes.
    geom, _ = generate_extremal(ExtremalPartition((1,) * 12))
    pattern = MeasurementPattern(geom, find_causal_flow(geom).flow, {})
    tracemalloc.start()
    try:
        vmap = simulate_postselected(pattern)
        defect = isometry_defect(vmap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "matrix" not in vars(vmap)
    assert defect < 1e-9
    assert peak < 32 * 2**20


def test_draw_angles_deterministic_given_seed():
    a = draw_angles([3, 1, 2], np.random.default_rng(5))
    b = draw_angles([1, 2, 3], np.random.default_rng(5))
    assert a == b
    assert all(0.0 <= theta < 2.0 * math.pi for theta in a.values())
