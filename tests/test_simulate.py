"""Post-selected statevector simulation and the isometry defect."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from flowscope import (
    CausalFlow,
    ExtremalPartition,
    FlowDomainError,
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
from flowscope.simulate import _basis_bits

from .conftest import path_geometry, relabel, successor_function
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

    def test_ties_break_by_vertex_id(self):
        succ = successor_function(6, [(2, 5), (0, 3), (1, 4)])
        flow = CausalFlow(succ, (1, 0, 1, 2, 2, 2))
        assert measurement_order(flow) == [1, 0, 2]

    def test_matches_rank_then_id_key(self):
        rng = random.Random(7011)
        checked = 0
        while checked < 300:
            geom = random_geometry(rng, rng.randint(2, 40))
            res = find_causal_flow(geom)
            if res.status != "found":
                continue
            ranks = res.flow.order_rank
            # A found flow is defined on exactly the measured vertices.
            expected = sorted(geom.measured, key=lambda v: (ranks[v], v))
            assert measurement_order(res.flow) == expected
            checked += 1


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

    @pytest.mark.parametrize(
        "angles, message",
        [
            ({1: 0.0}, "missing angle for measured vertex '0'"),
            ({0: 0.0}, "missing angle for measured vertex '1'"),
            ({2: 0.0, 0: 0.0, 1: 0.0}, "angle given for unmeasured vertex '2'"),
            ({0: 0.0, 1: 0.0, 2: 0.0}, "angle given for unmeasured vertex '2'"),
            ({0: 0.0, True: 0.0}, "unknown vertex True"),
            ({0: 0.0, 1.0: 0.0}, "unknown vertex 1.0"),
        ],
    )
    def test_angle_domain_names_first_offender(self, angles, message):
        geom = path_geometry(3)
        flow = find_causal_flow(geom).flow
        with pytest.raises(ValueError, match=f"^{message}$"):
            MeasurementPattern(geom, flow, angles)

    def test_schedule_must_cover_measured(self):
        # The measurement order is f's domain by rank, so f must be defined
        # on exactly the measured vertices, as verify_flow requires.
        geom = path_geometry(3)
        for pairs, message in [
            ([(0, 1)], "f is undefined on measured vertex '1'"),
            ([(0, 1), (1, 2), (2, 1)], "f is defined on output vertex '2'"),
        ]:
            flow = CausalFlow(successor_function(3, pairs), (0, 1, 2))
            pattern = MeasurementPattern(geom, flow, {0: 0.1, 1: 0.2})
            with pytest.raises(FlowDomainError, match=f"^{message}$"):
                simulate_postselected(pattern)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        geom = path_geometry(3)
        flow = find_causal_flow(geom).flow
        with pytest.raises(ValueError, match="not finite"):
            MeasurementPattern(geom, flow, {0: theta, 1: 0.2})

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
        backwards = list(reversed(measurement_order(res.flow)))
        reversed_flow = flow_measuring_in(res.flow, backwards)
        assert measurement_order(reversed_flow) == backwards != measurement_order(res.flow)
        swapped = simulate_postselected(MeasurementPattern(geom, reversed_flow, angles))
        assert proportional(base.matrix, swapped.matrix)

    def test_six_cycle_forced_flow_breaks_isometry(self, six_cycle):
        # regression: without a causal flow the surviving branch is not an
        # isometry, no matter what order the measurements happen in
        fake = forced_six_cycle_flow()
        assert measurement_order(fake) == [0, 1, 2]
        rng = np.random.default_rng(7)
        worst = 0.0
        saw_zero = False
        for _ in range(20):
            angles = draw_angles(six_cycle.measured, rng)
            pattern = MeasurementPattern(six_cycle, fake, angles)
            v = simulate_postselected(pattern)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_entries_rejected(self, bad):
        amps = np.array([[1.0, 0.0], [0.0, bad]], dtype=complex)
        with pytest.raises(ValueError, match="^map contains non-finite entries$"):
            LinearMap(amps, (0,), (1,))

    def test_passthrough_map_is_block_diagonal(self):
        # output qubits (2, 5), input qubits (5, 7), qubit 5 passes through
        amps = np.arange(1, 9, dtype=complex).reshape(2, 4)
        v = LinearMap(amps, (2, 5), (5, 7))
        assert v.passthrough == (5,)
        expected = np.zeros((4, 4), dtype=complex)
        for out2, in5, in7 in np.ndindex(2, 2, 2):
            expected[2 * out2 + in5, 2 * in5 + in7] = amps[out2, 2 * in5 + in7]
        assert np.array_equal(v.matrix, expected)
        assert isometry_defect(v) == pytest.approx(dense_defect(expected), abs=1e-12)


def flow_measuring_in(flow: CausalFlow, order: list[int]) -> CausalFlow:
    """``flow``'s f with ranks that make ``measurement_order`` return ``order``."""
    ranks = [len(order)] * len(flow.order_rank)
    for rank, v in enumerate(order):
        ranks[v] = rank
    return CausalFlow(flow.successor, tuple(ranks))


def assert_matches_dense_reference(geom, flow, rng) -> None:
    pattern = MeasurementPattern(geom, flow, draw_angles(geom.measured, rng))
    vmap = simulate_postselected(pattern)
    matrix, outputs, inputs = dense_simulate(pattern)
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


def input_heavy_geometry(rng: random.Random, n: int) -> Geometry:
    """Random path cover plus chords with every path start an input.

    Path starts are joined pairwise with probability 0.4, so many draws
    have edges between two inputs, and a one-vertex path is an input that
    is also an output, so many have pass-through qubits.
    """
    k = rng.randint(2, n // 2)
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    paths = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    edges = {tuple(sorted(e)) for p in paths for e in zip(p, p[1:])}
    starts = [p[0] for p in paths]
    edges |= {tuple(sorted(e)) for e in combinations(starts, 2) if rng.random() < 0.4}
    density = rng.uniform(0.0, 0.2)
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    return Geometry(Graph.from_edges(n, sorted(edges)), frozenset(starts), frozenset(p[-1] for p in paths))


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

    def test_seeded_random_geometries_with_flow_9_to_12(self):
        # The sizes simulate-sweep draws at.  Inputs sit last in the
        # register, so edges between two inputs are the ones the CZ table
        # holds in its input-by-input corner.
        rng = random.Random(2026)
        angle_rng = np.random.default_rng(2026)
        sizes, passthrough, input_edges = set(), 0, 0
        for i in range(160):
            geom = input_heavy_geometry(rng, 9 + i % 4)
            res = find_causal_flow(geom)
            if res.status != "found":
                continue
            sizes.add(geom.vertex_count)
            passthrough += bool(geom.inputs & geom.outputs)
            input_edges += any(geom.inputs.intersection(geom.graph.adjacency[u]) for u in geom.inputs)
            assert_matches_dense_reference(geom, res.flow, angle_rng)
        assert sizes == {9, 10, 11, 12}
        assert passthrough >= 20 and input_edges >= 20

    # At the 12-qubit cap: one 64 x 64 Gram block, 16 of 4 x 4 and 8 of
    # 16 x 16, so batched matmul runs on single and stacked blocks.
    @pytest.mark.parametrize("parts", [(2, 2, 2, 2, 2, 2), (1, 1, 1, 1, 4, 4), (1, 1, 1, 2, 2, 2, 3)])
    def test_partitions_at_the_qubit_cap(self, parts):
        geom, _ = generate_extremal(ExtremalPartition(parts))
        assert_matches_dense_reference(geom, find_causal_flow(geom).flow, np.random.default_rng(14))

    def test_forced_six_cycle_flow_under_every_schedule(self, six_cycle):
        rng = np.random.default_rng(13)
        for schedule in permutations([0, 1, 2]):
            flow = flow_measuring_in(forced_six_cycle_flow(), list(schedule))
            assert measurement_order(flow) == list(schedule)
            assert_matches_dense_reference(six_cycle, flow, rng)


def test_relabelling_leaves_the_map_unchanged_up_to_12():
    # Relabelling changes every qubit's register position; the dense map
    # must only have its qubit axes permuted.
    rng, angle_rng = random.Random(31), np.random.default_rng(31)
    for n in range(9, 13):
        for parts in iter_partitions(n):
            if len(parts) > 4:
                continue
            geom, _ = generate_extremal(ExtremalPartition(parts))
            perm = rng.sample(range(n), n)
            moved = relabel(geom, perm)
            angles = draw_angles(geom.measured, angle_rng)
            vmap = simulate_postselected(MeasurementPattern(geom, find_causal_flow(geom).flow, angles))
            moved_angles = {perm[v]: theta for v, theta in angles.items()}
            moved_map = simulate_postselected(MeasurementPattern(moved, find_causal_flow(moved).flow, moved_angles))
            # The moved map's qubit axes follow the new labels; put them
            # back in the order of the old ones.
            outs = [moved_map.output_qubits.index(perm[q]) for q in vmap.output_qubits]
            ins = [len(outs) + moved_map.input_qubits.index(perm[q]) for q in vmap.input_qubits]
            tensor = moved_map.matrix.reshape((2,) * (len(outs) + len(ins)))
            back = tensor.transpose(outs + ins).reshape(vmap.matrix.shape)
            assert np.max(np.abs(back - vmap.matrix)) < 1e-12


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


def test_basis_bit_tables_are_shared_read_only():
    # Every draw reads the same cached tables, so none may write into them.
    geom, _ = generate_extremal(ExtremalPartition((2, 3, 3)))
    angles = draw_angles(geom.measured, np.random.default_rng(22))
    pattern = MeasurementPattern(geom, find_causal_flow(geom).flow, angles)
    first = simulate_postselected(pattern)
    assert np.array_equal(simulate_postselected(pattern).amplitudes, first.amplitudes)
    bits = _basis_bits(5)
    assert _basis_bits(5) is bits
    with pytest.raises(ValueError):
        bits[0, 0] = 1.0


def test_draw_angles_deterministic_given_seed():
    a = draw_angles([3, 1, 2], np.random.default_rng(5))
    b = draw_angles([1, 2, 3], np.random.default_rng(5))
    assert a == b
    assert all(0.0 <= theta < 2.0 * math.pi for theta in a.values())


def test_measurement_order_does_not_enter_the_map():
    # Two flows on one geometry, with the same f and ranks that measure in
    # opposite orders, give the same amplitudes to the last bit.
    geom, _ = generate_extremal(ExtremalPartition((2, 3, 3)))
    flow = find_causal_flow(geom).flow
    backwards = flow_measuring_in(flow, measurement_order(flow)[::-1])
    assert measurement_order(backwards) == measurement_order(flow)[::-1] != measurement_order(flow)
    angles = draw_angles(geom.measured, np.random.default_rng(21))
    forward = simulate_postselected(MeasurementPattern(geom, flow, angles))
    reverse = simulate_postselected(MeasurementPattern(geom, backwards, angles))
    assert np.array_equal(forward.amplitudes, reverse.amplitudes)
    assert isometry_defect(forward) < 1e-9
