"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to watch the
per-criterion lines stream by).
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np
import pytest

from flowscope import (
    ExtremalPartition,
    Geometry,
    Graph,
    MeasurementPattern,
    brute_force_flow,
    draw_angles,
    dump_flow,
    find_causal_flow,
    flow_from_cover,
    gamma,
    generate_extremal,
    isometry_defect,
    load_flow,
    load_geometry,
    simulate_postselected,
    verify_flow,
    verify_obstruction,
)
from flowscope.flow import _backward_greedy

from .conftest import SIX_CYCLE_TEXT, cover_pairs, first_path_cover, no_flow_reason_fault, orbit_cover
from .digraph_reference import influence_order
from .extremal_reference import lex_acyclicity_certificate, orbit_counting_holds
from .witness_reference import reference_complete_matching

ANGLE_DRAWS = 20
# Interleaved timing rounds of criterion 7.
SCALING_ROUNDS = 7
# Instances in the criterion-4 sweep; the input variants depend on which
# path cover is found first, so a change of that rule shows here.
SMALL_SWEEP_INSTANCES = 30596
DEFECT_TOLERANCE = 1e-9


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def iter_partitions(n: int, smallest: int = 1):
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        for rest in iter_partitions(n - first, first):
            yield (first,) + rest


@pytest.fixture(scope="module")
def saturation_sweep():
    """Generated instance, certificates, and found flow per partition, n <= 12.

    Returns the rows plus the wall time spent generating and searching, so
    the saturation criterion can account for the full sweep cost.
    """
    start = time.perf_counter()
    results = []
    for n in range(1, 13):
        for parts in iter_partitions(n):
            geom, cover = generate_extremal(ExtremalPartition(parts))
            search = find_causal_flow(geom)
            results.append((parts, geom, cover, search))
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def small_geometry_sweep():
    """Exhaustive oracle-vs-pipeline comparison over all graphs with n <= 6.

    Graphs come from the atlas of non-isomorphic graphs on up to six
    vertices; every output set is tried with three input variants: empty,
    equal to the outputs, and the initial points of a found path cover.
    """
    nx = pytest.importorskip("networkx")
    rows = []
    for ng in nx.graph_atlas_g():
        n = ng.number_of_nodes()
        if n > 6:
            break
        graph = Graph.from_edges(n, list(ng.edges()))
        for size in range(n + 1):
            for osub in itertools.combinations(range(n), size):
                outputs = frozenset(osub)
                variants = {frozenset(), outputs}
                cover = first_path_cover(Geometry(graph, frozenset(), outputs))
                if cover is not None:
                    variants.add(frozenset(p[0] for p in cover.paths))
                for inputs in sorted(variants, key=sorted):
                    geom = Geometry(graph, inputs, outputs)
                    rows.append((geom, brute_force_flow(geom), find_causal_flow(geom)))
    assert len(rows) == SMALL_SWEEP_INSTANCES
    return rows


def test_criterion_1_gamma_formula():
    ok = gamma(23, 3) == 63
    ok = ok and all(gamma(n, 1) == n - 1 for n in range(1, 10**6 + 1))
    ok = ok and all(gamma(k, k) == k * (k - 1) // 2 for k in range(1, 10**3 + 1))
    report("1 (gamma formula)", ok, "n=1..1e6 at k=1, k=1..1e3 at n=k, and (23,3)=63")


def test_criterion_2_saturation_sweep(saturation_sweep):
    rows, build_time = saturation_sweep
    start = time.perf_counter()
    failures = []
    for parts, geom, cover, search in rows:
        k = len(parts)
        n = geom.vertex_count
        if geom.graph.edge_count != gamma(n, k):
            failures.append((parts, "edge count"))
        if not lex_acyclicity_certificate(geom, cover):
            failures.append((parts, "lex certificate"))
        ranks, _ = influence_order(geom, cover_pairs(cover))
        if ranks is None:
            failures.append((parts, "acyclic_order"))
        if search.status != "found" or not verify_flow(geom, search.flow).ok:
            failures.append((parts, "find_causal_flow"))
        elif not orbit_counting_holds(geom, search.flow, tight=True):
            failures.append((parts, "orbit counting"))
    elapsed = build_time + time.perf_counter() - start
    report(
        "2 (saturation sweep)",
        not failures and elapsed < 30.0,
        f"{len(rows)} partitions of n<=12 in {elapsed:.1f}s, failures={failures[:3]}",
    )


def test_criterion_3_sharpness():
    start = time.perf_counter()
    checked = 0
    failures = []
    for n in range(1, 8):
        for parts in iter_partitions(n):
            geom, _ = generate_extremal(ExtremalPartition(parts))
            present = set(geom.graph.edges())
            for u, v in itertools.combinations(range(n), 2):
                if (u, v) in present:
                    continue
                bigger = Graph.from_edges(n, sorted(present | {(u, v)}))
                if brute_force_flow(Geometry(bigger, geom.inputs, geom.outputs)) is not None:
                    failures.append((parts, (u, v)))
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        "3 (sharpness)",
        not failures and elapsed < 300.0,
        f"{checked} single-edge additions over partitions of n<=7 in {elapsed:.1f}s, "
        f"failures={failures[:3]}",
    )


def test_criterion_4_oracle_equivalence(small_geometry_sweep):
    disagreements = 0
    undecided = 0
    unsound = 0
    miscounted = 0
    for geom, oracle, result in small_geometry_sweep:
        if result.status == "undecided":
            undecided += 1
            continue
        if (oracle is not None) != (result.status == "found"):
            disagreements += 1
        if result.status == "found" and not verify_flow(geom, result.flow).ok:
            unsound += 1
        for flow in (oracle, result.flow):
            miscounted += flow is not None and not orbit_counting_holds(geom, flow)
    ok = disagreements == 0 and undecided == 0 and unsound == 0 and miscounted == 0
    report(
        "4 (oracle equivalence)",
        ok,
        f"{len(small_geometry_sweep)} instances, disagreements={disagreements}, "
        f"undecided={undecided}, unsound={unsound}, miscounted={miscounted}",
    )


def test_flow_images_are_undefined_exactly_on_the_outputs(small_geometry_sweep):
    # Every way a flow is made: the greedy, a cover, the oracle and a file.
    checked = 0
    bad = 0
    for geom, oracle, result in small_geometry_sweep:
        if result.status != "found":
            continue
        from_cover = flow_from_cover(geom, orbit_cover(geom, result.flow)).flow
        loaded, _cover = load_flow(geom, dump_flow(geom, result.flow))
        for flow in (result.flow, from_cover, oracle, loaded):
            image, pairs = flow.successor.image, flow.successor.pairs
            undefined = {v for v, fv in enumerate(image) if fv == -1}
            ascending = all(a < b for a, b in zip(pairs, pairs[1:]))
            checked += 1
            bad += len(image) != geom.vertex_count or undefined != geom.outputs or not ascending
    report("4c (flow images)", checked > 0 and bad == 0, f"{checked} flows, bad={bad}")


def test_no_flow_certificates_verify(small_geometry_sweep):
    checked = 0
    rejected = 0
    for geom, _oracle, result in small_geometry_sweep:
        if result.status == "no-flow" and result.reason != "edge-bound":
            checked += 1
            rejected += not verify_obstruction(geom, result.obstruction)
    report(
        "4b (no-flow certificates)",
        checked > 0 and rejected == 0,
        f"{checked} obstructions, rejected={rejected}",
    )


def test_no_flow_reasons_match_enumeration(small_geometry_sweep):
    checked = 0
    faults = []
    for geom, _oracle, result in small_geometry_sweep:
        if result.status == "no-flow" and result.reason != "edge-bound":
            checked += 1
            fault = no_flow_reason_fault(geom, result)
            if fault is not None:
                faults.append((sorted(geom.graph.edges()), fault))
    report(
        "4c (no-flow reasons)",
        checked > 0 and not faults,
        f"{checked} reasons against the saturating assignments, faults={faults[:3]}",
    )


def test_matching_completion_stays_inside_the_obstruction(small_geometry_sweep):
    # Each greedy partner claimed its last unprocessed neighbour, so
    # completing the greedy's matching over the whole graph changes f only
    # on the obstruction, and every cyclic-D cycle lies inside it: the
    # facts that let find_causal_flow work on the obstruction alone.
    completed = cyclic = 0
    strays = []
    for geom, _oracle, result in small_geometry_sweep:
        if result.status != "no-flow" or result.reason == "edge-bound" or geom.output_count == 0:
            continue
        image, _layer, unprocessed = _backward_greedy(geom)
        greedy = image[:]
        completed += reference_complete_matching(geom, image, unprocessed)
        cyclic += result.reason == "cyclic-D"
        inside = set(result.obstruction)
        changed = {v for v, fv in enumerate(image) if fv != greedy[v]}
        if not changed <= inside or not set(result.cycle or ()) <= inside:
            strays.append(sorted(geom.graph.edges()))
    report(
        "4d (matching completion)",
        cyclic > 0 and completed == cyclic and not strays,
        f"{completed} completed matchings, {cyclic} cyclic-D cycles, strays={strays[:3]}",
    )


def test_criterion_5_six_cycle_regression():
    geom = load_geometry(SIX_CYCLE_TEXT)
    result = find_causal_flow(geom)
    oracle = brute_force_flow(geom)
    expected_cycle = {geom.id_of("a0"), geom.id_of("a1"), geom.id_of("a2")}
    ok = (
        result.status == "no-flow"
        and result.reason == "cyclic-D"
        and oracle is None
        and result.cycle is not None
        and set(result.cycle) == expected_cycle
    )
    report(
        "5 (six-cycle regression)",
        ok,
        f"pipeline={result.status}/{result.reason}, oracle={'absent' if oracle is None else 'flow'}, "
        f"cycle={result.cycle}",
    )


def test_criterion_6_isometry_property(saturation_sweep):
    rows, _build_time = saturation_sweep
    start = time.perf_counter()
    flows = 0
    worst = 0.0
    zero_maps = 0
    for idx, (parts, geom, _cover, search) in enumerate(rows):
        if geom.vertex_count > 10:
            continue
        assert search.status == "found"
        flows += 1
        rng = np.random.default_rng(1000 + idx)
        for _ in range(ANGLE_DRAWS):
            angles = draw_angles(geom.measured, rng)
            vmap = simulate_postselected(MeasurementPattern(geom, search.flow, angles))
            if not np.any(vmap.matrix):
                zero_maps += 1
                continue
            worst = max(worst, isometry_defect(vmap))
    elapsed = time.perf_counter() - start
    ok = zero_maps == 0 and worst < DEFECT_TOLERANCE and elapsed < 120.0
    report(
        "6 (isometry property)",
        ok,
        f"{flows} flows x {ANGLE_DRAWS} draws, worst defect {worst:.2e}, "
        f"zero maps {zero_maps}, {elapsed:.1f}s",
    )


def test_criterion_7_pipeline_scaling():
    # The sizes are timed interleaved, so host drift hits all three alike,
    # and each gate reads the median over rounds of a within-round figure.
    sizes = (10_000, 20_000, 40_000)
    instances = {n: generate_extremal(ExtremalPartition((n // 5,) * 5)) for n in sizes}
    rounds = []
    for r in range(SCALING_ROUNDS):
        times = {}
        for n in sizes if r % 2 else reversed(sizes):
            geom, cover = instances[n]
            t0 = time.perf_counter()
            result = flow_from_cover(geom, cover)
            times[n] = time.perf_counter() - t0
            assert result.status == "found"
        rounds.append(times)
    ratio_2x = statistics.median(t[20_000] / t[10_000] for t in rounds)
    ratio_4x = statistics.median(t[40_000] / t[10_000] for t in rounds)
    median = {n: statistics.median(t[n] for t in rounds) for n in sizes}
    ok = ratio_2x <= 1.5 * 2 and ratio_4x <= 1.5 * 4 and median[40_000] < 5.0
    report(
        "7 (pipeline scaling)",
        ok,
        f"k=5 median times {median[10_000]:.3f}s/{median[20_000]:.3f}s/{median[40_000]:.3f}s "
        f"over {SCALING_ROUNDS} rounds, median growth x2={ratio_2x:.2f} x4={ratio_4x:.2f}",
    )


def test_criterion_8_edge_gate_soundness(small_geometry_sweep):
    violations = 0
    gated = 0
    for geom, oracle, _result in small_geometry_sweep:
        n, k = geom.vertex_count, geom.output_count
        if n == 0 or k == 0:
            continue
        if geom.graph.edge_count > gamma(n, k):
            gated += 1
            if oracle is not None:
                violations += 1
    report(
        "8 (edge-gate soundness)",
        violations == 0,
        f"{gated} over-budget instances, oracle violations={violations}",
    )
