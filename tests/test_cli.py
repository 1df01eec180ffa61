"""End-to-end command line behaviour: exit codes and verdict lines."""

from __future__ import annotations

import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowscope import (
    CausalFlow,
    ExtremalPartition,
    FlowSearchResult,
    Geometry,
    Graph,
    LinearMap,
    PathCover,
    brute_force_flow,
    cli,
    dump_flow,
    find_causal_flow,
    flow,
    flow_from_cover,
    generate_extremal,
    load_geometry,
    serialize_geometry,
)
from flowscope.cli import main

from .conftest import SIX_CYCLE_TEXT, successor_function
from .test_flow import plus_one_edge


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verdict_line(out: str) -> str:
    lines = [line for line in out.splitlines() if line.startswith("VERDICT:")]
    assert len(lines) == 1, out
    return lines[0]


@pytest.fixture
def six_cycle_file(tmp_path):
    path = tmp_path / "six_cycle.json"
    path.write_text(SIX_CYCLE_TEXT)
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    payload = {
        "vertices": ["v1", "v2", "v3"],
        "edges": [["v1", "v2"], ["v2", "v3"]],
        "inputs": ["v1"],
        "outputs": ["v3"],
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def extremal_file(tmp_path, capsys):
    out = tmp_path / "g689.json"
    code, _, _ = run_cli(capsys, "gen-extremal", "--partition", "6,8,9", "--out", str(out))
    assert code == 0
    return str(out)


class TestCheckBound:
    def test_extremal_passes_with_equality(self, capsys, extremal_file):
        code, out, _ = run_cli(capsys, "check-bound", extremal_file)
        assert code == 0
        assert "m = 63" in out
        assert "gamma(23, 3) = 63" in out
        assert verdict_line(out) == "VERDICT: property-holds reason=edge-bound"

    def test_one_extra_edge_rejected(self, capsys, tmp_path, extremal_file):
        data = json.loads(Path(extremal_file).read_text())
        present = {tuple(sorted(e)) for e in data["edges"]}
        extra = next(
            [u, v]
            for u in data["vertices"]
            for v in data["vertices"]
            if u < v and (u, v) not in present
        )
        data["edges"].append(extra)
        bad = tmp_path / "overfull.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "check-bound", str(bad))
        assert code == 1
        assert "m = 64" in out
        assert verdict_line(out) == "VERDICT: property-fails reason=edge-bound"

    def test_invalid_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, out, err = run_cli(capsys, "check-bound", str(bad))
        assert code == 2
        assert "error:" in err

    def test_no_outputs_exits_2(self, capsys, tmp_path):
        f = tmp_path / "k0.json"
        f.write_text(json.dumps({"vertices": ["a"], "edges": [], "inputs": [], "outputs": []}))
        code, _, err = run_cli(capsys, "check-bound", str(f))
        assert code == 2
        assert "output" in err

    @pytest.mark.parametrize(
        "row, exceeds, check_bound",
        [
            ("at-gamma", False, (0, "property-holds reason=edge-bound")),
            ("one-edge-past", True, (1, "property-fails reason=edge-bound")),
            ("no-outputs", False, (2, "error reason=input")),
        ],
    )
    def test_every_edge_gate_caller_agrees(self, capsys, tmp_path, row, exceeds, check_bound):
        geom, cover = generate_extremal(ExtremalPartition((2, 3, 3)))
        if row == "one-edge-past":
            geom = plus_one_edge(geom)
        elif row == "no-outputs":
            geom, cover = Geometry(geom.graph, geom.inputs, frozenset(), geom.labels), None
        assert (find_causal_flow(geom).reason == "edge-bound") is exceeds
        if cover is not None:
            assert (flow_from_cover(geom, cover).reason == "edge-bound") is exceeds
        path = tmp_path / "g.json"
        path.write_text(serialize_geometry(geom))
        code, out, _ = run_cli(capsys, "check-bound", str(path), "--porcelain")
        assert (code, out) == (check_bound[0], f"VERDICT: {check_bound[1]}\n")
        assert flow._certificate_holds(geom, FlowSearchResult("no-flow", reason="edge-bound")) is exceeds


class TestFindFlow:
    def test_six_cycle_no_flow(self, capsys, six_cycle_file):
        code, out, _ = run_cli(capsys, "find-flow", six_cycle_file)
        assert code == 1
        assert "cycle witness: a0 -> a1 -> a2" in out
        assert verdict_line(out) == "VERDICT: no-flow reason=cyclic-D"

    def test_path_flow_found_and_written(self, capsys, tmp_path, path_file):
        out_file = tmp_path / "flow.json"
        code, out, _ = run_cli(capsys, "find-flow", path_file, "--out", str(out_file))
        assert code == 0
        assert verdict_line(out) == "VERDICT: flow-found"
        data = json.loads(out_file.read_text())
        assert data["successor"] == {"v1": "v2", "v2": "v3"}
        assert data["paths"] == [["v1", "v2", "v3"]]

    def test_large_instance_decided(self, capsys, tmp_path):
        labels = [f"n{i}" for i in range(12)]
        payload = {
            "vertices": labels,
            "edges": [[labels[i], labels[i + 1]] for i in range(11)],
            "inputs": [labels[0]],
            "outputs": [labels[11]],
        }
        f = tmp_path / "long_path.json"
        f.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "find-flow", str(f))
        assert code == 0
        assert verdict_line(out) == "VERDICT: flow-found"
        assert "depth: 11" in out

    @pytest.mark.parametrize("option", [["--budget", "0"], ["--oracle"]], ids=["budget", "oracle"])
    def test_removed_option_is_a_usage_error(self, capsys, path_file, option):
        # A usage error still ends with a verdict line, like every input error.
        code, out, err = run_cli(capsys, "find-flow", path_file, *option)
        assert code == 2
        assert out == "VERDICT: error reason=input\n"
        assert f"unrecognized arguments: {' '.join(option)}" in err

    @pytest.mark.parametrize("n, f_lines", [(20, 19), (21, 0)])
    def test_f_lines_printed_up_to_20_vertices(self, capsys, tmp_path, n, f_lines):
        f = tmp_path / "path.json"
        run_cli(capsys, "gen-extremal", "--partition", str(n), "--out", str(f))
        code, out, _ = run_cli(capsys, "find-flow", str(f))
        assert code == 0
        assert sum(line.startswith("f(") for line in out.splitlines()) == f_lines

    def test_six_cycle_names_obstruction(self, capsys, six_cycle_file):
        code, out, _ = run_cli(capsys, "find-flow", six_cycle_file)
        assert code == 1
        assert "obstruction: a0 a1 a2" in out.splitlines()

    def test_greedy_file_matches_oracle_on_long_path(self, capsys, tmp_path):
        # At a raised bound the oracle writes the greedy's file byte for
        # byte, as the path's flow is unique.
        f = tmp_path / "path1200.json"
        code, _, _ = run_cli(capsys, "gen-extremal", "--partition", "1200", "--out", str(f))
        assert code == 0
        greedy = tmp_path / "greedy.json"
        code, out, _ = run_cli(capsys, "find-flow", str(f), "--out", str(greedy))
        assert verdict_line(out) == "VERDICT: flow-found"
        geom = load_geometry(f.read_text())
        assert dump_flow(geom, brute_force_flow(geom, bound=1500)) == greedy.read_text()

    def test_duplicate_geometry_key_exits_2(self, capsys, tmp_path):
        f = tmp_path / "dup.json"
        f.write_text(
            '{"vertices": ["a", "b"], "edges": [["a", "b"]], "inputs": ["a"],'
            ' "outputs": ["b"], "outputs": ["a"]}'
        )
        code, out, err = run_cli(capsys, "find-flow", str(f))
        assert code == 2
        assert verdict_line(out) == "VERDICT: error reason=input"
        assert "duplicate key 'outputs'" in err

    def test_porcelain_only_verdict(self, capsys, six_cycle_file):
        code, out, _ = run_cli(capsys, "find-flow", six_cycle_file, "--porcelain")
        assert code == 1
        assert out.strip() == "VERDICT: no-flow reason=cyclic-D"


class TestVerifyFlow:
    def test_round_trip_verifies(self, capsys, tmp_path, path_file):
        flow_file = tmp_path / "flow.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        code, out, _ = run_cli(capsys, "verify-flow", path_file, str(flow_file))
        assert code == 0
        assert verdict_line(out) == "VERDICT: property-holds reason=certificate"

    def test_tampered_ranks_fail(self, capsys, tmp_path, path_file):
        flow_file = tmp_path / "flow.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        data = json.loads(flow_file.read_text())
        data["ranks"] = {label: 0 for label in data["ranks"]}
        flow_file.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify-flow", path_file, str(flow_file))
        assert code == 1
        assert "condition=successor-order" in verdict_line(out)

    def test_duplicate_rank_key_exits_2(self, capsys, tmp_path, path_file):
        flow_file = tmp_path / "flow.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        # A second "v3" rank would silently replace the first under plain json.loads.
        text = flow_file.read_text().replace('"v3": 2', '"v3": 2,\n    "v3": 0', 1)
        flow_file.write_text(text)
        code, out, err = run_cli(capsys, "verify-flow", path_file, str(flow_file))
        assert code == 2
        assert verdict_line(out) == "VERDICT: error reason=input"
        assert "duplicate key 'v3'" in err

    @pytest.mark.parametrize("command", ["verify-flow", "simulate", "order"])
    def test_paths_not_the_orbits_exit_2(self, capsys, tmp_path, path_file, command):
        flow_file = tmp_path / "flow.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        data = json.loads(flow_file.read_text())
        data["paths"] = [["v1"], ["v2", "v3"]]
        flow_file.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, command, path_file, str(flow_file))
        assert code == 2
        assert verdict_line(out) == "VERDICT: error reason=input"
        assert "paths[0]: ends at 'v1', where f is defined" in err

    def test_flow_for_wrong_geometry_exits_2(self, capsys, tmp_path, path_file, six_cycle_file):
        flow_file = tmp_path / "flow.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        code, _, err = run_cli(capsys, "verify-flow", six_cycle_file, str(flow_file))
        assert code == 2


class TestGenExtremal:
    def test_writes_saturating_geometry(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        code, out, _ = run_cli(capsys, "gen-extremal", "--partition", "6,8,9", "--out", str(out_file))
        assert code == 0
        assert "m = 63 = gamma(23, 3)" in out
        data = json.loads(out_file.read_text())
        assert len(data["vertices"]) == 23
        assert len(data["edges"]) == 63
        assert data["vertices"][0] == "v1_1"

    def test_stdout_mode_keeps_artifact_clean(self, capsys):
        code = main(["gen-extremal", "--partition", "1,1"])
        captured = capsys.readouterr()
        assert code == 0
        data = json.loads(captured.out)
        assert data["edges"] == [["v1_1", "v2_1"]]
        assert "VERDICT: property-holds" in captured.err

    def test_unsorted_partition_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gen-extremal", "--partition", "3,2")
        assert code == 2
        assert "non-decreasing" in err


class TestInternalErrors:
    """A bug inside a handler is exit 4, never an input error or a traceback."""

    @pytest.mark.parametrize("exc", [ValueError("boom"), RuntimeError("boom")])
    def test_handler_exception_exits_4(self, capsys, caplog, monkeypatch, path_file, exc):
        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_check_bound", broken)
        caplog.set_level(logging.DEBUG, logger="flowscope")
        code, out, err = run_cli(capsys, "check-bound", path_file)
        assert code == cli.EXIT_INTERNAL == 4
        assert verdict_line(out) == "VERDICT: error reason=internal"
        assert f"error: internal: {type(exc).__name__}: boom" in err
        assert "Traceback" not in out + err
        assert [r.exc_info[1] for r in caplog.records] == [exc]

    def test_generator_edge_count_mismatch_is_internal(self, capsys, monkeypatch):
        # A valid partition whose geometry misses an edge is the generator's
        # fault, not the input's.
        real = cli.generate_extremal

        def short_by_one_edge(partition):
            geom, cover = real(partition)
            graph = Graph.from_edges(geom.vertex_count, list(geom.graph.edges())[1:])
            return Geometry(graph, geom.inputs, geom.outputs, geom.labels), cover

        monkeypatch.setattr(cli, "generate_extremal", short_by_one_edge)
        code, out, err = run_cli(capsys, "gen-extremal", "--partition", "2,3")
        assert code == cli.EXIT_INTERNAL == 4
        assert verdict_line(out) == "VERDICT: error reason=internal"
        assert err == "error: internal: AssertionError: generator produced 6 edges but gamma(5, 2) = 7\n"

    @pytest.mark.parametrize(
        "breaking",
        [
            lambda paths: tuple(path[::-1] for path in paths),
            lambda paths: (paths[0][:1] + paths[1][1:], paths[1][:1] + paths[0][1:], *paths[2:]),
        ],
        ids=["reversed-paths", "swapped-tails"],
    )
    def test_generator_cover_without_flow_is_internal(self, capsys, monkeypatch, breaking):
        # The generated cover must give a flow that passes verify_flow.
        real = cli.generate_extremal

        def broken_cover(partition):
            geom, cover = real(partition)
            return geom, PathCover(breaking(cover.paths))

        monkeypatch.setattr(cli, "generate_extremal", broken_cover)
        code, out, err = run_cli(capsys, "gen-extremal", "--partition", "2,3")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == "VERDICT: error reason=internal\n"
        assert err == (
            "error: internal: AssertionError: the generated cover does not give a flow that passes verify_flow\n"
        )

    @pytest.mark.parametrize(
        "result",
        [
            FlowSearchResult("no-flow", reason="cyclic-D", cycle=(0, 1, 2), obstruction=(0, 1, 3)),
            FlowSearchResult("no-flow", reason="no-cover"),
            FlowSearchResult("no-flow", reason="edge-bound"),
            FlowSearchResult(
                "found", flow=CausalFlow(successor_function(6, [(0, 3), (1, 4), (2, 5)]), (0,) * 6)
            ),
            FlowSearchResult("found", flow=CausalFlow(successor_function(6, [(0, 3)]), (0,) * 6)),
        ],
        ids=["bad-obstruction", "no-obstruction", "edges-within-gamma", "flow-fails", "flow-off-domain"],
    )
    def test_find_flow_checks_its_certificate(self, capsys, monkeypatch, six_cycle_file, result):
        monkeypatch.setattr(cli, "find_causal_flow", lambda geom: result)
        code, out, err = run_cli(capsys, "find-flow", six_cycle_file)
        assert code == cli.EXIT_INTERNAL == 4
        assert out == "VERDICT: error reason=internal\n"
        assert err == (
            f"error: internal: AssertionError: {result.status} verdict ({result.reason}) "
            "fails its certificate check\n"
        )

    def test_bad_partition_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "gen-extremal", "--partition", "2,x")
        assert code == 2
        assert verdict_line(out) == "VERDICT: error reason=input"
        assert "invalid partition" in err

    @pytest.mark.parametrize("option, draws, seed", [("--seed", "1", "-1"), ("--random-angles", "-1", "0")])
    def test_negative_simulate_option_is_input_error(self, capsys, tmp_path, path_file, option, draws, seed):
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        code, out, err = run_cli(
            capsys, "simulate", path_file, str(flow_file), "--random-angles", draws, "--seed", seed
        )
        assert code == 2
        assert verdict_line(out) == "VERDICT: error reason=input"
        assert f"{option} must be non-negative" in err

    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff\xfe{}", "cannot read"), (b"[" * 100_000 + b"]" * 100_000, "nested too deeply")],
        ids=["undecodable", "deeply-nested"],
    )
    def test_unparseable_file_is_input_error(self, capsys, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run_cli(capsys, "check-bound", str(bad))
        assert code == 2
        assert verdict_line(out) == "VERDICT: error reason=input"
        assert message in err


class TestSimulateAndOrder:
    def test_random_angles_on_generated_instance(self, capsys, tmp_path):
        geom_file = tmp_path / "g.json"
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "gen-extremal", "--partition", "2,3", "--out", str(geom_file))
        run_cli(capsys, "find-flow", str(geom_file), "--out", str(flow_file))
        code, out, _ = run_cli(
            capsys, "simulate", str(geom_file), str(flow_file),
            "--random-angles", "5", "--seed", "1",
        )
        assert code == 0
        assert out.count("defect") >= 5
        assert "VERDICT: property-holds reason=isometry" in verdict_line(out)

    def test_explicit_angles_and_dump(self, capsys, tmp_path):
        geom_file = tmp_path / "g.json"
        flow_file = tmp_path / "f.json"
        payload = {
            "vertices": ["a", "b"],
            "edges": [["a", "b"]],
            "inputs": ["a"],
            "outputs": ["b"],
        }
        geom_file.write_text(json.dumps(payload))
        run_cli(capsys, "find-flow", str(geom_file), "--out", str(flow_file))
        code, out, _ = run_cli(
            capsys, "simulate", str(geom_file), str(flow_file),
            "--angles", "a=0.0", "--dump-map",
        )
        assert code == 0
        lines = out.splitlines()
        assert "0.5+0j 0.5+0j" in lines
        assert "0.5+0j -0.5+0j" in lines

    def test_defect_at_the_threshold_fails(self, capsys, tmp_path, monkeypatch, path_file):
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        monkeypatch.setattr(cli, "isometry_defect", lambda vmap: cli.DEFECT_THRESHOLD)
        code, out, _ = run_cli(capsys, "simulate", path_file, str(flow_file), "--random-angles", "1")
        assert code == 1
        assert "max defect: 1.000e-09 (>= 1e-09)" in out.splitlines()
        assert verdict_line(out) == "VERDICT: property-fails reason=isometry max_defect=1.000e-09"

    def test_qubit_cap_checked_before_further_draws(self, capsys, tmp_path, monkeypatch):
        # A 13-vertex geometry is over the default cap of 12 qubits.
        geom_file = tmp_path / "g.json"
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "gen-extremal", "--partition", "13", "--out", str(geom_file))
        run_cli(capsys, "find-flow", str(geom_file), "--out", str(flow_file))
        real = cli.draw_angles
        calls = []

        def counted(vertices, rng):
            calls.append(None)
            return real(vertices, rng)

        monkeypatch.setattr(cli, "draw_angles", counted)
        code, out, err = run_cli(
            capsys, "simulate", str(geom_file), str(flow_file), "--random-angles", "1000"
        )
        assert code == 2
        assert verdict_line(out) == "VERDICT: error reason=input"
        assert err == "error: instance has 13 qubits; simulation bound is 12\n"
        assert len(calls) == 1

    def test_max_qubits_sets_the_cap(self, capsys, tmp_path, path_file):
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        code, out, err = run_cli(
            capsys, "simulate", path_file, str(flow_file), "--random-angles", "1", "--max-qubits", "2"
        )
        assert code == 2
        assert verdict_line(out) == "VERDICT: error reason=input"
        assert err == "error: instance has 3 qubits; simulation bound is 2\n"

        geom_file = tmp_path / "g.json"
        run_cli(capsys, "gen-extremal", "--partition", "13", "--out", str(geom_file))
        run_cli(capsys, "find-flow", str(geom_file), "--out", str(flow_file))
        code, out, _ = run_cli(
            capsys, "simulate", str(geom_file), str(flow_file), "--random-angles", "1", "--max-qubits", "13"
        )
        assert code == 0
        assert verdict_line(out).startswith("VERDICT: property-holds reason=isometry")

    def test_zero_map_fails_the_certificate(self, capsys, tmp_path, path_file, monkeypatch):
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        zero = LinearMap(np.zeros((2, 2), dtype=complex), (2,), (0,))
        monkeypatch.setattr(cli, "simulate_postselected", lambda pattern, max_qubits: zero)
        code, out, _ = run_cli(capsys, "simulate", path_file, str(flow_file), "--random-angles", "3")
        assert code == 1
        assert "draw 0: map is zero" in out.splitlines()
        assert verdict_line(out) == "VERDICT: property-fails reason=certificate defect=zero-map"

    def test_missing_angle_exits_2(self, capsys, tmp_path, path_file):
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        code, _, err = run_cli(capsys, "simulate", path_file, str(flow_file), "--angles", "v1=0.0")
        assert code == 2
        assert "missing angle" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_angle_exits_2(self, capsys, tmp_path, path_file, value):
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        code, out, err = run_cli(
            capsys, "simulate", path_file, str(flow_file), "--angles", f"v1={value},v2=0.0"
        )
        assert code == 2
        assert verdict_line(out) == "VERDICT: error reason=input"
        assert "not finite" in err
        assert "Warning" not in err

    def test_order_subcommand(self, capsys, tmp_path, path_file):
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        code, out, _ = run_cli(capsys, "order", path_file, str(flow_file))
        assert code == 0
        assert "order: v1 v2" in out


class TestInputErrorBranches:
    """Input errors of the CLI, each with its exact message and exit code 2."""

    @pytest.fixture
    def flow_file(self, capsys, tmp_path, path_file):
        flow_file = tmp_path / "f.json"
        run_cli(capsys, "find-flow", path_file, "--out", str(flow_file))
        return str(flow_file)

    @pytest.mark.parametrize(
        "angles, message",
        [
            ("v1=0.1,v2", "bad angle 'v2': expected label=radians"),
            ("v1=0.1,v2=abc", "bad angle value in 'v2=abc'"),
            ("v1=0.1,v1=0.7,v2=0.2", "angle for 'v1' given twice"),
            ("v1=0.1,v2=0.2, v1 =0.1", "angle for 'v1' given twice"),
        ],
    )
    def test_bad_angle_items(self, capsys, path_file, flow_file, angles, message):
        code, out, err = run_cli(capsys, "simulate", path_file, flow_file, "--angles", angles)
        assert (code, out, err) == (2, "VERDICT: error reason=input\n", f"error: {message}\n")

    def test_angle_label_repeated_across_flags(self, capsys, path_file, flow_file):
        flags = ["--angles", "v1=0.1", "--angles", "v1=0.7,v2=0.2"]
        code, out, err = run_cli(capsys, "simulate", path_file, flow_file, *flags)
        assert (code, out, err) == (2, "VERDICT: error reason=input\n", "error: angle for 'v1' given twice\n")

    def test_empty_angle_items_are_skipped(self, capsys, path_file, flow_file):
        plain = run_cli(capsys, "simulate", path_file, flow_file, "--angles", "v1=0.1,v2=0.2")
        assert plain[0] == 0
        assert run_cli(capsys, "simulate", path_file, flow_file, "--angles", ",v1=0.1,, ,v2=0.2,") == plain

    def test_simulate_needs_angles(self, capsys, path_file, flow_file):
        code, out, err = run_cli(capsys, "simulate", path_file, flow_file)
        assert (code, out, err) == (2, "VERDICT: error reason=input\n", "error: need --angles or --random-angles\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--angles", "v1=0.1,v2=0.2", "--seed", "1"], "--seed applies only to --random-angles"),
            (["--angles", "v1=0.1,v2=0.2", "--seed", "0"], "--seed applies only to --random-angles"),
            (["--angles", "v1=0.1,v2=0.2", "--seed", "-5"], "--seed must be non-negative, got -5"),
            (["--random-angles", "0"], "--random-angles must be positive, got 0"),
        ],
    )
    def test_simulate_option_refusals(self, capsys, path_file, flow_file, flags, message):
        code, out, err = run_cli(capsys, "simulate", path_file, flow_file, *flags)
        assert (code, out, err) == (2, "VERDICT: error reason=input\n", f"error: {message}\n")

    def test_random_angles_seed_defaults_to_zero(self, capsys, path_file, flow_file):
        draws = ["simulate", path_file, flow_file, "--random-angles", "2", "--dump-map"]
        plain = run_cli(capsys, *draws)
        assert plain[0] == 0
        assert run_cli(capsys, *draws, "--seed", "0") == plain
        assert run_cli(capsys, *draws, "--seed", "1") != plain

    @pytest.mark.parametrize("key", ["successor", "ranks"])
    def test_flow_file_fields_must_be_objects(self, capsys, tmp_path, path_file, flow_file, key):
        data = json.loads(Path(flow_file).read_text())
        data[key] = [["v1", "v2"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify-flow", path_file, str(bad))
        assert (code, out, err) == (2, "VERDICT: error reason=input\n", f"error: '{key}' must be an object\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["find-flow"], "the following arguments are required: geometry"),
            (["no-such-command"], "invalid choice: 'no-such-command'"),
            (
                ["simulate", "g.json", "f.json", "--angles", "v1=0.1", "--random-angles", "3"],
                "argument --random-angles: not allowed with argument --angles",
            ),
            (
                ["simulate", "g.json", "f.json", "--random-angles", "0", "--angles", "v1=0.1"],
                "argument --angles: not allowed with argument --random-angles",
            ),
        ],
    )
    def test_usage_errors_end_with_a_verdict(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "VERDICT: error reason=input\n")
        assert err.startswith("usage: flowscope")
        assert message in err

    def test_help_exits_0_without_a_verdict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: flowscope")
        assert not any(line.startswith("VERDICT:") for line in out.splitlines())


def _lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


def _geometry_text(vertices, edges, inputs, outputs) -> str:
    return json.dumps({"vertices": vertices, "edges": edges, "inputs": inputs, "outputs": outputs})


PATH_FLOW_TEXT = """\
{
  "successor": {
    "v1": "v2",
    "v2": "v3"
  },
  "ranks": {
    "v1": 0,
    "v2": 1,
    "v3": 2
  },
  "paths": [
    [
      "v1",
      "v2",
      "v3"
    ]
  ]
}
"""

PAIR_EXTREMAL_TEXT = """\
{
  "vertices": [
    "v1_1",
    "v2_1"
  ],
  "edges": [
    [
      "v1_1",
      "v2_1"
    ]
  ],
  "inputs": [
    "v1_1",
    "v2_1"
  ],
  "outputs": [
    "v1_1",
    "v2_1"
  ]
}
"""

TRANSCRIPT_FILES = {
    "path.json": _geometry_text(["v1", "v2", "v3"], [["v1", "v2"], ["v2", "v3"]], ["v1"], ["v3"]),
    "triangle.json": _geometry_text(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]], ["a"], ["c"]),
    # Two measured leaves a and b hang on the one output c: no path cover.
    "leaves.json": _geometry_text(["a", "b", "c"], [["a", "c"], ["b", "c"]], [], ["c"]),
    "six.json": SIX_CYCLE_TEXT,
    "pair.json": _geometry_text(["a", "b"], [["a", "b"]], ["a"], ["b"]),
    "flow.json": PATH_FLOW_TEXT,
    "pair-flow.json": '{"successor": {"a": "b"}, "ranks": {"a": 0, "b": 1}, "paths": [["a", "b"]]}',
    "flat-flow.json": PATH_FLOW_TEXT.replace('"v2": 1', '"v2": 0').replace('"v3": 2', '"v3": 0'),
}

# (argv, exit code, stdout, stderr, files the command writes)
TRANSCRIPTS = {
    "check-bound-pass": (
        ["check-bound", "path.json"], 0,
        _lines("n = 3", "k = 1", "m = 2", "gamma(3, 1) = 2", "bound check: pass (m <= gamma)",
               "VERDICT: property-holds reason=edge-bound"),
        "", {},
    ),
    "check-bound-fail": (
        ["check-bound", "triangle.json"], 1,
        _lines("n = 3", "k = 1", "m = 3", "gamma(3, 1) = 2",
               "bound check: reject (m > gamma, no causal flow can exist)",
               "VERDICT: property-fails reason=edge-bound"),
        "", {},
    ),
    "find-flow-found-out": (
        ["find-flow", "path.json", "--out", "new-flow.json"], 0,
        _lines("geometry: n=3 m=2 inputs=1 outputs=1", "flow found", "f(v1) = v2", "f(v2) = v3",
               "depth: 2", "wrote flow to new-flow.json", "VERDICT: flow-found"),
        "", {"new-flow.json": PATH_FLOW_TEXT},
    ),
    "find-flow-edge-bound": (
        ["find-flow", "triangle.json"], 1,
        _lines("geometry: n=3 m=3 inputs=1 outputs=1", "no flow: edge count exceeds the gamma bound",
               "VERDICT: no-flow reason=edge-bound"),
        "", {},
    ),
    "find-flow-no-cover": (
        ["find-flow", "leaves.json"], 1,
        _lines("geometry: n=3 m=2 inputs=0 outputs=1",
               "no flow: measured vertices cannot all be matched to partners",
               "obstruction: a b", "VERDICT: no-flow reason=no-cover"),
        "", {},
    ),
    "find-flow-cyclic": (
        ["find-flow", "six.json"], 1,
        _lines("geometry: n=6 m=6 inputs=3 outputs=3",
               "no flow: every candidate matching induces a cyclic influencing digraph",
               "cycle witness: a0 -> a1 -> a2", "obstruction: a0 a1 a2",
               "VERDICT: no-flow reason=cyclic-D"),
        "", {},
    ),
    "verify-flow-holds": (
        ["verify-flow", "path.json", "flow.json"], 0,
        _lines("flow verifies: all three conditions hold", "VERDICT: property-holds reason=certificate"),
        "", {},
    ),
    "verify-flow-fails": (
        ["verify-flow", "path.json", "flat-flow.json"], 1,
        _lines("flow rejected: condition successor-order fails at v1 v2",
               "VERDICT: property-fails reason=certificate condition=successor-order"),
        "", {},
    ),
    "gen-extremal-out": (
        ["gen-extremal", "--partition", "1,1", "--out", "g.json"], 0,
        _lines("partition: 1,1", "n = 2", "k = 2", "m = 1 = gamma(2, 2)", "wrote geometry to g.json",
               "VERDICT: property-holds reason=edge-bound"),
        "", {"g.json": PAIR_EXTREMAL_TEXT},
    ),
    "gen-extremal-stdout": (
        ["gen-extremal", "--partition", "1,1"], 0,
        PAIR_EXTREMAL_TEXT,
        _lines("partition: 1,1", "n = 2", "k = 2", "m = 1 = gamma(2, 2)",
               "VERDICT: property-holds reason=edge-bound"),
        {},
    ),
    "simulate-angles-dump": (
        ["simulate", "pair.json", "pair-flow.json", "--angles", "a=0.5", "--dump-map"], 0,
        _lines("draw 0: defect 0.000e+00",
               "0.5+0j 0.438791280945186-0.239712769302102j",
               "0.5+0j -0.438791280945186+0.239712769302102j",
               "max defect: 0.000e+00 (< 1e-09)",
               "VERDICT: property-holds reason=isometry max_defect=0.000e+00"),
        "", {},
    ),
    "simulate-random": (
        ["simulate", "pair.json", "pair-flow.json", "--random-angles", "3"], 0,
        _lines("draw 0: defect 0.000e+00", "draw 1: defect 0.000e+00", "draw 2: defect 0.000e+00",
               "max defect: 0.000e+00 (< 1e-09)",
               "VERDICT: property-holds reason=isometry max_defect=0.000e+00"),
        "", {},
    ),
    "simulate-missing-angle": (
        ["simulate", "path.json", "flow.json", "--angles", "v1=0.0"], 2,
        _lines("VERDICT: error reason=input"),
        _lines("error: missing angle for measured vertex 'v2'"), {},
    ),
    "simulate-extra-angle": (
        ["simulate", "path.json", "flow.json", "--angles", "v3=1,v1=0,v2=0"], 2,
        _lines("VERDICT: error reason=input"),
        _lines("error: angle given for unmeasured vertex 'v3'"), {},
    ),
    "simulate-flow-fails": (
        ["simulate", "path.json", "flat-flow.json", "--random-angles", "1"], 2,
        _lines("VERDICT: error reason=input"),
        _lines("error: flow file does not verify (condition successor-order)"), {},
    ),
    "order-holds": (
        ["order", "path.json", "flow.json"], 0,
        _lines("order: v1 v2", "VERDICT: property-holds reason=certificate"),
        "", {},
    ),
    "order-fails": (
        ["order", "path.json", "flat-flow.json"], 1,
        _lines("flow rejected: condition successor-order fails",
               "VERDICT: property-fails reason=certificate condition=successor-order"),
        "", {},
    ),
    "check-bound-porcelain": (
        ["check-bound", "triangle.json", "--porcelain"], 1,
        _lines("VERDICT: property-fails reason=edge-bound"), "", {},
    ),
    "find-flow-porcelain": (
        ["find-flow", "path.json", "--porcelain", "--out", "new-flow.json"], 0,
        _lines("VERDICT: flow-found"), "", {"new-flow.json": PATH_FLOW_TEXT},
    ),
    "verify-flow-porcelain": (
        ["verify-flow", "path.json", "flat-flow.json", "--porcelain"], 1,
        _lines("VERDICT: property-fails reason=certificate condition=successor-order"), "", {},
    ),
    "gen-extremal-porcelain": (
        ["gen-extremal", "--partition", "1,1", "--porcelain"], 0,
        PAIR_EXTREMAL_TEXT, _lines("VERDICT: property-holds reason=edge-bound"), {},
    ),
    "gen-extremal-out-porcelain": (
        ["gen-extremal", "--partition", "1,1", "--out", "g.json", "--porcelain"], 0,
        _lines("VERDICT: property-holds reason=edge-bound"), "", {"g.json": PAIR_EXTREMAL_TEXT},
    ),
    "simulate-porcelain": (
        ["simulate", "pair.json", "pair-flow.json", "--random-angles", "2", "--porcelain"], 0,
        _lines("VERDICT: property-holds reason=isometry max_defect=0.000e+00"), "", {},
    ),
    "order-porcelain": (
        ["order", "path.json", "flow.json", "--porcelain"], 0,
        _lines("VERDICT: property-holds reason=certificate"), "", {},
    ),
}


@pytest.mark.parametrize("case", list(TRANSCRIPTS.values()), ids=list(TRANSCRIPTS))
def test_golden_transcript(capsys, tmp_path, monkeypatch, case):
    """Every byte of stdout and stderr, the exit code and each written file."""
    argv, code, out, err, written = case
    monkeypatch.chdir(tmp_path)
    for name, text in TRANSCRIPT_FILES.items():
        (tmp_path / name).write_text(text)
    assert run_cli(capsys, *argv) == (code, out, err)
    for name, text in written.items():
        assert (tmp_path / name).read_text() == text
    made = {p.name for p in tmp_path.iterdir()} - set(TRANSCRIPT_FILES)
    assert made == set(written)


def test_module_entry_point(tmp_path):
    f = tmp_path / "geom.json"
    f.write_text(SIX_CYCLE_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "flowscope", "find-flow", str(f), "--porcelain"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.strip() == "VERDICT: no-flow reason=cyclic-D"


def test_cli_import_skips_numpy():
    # numpy loads only for simulate; dataclasses and the inspect module it pulls in not at all.
    check = (
        "import flowscope.cli, sys; "
        "loaded = {'numpy', 'dataclasses', 'inspect'} & sys.modules.keys(); assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
