"""End-to-end command line behaviour: exit codes and verdict lines."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from flowscope.cli import main

from .conftest import SIX_CYCLE_TEXT


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
        data = json.loads(open(extremal_file).read())
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

    def test_budget_option_removed(self, capsys, path_file):
        with pytest.raises(SystemExit) as exc:
            main(["find-flow", path_file, "--budget", "0"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_six_cycle_names_obstruction(self, capsys, six_cycle_file):
        code, out, _ = run_cli(capsys, "find-flow", six_cycle_file)
        assert code == 1
        assert "obstruction: a0 a1 a2" in out.splitlines()

    def test_oracle_mode(self, capsys, six_cycle_file, path_file):
        code, out, _ = run_cli(capsys, "find-flow", six_cycle_file, "--oracle")
        assert code == 1
        assert verdict_line(out) == "VERDICT: no-flow reason=oracle"
        code, out, _ = run_cli(capsys, "find-flow", path_file, "--oracle")
        assert code == 0

    def test_oracle_bound_env_override(self, capsys, tmp_path, monkeypatch):
        labels = [f"n{i}" for i in range(11)]
        payload = {
            "vertices": labels,
            "edges": [[labels[i], labels[i + 1]] for i in range(10)],
            "inputs": [labels[0]],
            "outputs": [labels[10]],
        }
        f = tmp_path / "eleven.json"
        f.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "find-flow", str(f), "--oracle")
        assert code == 2
        assert "oracle bound" in err
        monkeypatch.setenv("FLOWSCOPE_ORACLE_BOUND", "11")
        code, out, _ = run_cli(capsys, "find-flow", str(f), "--oracle")
        assert code == 0

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
    proc = subprocess.run(
        [sys.executable, "-c", "import flowscope.cli, sys; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
