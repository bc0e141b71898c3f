"""CLI surface: subcommands, config handling, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import matrixdiff
from matrixdiff.cli import run_cli


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run_cli(argv + ["--out", str(out)])
    return code, out.read_bytes()


class TestSimulate:
    def test_csv_shape_single_path(self, tmp_path):
        code, raw = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--model", "wishart", "--dim", "2", "--alpha", "3",
            "--steps", "256", "--horizon", "1", "--paths", "1", "--seed", "7",
        ])
        assert code == 0
        lines = raw.decode().splitlines()
        assert lines[0] == "t,x_1_1,x_1_2,x_2_2"
        assert len(lines) == 1 + 257
        assert all(len(line.split(",")) == 4 for line in lines[1:])
        assert b"\r" not in raw

    def test_csv_floats_round_trip(self, tmp_path):
        code, raw = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--dim", "2", "--steps", "8", "--seed", "3",
        ])
        assert code == 0
        rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
        values = np.array([[float(v) for v in row] for row in rows])
        # 17 significant digits reproduce float64 exactly
        assert values[0, 0] == 0.0
        assert values[-1, 0] == 1.0

    def test_multi_path_gains_path_column(self, tmp_path):
        code, raw = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--dim", "2", "--steps", "4", "--paths", "3", "--seed", "5",
        ])
        assert code == 0
        lines = raw.decode().splitlines()
        assert lines[0].startswith("path,t,")
        assert len(lines) == 1 + 3 * 5

    def test_json_format(self, tmp_path):
        code, raw = run_to_file(tmp_path, "sim.json", [
            "simulate", "--dim", "2", "--steps", "4", "--seed", "5", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(raw)
        assert doc["columns"] == ["t", "x_1_1", "x_1_2", "x_2_2"]
        assert len(doc["rows"]) == 5

    def test_picard_method(self, tmp_path):
        code, raw = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--dim", "2", "--steps", "16", "--seed", "5",
            "--method", "picard", "--config", str(_write_config(tmp_path, {"x0": [9.0, 0.0, 0.0, 9.0]})),
        ])
        assert code == 0
        assert len(raw.decode().splitlines()) == 18

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["simulate", "--dim", "2", "--steps", "32", "--paths", "2", "--seed", "11"]
        _, first = run_to_file(tmp_path, "a.csv", argv)
        _, second = run_to_file(tmp_path, "b.csv", argv)
        assert first == second


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestVerify:
    def test_single_dim_report(self, tmp_path):
        code, raw = run_to_file(tmp_path, "verify.json", [
            "verify", "--dim", "3", "--samples", "500", "--seed", "42",
        ])
        assert code == 0
        reports = json.loads(raw)
        assert [rep["name"] for rep in reports] == ["inq2", "inq_nice", "prop_cauchy"]
        for rep in reports:
            assert set(rep) >= {"name", "samples", "worst_violation", "pass"}
            assert rep["pass"] is True

    def test_csv_format(self, tmp_path):
        code, raw = run_to_file(tmp_path, "verify.csv", [
            "verify", "--dim", "2", "--samples", "200", "--seed", "1", "--format", "csv",
        ])
        assert code == 0
        lines = raw.decode().splitlines()
        assert lines[0] == "name,samples,worst_violation,tolerance,pass"
        assert len(lines) == 4


class TestOtherCommands:
    def test_isometry(self, tmp_path):
        code, raw = run_to_file(tmp_path, "iso.json", [
            "isometry", "--dim", "2", "--paths", "2000", "--steps", "4", "--seed", "3",
        ])
        assert code == 0
        rep = json.loads(raw)[0]
        assert rep["name"] == "mc_isometry"
        assert rep["pass"] is True

    def test_picard_convergence_json(self, tmp_path):
        cfg = _write_config(tmp_path, {"x0": [16.0, 0.0, 0.0, 16.0], "sqrt_clip_bound": 10.0})
        code, raw = run_to_file(tmp_path, "pic.json", [
            "picard-convergence", "--dim", "2", "--alpha", "3", "--steps", "128",
            "--paths", "2", "--seed", "9", "--config", str(cfg),
        ])
        assert code == 0
        records = json.loads(raw)
        assert len(records) == 2
        for rec in records:
            assert rec["converged"] is True
            assert len(rec["d_n"]) == rec["iterations"]
            assert rec["rate_fit"] is not None and rec["rate_fit"]["beta"] > 0

    def test_picard_convergence_csv(self, tmp_path):
        cfg = _write_config(tmp_path, {"x0": [16.0, 0.0, 0.0, 16.0], "sqrt_clip_bound": 10.0})
        code, raw = run_to_file(tmp_path, "pic.csv", [
            "picard-convergence", "--dim", "2", "--alpha", "3", "--steps", "64",
            "--seed", "9", "--format", "csv", "--config", str(cfg),
        ])
        assert code == 0
        lines = raw.decode().splitlines()
        assert lines[0] == "path,iteration,d_n"
        assert len(lines) > 3

    def test_trace_moment(self, tmp_path):
        code, raw = run_to_file(tmp_path, "trace.json", [
            "trace-moment", "--dim", "2", "--alpha", "3", "--steps", "64",
            "--paths", "2000", "--seed", "4",
        ])
        assert code == 0
        rep = json.loads(raw)[0]
        assert rep["name"] == "trace_moment"
        assert abs(rep["details"]["expected"] - 6.0) < 1e-12


class TestConfigHandling:
    def test_custom_model_from_config(self, tmp_path):
        cfg = _write_config(tmp_path, {
            "model": "custom",
            "g_kind": "constant", "g_value": 0.5,
            "f_kind": "constant", "f_value": 1.0,
            "b_kind": "clipped_affine", "b_a": -0.5, "b_b": 1.0, "b_bound": 10.0,
            "x0": [1.0, 0.0, 0.0, 1.0],
        })
        code, raw = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--dim", "2", "--steps", "8", "--seed", "2", "--config", str(cfg),
        ])
        assert code == 0
        assert len(raw.decode().splitlines()) == 10

    def test_flag_overrides_config(self, tmp_path):
        cfg = _write_config(tmp_path, {"steps": 4})
        code, raw = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--dim", "2", "--steps", "8", "--seed", "2", "--config", str(cfg),
        ])
        assert code == 0
        assert len(raw.decode().splitlines()) == 10  # flag value 8 wins

    def test_config_value_used_when_flag_absent(self, tmp_path):
        cfg = _write_config(tmp_path, {"steps": 4})
        code, raw = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--dim", "2", "--seed", "2", "--config", str(cfg),
        ])
        assert code == 0
        assert len(raw.decode().splitlines()) == 6

    def test_missing_config_file_exits_two(self):
        assert run_cli(["simulate", "--config", "/nonexistent/config.json"]) == 2

    def test_malformed_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["simulate", "--config", str(bad)]) == 2

    def test_bad_custom_model_exits_two(self, tmp_path):
        cfg = _write_config(tmp_path, {"model": "custom", "g_kind": "mystery"})
        assert run_cli(["simulate", "--dim", "2", "--config", str(cfg)]) == 2

    def test_bad_x0_shape_exits_two(self, tmp_path):
        cfg = _write_config(tmp_path, {"x0": [1.0, 2.0, 3.0]})
        assert run_cli(["simulate", "--dim", "2", "--config", str(cfg)]) == 2

    def test_invalid_parameter_exits_two(self, capsys):
        assert run_cli(["simulate", "--dim", "0", "--seed", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MATRIXDIFF_SEED", "77")
        _, via_env = run_to_file(tmp_path, "env.csv", ["simulate", "--dim", "2", "--steps", "8"])
        monkeypatch.delenv("MATRIXDIFF_SEED")
        _, via_flag = run_to_file(tmp_path, "flag.csv",
                                  ["simulate", "--dim", "2", "--steps", "8", "--seed", "77"])
        assert via_env == via_flag

    def test_stdout_output(self, capsys):
        code = run_cli(["simulate", "--dim", "2", "--steps", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("t,x_1_1")


class TestDegenerateInputs:
    @pytest.mark.parametrize("argv", [
        ["verify", "--samples", "0", "--dim", "2"],
        ["trace-moment", "--paths", "0", "--steps", "4"],
        ["trace-moment", "--paths", "1", "--steps", "4"],
        ["isometry", "--paths", "0", "--steps", "4"],
        ["isometry", "--paths", "1", "--steps", "4"],
        ["trace-moment", "--paths", "8", "--steps", "4", "--seed", "-1"],
        ["isometry", "--paths", "8", "--steps", "4", "--seed", str(2 ** 64)],
        ["verify", "--dim", "0", "--samples", "8"],
        ["isometry", "--dim", "0", "--paths", "8", "--steps", "4"],
        ["picard-convergence", "--paths", "0", "--steps", "4"],
        ["picard-convergence", "--paths", "-3", "--steps", "4"],
        ["simulate", "--paths", "0", "--steps", "4"],
    ])
    def test_exit_two_with_one_line(self, argv, capsys):
        assert run_cli(argv + (["--seed", "1"] if "--seed" not in argv else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("key", ["dim", "alpha", "g_value", "steps", "seed"])
    def test_null_setting_exits_two(self, key, tmp_path, capsys):
        payload = {"model": "custom", "g_kind": "constant", "f_kind": "constant",
                   "b_kind": "constant"} if key == "g_value" else {}
        cfg = _write_config(tmp_path, {**payload, key: None})
        assert run_cli(["simulate", "--config", str(cfg)]
                       + (["--seed", "1"] if key != "seed" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be") and captured.err.count("\n") == 1

    def test_non_finite_states_exit_two(self, tmp_path, capsys):
        argv = _overflow_argv(tmp_path)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_non_finite_states_one_line_in_a_real_process(self, tmp_path):
        # pytest collects numpy's RuntimeWarnings in process; a real run
        # prints them to stderr unless the CLI silences them
        src = os.path.dirname(os.path.dirname(matrixdiff.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "matrixdiff.cli", *_overflow_argv(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _overflow_argv(tmp_path):
    # a constant drift of 1e308 overflows the state to inf within a few steps
    cfg = _write_config(tmp_path, {
        "model": "custom", "g_kind": "constant", "g_value": 0.0,
        "f_kind": "constant", "f_value": 0.0, "b_kind": "constant", "b_value": 1e308,
        "x0": [1e308, 0.0, 0.0, 1e308],
    })
    return ["simulate", "--dim", "2", "--steps", "8", "--seed", "1", "--format", "json",
            "--config", str(cfg)]
