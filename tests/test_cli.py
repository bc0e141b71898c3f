"""CLI surface: subcommands, config handling, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import matrixdiff
from matrixdiff import cli
from matrixdiff.brownian import TimeGrid
from matrixdiff.cli import SUBCOMMANDS, run_cli
from matrixdiff.sde import PathSolution


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

    def test_picard_method_that_does_not_converge_exits_two(self, tmp_path, capsys):
        # from X0 = 0 the 25th iterate still moves by 1.6e-4, far above stop_tol
        out = tmp_path / "sim.csv"
        code = run_cli(["simulate", "--alpha", "3", "--steps", "256", "--seed", "7",
                        "--method", "picard", "--out", str(out)])
        assert code == 2 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        head, last = captured.err.split(" = ")
        assert head == "error: Picard iteration did not converge on path 0: d_25"
        assert last.endswith("\n") and "\n" not in last[:-1] and float(last) > 1e-10

    @pytest.mark.parametrize("method", ["euler", "picard"])
    def test_start_whose_double_overflows(self, method, tmp_path):
        # 1e308 I is PSD with a finite norm in three dimensions, though
        # 1e308 + 1e308 overflows; the state stays near it
        cfg = _write_config(tmp_path, {"x0": [1e308, 0, 0, 0, 1e308, 0, 0, 0, 1e308],
                                       "sqrt_clip_bound": 10})
        code, raw = run_to_file(tmp_path, "sim.csv", [
            "simulate", "--dim", "3", "--alpha", "4", "--steps", "4", "--paths", "2",
            "--seed", "1", "--method", method, "--config", str(cfg),
        ])
        assert code == 0
        rows = [line.split(",")[2:] for line in raw.decode().splitlines()[1:]]
        values = np.array([[float(v) for v in row] for row in rows])
        assert np.isfinite(values).all() and (values[:, [0, 3, 5]] > 9e307).all()

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

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        # a typo used to run silently on the default: 256 steps, exit 0
        cfg = _write_config(tmp_path, {"stpes": 3, "x0": [16, 0, 0, 16]})
        for command in SUBCOMMANDS:
            assert run_cli([command, "--seed", "1", "--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: unknown config key 'stpes': no subcommand reads it\n"

    def test_config_key_given_twice_exits_two(self, tmp_path, capsys):
        # json lets the last value win: this used to run 3 steps, exit 0
        cfg = tmp_path / "dup.json"
        cfg.write_text('{"steps": 2, "steps": 3}')
        for command in SUBCOMMANDS:
            assert run_cli([command, "--seed", "1", "--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: config key 'steps' is given twice\n"

    def test_one_config_serves_every_subcommand(self, tmp_path, capsys):
        # each key is read by some subcommand, so none is refused, and a
        # subcommand ignores the keys of the others
        cfg = _write_config(tmp_path, {"x0": [16, 0, 0, 16], "sqrt_clip_bound": 10, "steps": 4,
                                       "paths": 2, "samples": 8, "max_iter": 25, "method": "euler",
                                       "x_vector": [0, 1], "a_matrix": [1, 0, 0, 2]})
        for command in SUBCOMMANDS:
            assert run_cli([command, "--seed", "1", "--config", str(cfg)]) in (0, 1)
            captured = capsys.readouterr()
            assert captured.out and captured.err == ""

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

    def test_env_seed_not_an_integer_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("MATRIXDIFF_SEED", "abc")
        assert run_cli(["simulate", "--dim", "2", "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be an integer, got 'abc'\n"

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
        ["simulate", "--horizon", "inf", "--steps", "4"],
        # Monte Carlo statistics that overflow decide nothing
        *[[command, "--horizon", "1e200", "--paths", "200", "--steps", "8", "--format", fmt]
          for command in ("trace-moment", "isometry") for fmt in ("csv", "json")],
        # settings with no defined answer, and a newline inside a quoted value
        ["simulate", "--horizon", "nan", "--steps", "4"],
        ["simulate", "--alpha", "nan", "--steps", "4"],
        ["trace-moment", "--alpha", "inf", "--paths", "8", "--steps", "4"],
        ["picard-convergence", "--max-iter", "0", "--steps", "4"],
        ["picard-convergence", "--stop-tol", "nan", "--steps", "4"],
        ["picard-convergence", "--stop-tol", "0", "--steps", "4"],
        ["simulate", "--dim", "2.7", "--steps", "4"],
        ["simulate", "--steps", "4", "--out", "a\nb", "--config", "missing\n.json"],
        # sizes far above their limits
        ["simulate", "--steps", "1000000000000000"],
        ["simulate", "--dim", "100000000"],
        ["verify", "--dim", "100000000", "--samples", "1"],
    ])
    def test_exit_two_with_one_line(self, argv, capsys):
        assert run_cli(argv + (["--seed", "1"] if "--seed" not in argv else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "4", "--alpha", "0.5"],  # its Wallach warning is not printed
        ["verify", "--dim", "2", "--samples", "8"],
        ["isometry", "--paths", "8", "--steps", "4"],
        ["picard-convergence", "--steps", "4"],
        ["trace-moment", "--paths", "8", "--steps", "4"],
    ])
    @pytest.mark.parametrize("target", ["missing/out.txt", "."])
    def test_an_out_that_cannot_be_written_exits_two(self, argv, target, tmp_path, capsys):
        out = tmp_path / target  # in a directory that does not exist, or a directory
        assert run_cli(argv + ["--seed", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_an_allocation_that_fails_exits_two(self, monkeypatch, capsys):
        # sizes below their limits may still not fit in memory together
        def refuse(*args):
            raise MemoryError("Unable to allocate 157. GiB")

        monkeypatch.setattr("matrixdiff.cli.run_inequality_suite", refuse)
        assert run_cli(["verify", "--dim", "31", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: Unable to allocate 157. GiB\n")

    @pytest.mark.parametrize("key", ["dim", "alpha", "g_value", "steps", "seed",
                                     "format", "method", "model"])
    def test_null_setting_exits_two(self, key, tmp_path, capsys):
        payload = {"model": "custom", "g_kind": "constant", "f_kind": "constant",
                   "b_kind": "constant"} if key == "g_value" else {}
        cfg = _write_config(tmp_path, {**payload, key: None})
        assert run_cli(["simulate", "--config", str(cfg)]
                       + (["--seed", "1"] if key != "seed" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be") and captured.err.count("\n") == 1
        assert captured.err.endswith(" got null\n")

    @pytest.mark.parametrize("command, key, value", [
        *[(command, "format", "xml") for command in
          ["simulate", "verify", "isometry", "picard-convergence", "trace-moment"]],
        ("simulate", "method", "rk4"),
        ("picard-convergence", "model", "heston"),
        # quoted as the JSON the config holds, not as Python spells it
        ("simulate", "method", None),
        ("trace-moment", "model", True),
        ("isometry", "format", "16"),
    ])
    def test_unknown_choice_exits_two(self, command, key, value, tmp_path, capsys):
        cfg = _write_config(tmp_path, {key: value})
        sizes = ["--samples", "8"] if command == "verify" else ["--steps", "4", "--paths", "2"]
        assert run_cli([command, "--config", str(cfg), "--seed", "1"] + sizes) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be one of ")
        assert captured.err.endswith(f"; got {json.dumps(value)}\n") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, text", [
        # matrices and vectors of the wrong JSON type
        ("isometry", '{"a_matrix": {}}'),
        ("isometry", '{"c_matrix": [[1, 0], [0]]}'),
        ("isometry", '{"x_vector": {"a": 1}}'),
        ("isometry", '{"x_vector": "abc"}'),
        ("isometry", '{"y_vector": [null, 1]}'),
        ("simulate", '{"x0": {"a": 1}}'),
        ("trace-moment", '{"x0": [[1, 0], {}]}'),
        # matrices and vectors with entries that are no numbers
        ("simulate", '{"x0": ["16", "0", "0", true]}'),
        ("simulate", '{"x0": [16, 0, 0, true]}'),
        ("trace-moment", '{"x0": [[1, false], [false, 1]]}'),
        ("isometry", '{"a_matrix": [1, 0, 0, "2"]}'),
        ("isometry", '{"c_matrix": [[1, 0], [0, true]]}'),
        ("isometry", '{"x_vector": [true, 0]}'),
        ("isometry", '{"y_vector": ["0", "1"]}'),
        # a null matrix, which is no default
        ("simulate", '{"x0": null}'),
        ("isometry", '{"a_matrix": null}'),
        ("isometry", '{"c_matrix": null}'),
        # integers that are not integral, booleans, strings
        ("simulate", '{"dim": 2.7}'),
        ("simulate", '{"steps": true}'),
        ("simulate", '{"dim": "2"}'),
        ("verify", '{"samples": 8.5}'),
        ("trace-moment", '{"seed": "7"}'),
        ("picard-convergence", '{"max_iter": 2.5}'),
        # numbers that are strings or not finite; json reads 1e999 as inf
        ("simulate", '{"horizon": "1"}'),
        ("simulate", '{"horizon": 1e999}'),
        ("trace-moment", '{"alpha": NaN}'),
        ("simulate", '{"sqrt_clip_bound": 1e999}'),
        ("simulate", '{"model": "custom", "g_kind": "clipped_sqrt", "g_clip": "inf", '
                     '"f_kind": "constant", "b_kind": "constant"}'),
        ("simulate", '{"model": "custom", "g_kind": "clipped_sqrt", "g_clip": 1e999, '
                     '"f_kind": "constant", "b_kind": "constant"}'),
        ("simulate", '{"model": "custom", "g_kind": "constant", "f_kind": "constant", '
                     '"b_kind": "clipped_affine", "b_bound": 1e999}'),
        # Picard settings with no defined answer
        ("picard-convergence", '{"max_iter": 0}'),
        ("picard-convergence", '{"stop_tol": "nan"}'),
        ("picard-convergence", '{"stop_tol": -1e-10}'),
        ("picard-convergence", '{"stop_tol": 1e999}'),
        # JSON that is no object, or nested deeper than the interpreter stack
        ("simulate", "[1]"),
        pytest.param("simulate", "[" * 100000, id="simulate-100000-nested-arrays"),
        # a number too large for a float, a vector of the wrong length
        pytest.param("simulate", '{"alpha": 1' + "0" * 400 + "}", id="simulate-alpha-401-digits"),
        ("isometry", '{"x_vector": [1, 0, 0]}'),
        # Monte Carlo values equal on every path: a standard error of 0 certifies nothing
        ("isometry", '{"x_vector": [0, 0]}'),
        ("isometry", '{"a_matrix": [0, 0, 0, 0]}'),
        # matrices whose asymmetry M - M^T overflows
        ("isometry", '{"a_matrix": [0, 1e308, -1e308, 0]}'),
        ("simulate", '{"x0": [0, 1e308, -1e308, 0]}'),
        # starts whose norm overflows: 1e308 (I_5 + 1e-3 e_1 e_2^T) is not
        # symmetric, and 1e308 diag(1, 1, 1, 1, -1) is no Wishart start
        ("simulate", json.dumps({"dim": 5, "x0": [[1e308 if i == j else 1e305 if (i, j) == (0, 1)
                                                  else 0.0 for j in range(5)] for i in range(5)]})),
        ("simulate", json.dumps({"dim": 5, "x0": np.diag([1e308] * 4 + [-1e308]).tolist()})),
    ])
    def test_refused_config_value_exits_two(self, command, text, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        sizes = {"samples": "8"} if command == "verify" else {"steps": "4", "paths": "2"}
        flags = [arg for key, value in sizes.items() if f'"{key}"' not in text
                 for arg in (f"--{key}", value)]  # a flag would override the config
        assert run_cli([command, "--config", str(cfg)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("text, tail", [
        ('{"x0": null}', "got null"),
        ('{"y_vector": [null, 1]}', "got [null, 1]"),
        ('{"x0": [16, 0, 0, true]}', "got [16, 0, 0, true]"),
        ('{"dim": true}', "got true"),
        ('{"dim": "16"}', 'got "16"'),
        ('{"alpha": NaN}', "got NaN"),
        ('{"g_kind": "sqrt", "model": "custom"}', 'got "sqrt"'),
    ])
    def test_refused_config_value_quoted_as_written(self, text, tail, tmp_path, capsys):
        command = "isometry" if "vector" in text else "simulate"
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert run_cli([command, "--config", str(cfg), "--steps", "4", "--paths", "2"]) == 2
        assert capsys.readouterr().err.endswith(f" {tail}\n")

    def test_refused_flag_value_keeps_python_spelling(self, capsys):
        assert run_cli(["simulate", "--horizon", "inf", "--steps", "4"]) == 2
        assert capsys.readouterr().err == "error: horizon must be a finite number, got inf\n"

    def test_config_value_nested_past_the_encoder_keeps_python_spelling(self, tmp_path,
                                                                         monkeypatch, capsys):
        # a value that json reads from the top of the stack may nest deeper
        # than json can write it back from a parser several calls down
        def too_deep(value):
            raise RecursionError("maximum recursion depth exceeded while encoding a JSON object")

        cfg = _write_config(tmp_path, {"x0": [None]})
        monkeypatch.setattr("matrixdiff.cli.json.dumps", too_deep)
        assert run_cli(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: x0 must be an array of numbers, got [None]\n"

    @pytest.mark.parametrize("scale", [1e-150, 1e-12, 1e-11, 1.0, 1e150])
    @pytest.mark.parametrize("start", [[-1.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, -1.0]])
    def test_wishart_start_outside_the_cone_exits_two(self, start, scale, tmp_path, capsys):
        # the PSD rule is relative to the start's own scale: 1e-11 below the
        # cone is far outside it for a start of norm 1e-11
        cfg = _write_config(tmp_path, {"x0": [scale * v for v in start]})
        assert run_cli(["simulate", "--steps", "4", "--seed", "1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: initial state must be positive semidefinite for this model\n"

    @pytest.mark.parametrize("command", ["simulate", "trace-moment"])
    def test_integral_float_is_its_integer(self, command, tmp_path, capsys):
        argv = [command, "--seed", "3", "--paths", "2", "--config"]
        code = run_cli(argv + [str(_write_config(tmp_path, {"dim": 2, "steps": 4}))])
        as_int = capsys.readouterr()
        assert code in (0, 1) and as_int.out
        assert run_cli(argv + [str(_write_config(tmp_path, {"dim": 2.0, "steps": 4.0}))]) == code
        assert capsys.readouterr() == as_int

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


# Doubles whose shortest spelling needs fewer than 17 digits, or an exponent:
# a negative zero, the least subnormal, the largest double, a tiny negative, an
# integral 16 (printed 16) and 0.1.
_CSV_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1e-300, 16.0, 0.1]


def _cell_rows(solutions, grid, dim):
    """The CSV rows of states, one `_cell` per value."""
    with_path = len(solutions) > 1
    rows = []
    for index, sol in enumerate(solutions):
        for t, state in zip(grid.times.tolist(), sol.states):
            cells = ([index] if with_path else []) + [t]
            cells += [float(state[i, j]) for i in range(dim) for j in range(i, dim)]
            rows.append(",".join(cli._cell(value) for value in cells))
    return rows


class TestStatesCsv:
    @pytest.mark.parametrize("paths", [1, 3])
    def test_rows_are_the_cell_rendering(self, paths):
        grid = TimeGrid(0.3, 2)
        solutions = []
        for index in range(paths):
            # each value on and off the diagonal, in another place on each path
            values = np.roll(_CSV_VALUES * 2, index)[:3 * (grid.steps + 1)].reshape(-1, 3)
            states = np.array([[[a, b], [b, c]] for a, b, c in values])
            solutions.append(PathSolution(grid, states))
        header = ("path," if paths > 1 else "") + "t,x_1_1,x_1_2,x_2_2"
        text = cli._states_text(solutions, grid, 2, "csv")
        assert text == "\n".join([header] + _cell_rows(solutions, grid, 2)) + "\n"
        cells = set(",".join(text.splitlines()[1:]).split(","))
        assert {cli._cell(value) for value in _CSV_VALUES} <= cells and "16" in cells


def _stdout(capsys, argv):
    code = run_cli(argv)
    return code, capsys.readouterr().out


def _fresh_process(argv):
    """Exit code, stdout and stderr of argv run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(matrixdiff.__file__))
    env = {key: value for key, value in os.environ.items() if key != "MATRIXDIFF_SEED"}
    done = subprocess.run([sys.executable, "-m", "matrixdiff.cli", *argv], capture_output=True,
                          text=True, env=dict(env, PYTHONPATH=src), timeout=120)
    return done.returncode, done.stdout, done.stderr


class TestOneParserPerProcess:
    """The parser is built once per process; no call's flags reach the next."""

    SIMULATE = ["simulate", "--dim", "2", "--steps", "4", "--paths", "2"]

    def test_seed_of_one_call_does_not_stay(self, capsys, monkeypatch):
        monkeypatch.delenv("MATRIXDIFF_SEED", raising=False)
        seeded = _stdout(capsys, self.SIMULATE + ["--seed", "5"])
        default = _stdout(capsys, self.SIMULATE)
        assert default == _stdout(capsys, self.SIMULATE + ["--seed", str(cli.DEFAULT_SEED)])
        assert default != seeded
        monkeypatch.setenv("MATRIXDIFF_SEED", "7")
        _stdout(capsys, self.SIMULATE + ["--seed", "5"])
        assert _stdout(capsys, self.SIMULATE) == _stdout(capsys, self.SIMULATE + ["--seed", "7"])

    def test_refused_flag_and_help_leave_the_parser_as_it_was(self, capsys):
        argv = self.SIMULATE + ["--seed", "3"]
        before = _stdout(capsys, argv)
        assert before[0] == 0
        assert run_cli(argv + ["--no-such-flag", "1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert _stdout(capsys, argv) == before
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--help"])
        assert exc.value.code == 0 and "--method" in capsys.readouterr().out
        assert _stdout(capsys, argv) == before

    def test_back_to_back_subcommands_match_fresh_processes(self, capsys):
        argvs = [self.SIMULATE + ["--format", "json", "--seed", "4"],
                 ["picard-convergence", "--steps", "8", "--format", "csv", "--seed", "4"]]
        in_process = [_stdout(capsys, argv) for argv in argvs]
        assert in_process == [_fresh_process(argv)[:2] for argv in argvs]


class TestWallachWarning:
    """An alpha outside the Wallach set is one `warning:` line on every run
    that exits 0 or 1, in process or not; a run that exits 2 prints its
    `error:` line alone.  The library's `WallachSetWarning` stays."""

    LINE = "warning: alpha=0.5 is outside the Wallach set for d=2; simulating anyway\n"

    @pytest.mark.parametrize("argv, code", [
        (["simulate", "--alpha", "0.5", "--steps", "4"], 0),
        (["picard-convergence", "--alpha", "0.5", "--steps", "4", "--max-iter", "1"], 1),
    ])
    def test_every_run_prints_the_same_line(self, argv, code, capsys):
        argv = argv + ["--seed", "1"]
        runs = []
        for _ in range(2):
            runs.append((run_cli(argv), *capsys.readouterr()))
        fresh = _fresh_process(argv)
        assert runs[0] == runs[1] == fresh
        assert fresh[0] == code and fresh[1] and fresh[2] == self.LINE

    def test_a_run_that_exits_two_prints_its_error_alone(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"x0": [1.0, 0.0, 0.0, -1.0]})
        argv = ["simulate", "--alpha", "0.5", "--steps", "4", "--seed", "1", "--config", str(cfg)]
        assert run_cli(argv) == 2
        assert capsys.readouterr() == (
            "", "error: initial state must be positive semidefinite for this model\n")
