"""The CLI's input contract, by property, across all five subcommands.

Configs and argv are drawn from typed JSON values, extremes, NaN, +-inf,
booleans, nested objects, wrong shapes and the flags a subcommand does not
take.  Whatever the input:

* the exit code is 0, 1 or 2 and nothing escapes `run_cli`;
* exit 2 prints exactly one `error:` line and nothing on stdout;
* a flag the subcommand does not take, or a config key that no subcommand
  reads, exits 2;
* exit 0/1 prints strict JSON or well-formed CSV of finite numbers, and on
  stderr one `warning:` line when a Wishart model's alpha is outside the
  Wallach set, else nothing;
* every accepted setting is used as given: `simulate` prints paths * (steps + 1)
  rows of d(d + 1)/2 state columns ending at the horizon, and each report
  carries the sample count and seed asked for;
* a dimension, step, path or sample count at or above its subcommand's limit
  exits 2, and the command body never starts.

Sizes that run stay tiny (d <= 3, steps <= 4, paths <= 3, samples <= 8): a size
is never left to its default, and the only large sizes drawn are those above a
limit, which are refused before anything runs.
"""

import contextlib
import io
import json
import math
import os
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from matrixdiff import cli
from matrixdiff.cli import run_cli
from matrixdiff.sde import in_wallach_set

FORMATS, METHODS, MODELS = ("csv", "json"), ("euler", "picard"), ("wishart", "custom")
SIZES = ("dim", "steps", "paths", "samples")
# the settings each subcommand takes, with their defaults (None: a size, always given)
TAKES = {
    "simulate": {"dim": None, "steps": None, "paths": None, "horizon": 1.0,
                 "seed": 12345, "model": "wishart", "alpha": 1.0, "method": "euler",
                 "format": "csv"},
    "verify": {"dim": None, "samples": None, "seed": 12345, "format": "json"},
    "isometry": {"dim": None, "steps": None, "paths": None, "horizon": 1.0,
                 "seed": 12345, "format": "json"},
    "picard-convergence": {"dim": None, "steps": None, "paths": None, "horizon": 1.0,
                           "seed": 12345, "model": "wishart", "alpha": 1.0, "format": "json",
                           "max_iter": 25, "stop_tol": 1e-10},
    "trace-moment": {"dim": None, "steps": None, "paths": None, "horizon": 1.0,
                     "seed": 12345, "model": "wishart", "alpha": 1.0, "format": "json"},
}
# the flags each subcommand accepted without reading them
NOT_TAKEN = {
    "simulate": ("samples",),
    "verify": ("paths", "steps", "horizon", "model", "alpha"),
    "isometry": ("samples", "model", "alpha"),
    "picard-convergence": ("samples",),
    "trace-moment": ("samples",),
}
# the first size each subcommand refuses
GRID_LIMITS = {"dim": 32, "steps": 10 ** 4}
LIMITS = {"simulate": {**GRID_LIMITS, "paths": 10 ** 4},
          "picard-convergence": {**GRID_LIMITS, "paths": 10 ** 4},
          "isometry": {**GRID_LIMITS, "paths": 10 ** 7},
          "trace-moment": {**GRID_LIMITS, "paths": 10 ** 7},
          "verify": {"dim": GRID_LIMITS["dim"], "samples": 10 ** 7}}
CHOICES = {"format": FORMATS, "method": METHODS, "model": MODELS}
INTEGERS = ("dim", "steps", "paths", "samples", "seed", "max_iter")

HOSTILE = st.sampled_from([
    None, True, False, "", "2", "abc", "nan", "inf", [], [1.0], [[1, 2], [3]], {}, {"a": 1},
    math.nan, math.inf, -math.inf, 0, -1, 0.5, 2.5, -2.0, -2 ** 63, -1e308, 5e-324, -5e-324,
])
EXTREME = st.sampled_from([1e308, -1e308, 2 ** 63 - 1, 2 ** 64, 10 ** 30, 1e-300, 5e-324])
HOSTILE_TEXT = st.sampled_from([
    "", "abc", "nan", "inf", "-inf", "1e999", "2.5", "-1", "0", "true", "null", "[1]",
    "0x10", "1e308", "a\nb",
])
EXTREME_TEXT = st.sampled_from(["18446744073709551616", "9223372036854775807", "1e-300"])
VALID = {
    "dim": st.integers(1, 3),
    "steps": st.integers(1, 4),
    "paths": st.integers(1, 3),
    "samples": st.integers(1, 8),
    "horizon": st.floats(1e-3, 10.0) | st.integers(1, 3) | st.sampled_from([5e-324, 1e300]),
    "seed": st.integers(0, 2 ** 64 - 1),
    "alpha": st.floats(-10.0, 10.0) | st.integers(0, 5) | st.sampled_from([1e300, -1e300]),
    "max_iter": st.integers(1, 5),
    "stop_tol": st.floats(5e-324, 1e308),
    **{key: st.sampled_from(choices) for key, choices in CHOICES.items()},
}
REAL = st.floats(-10.0, 10.0)
POSITIVE = st.floats(1e-3, 1e3)
KINDS = {"constant": {"value": REAL}, "clipped_sqrt": {"clip": POSITIVE},
         "clipped_affine": {"a": REAL, "b": REAL, "bound": POSITIVE}}
# config keys without a flag: isometry's operands, the model's start and coefficients
MODEL_KEYS = ("sqrt_clip_bound", "x0", *[f"{prefix}_{name}" for prefix in "gfb"
                                         for name in ("kind", "value", "clip", "a", "b", "bound")])
EXTRAS = {"isometry": ("a_matrix", "c_matrix", "x_vector", "y_vector"),
          "simulate": MODEL_KEYS, "picard-convergence": MODEL_KEYS, "trace-moment": MODEL_KEYS}
# config keys that no subcommand reads: typos, a different case, and the
# argv-only options
UNKNOWN_KEYS = st.sampled_from(["stpes", "sample", "Seed", "x_0", "g_kind ", "out", "config", ""])


def _above_limit(command, key):
    """Sizes at or above the subcommand's limit for `key`."""
    limit = LIMITS[command][key]
    return st.sampled_from([limit, limit + 1, 2 ** 63 - 1, 2 ** 64, 10 ** 30]) \
        | st.integers(limit, 2 ** 70)


def _config_value(draw, command, key, bad):
    if bad:  # a large size is drawn only above its limit, so it never runs
        if key in SIZES:
            over = _above_limit(command, key).flatmap(lambda v: st.sampled_from([v, float(v)]))
            return draw(HOSTILE | over)
        return draw(HOSTILE | EXTREME)
    value = draw(VALID[key])
    # JSON also writes an integer as an integral float
    return draw(st.sampled_from([value, float(value)])) if key in INTEGERS else value


def _flag_text(draw, command, key, bad):
    if bad:
        if key in SIZES:
            return draw(HOSTILE_TEXT | _above_limit(command, key).map(str))
        return draw(HOSTILE_TEXT | EXTREME_TEXT)
    return str(draw(VALID[key]))


def _from_text(key, text):
    """The value argparse gives a flag's text; the text itself when refused."""
    if key in CHOICES:
        return text
    try:
        return int(text) if key in INTEGERS else float(text)
    except ValueError:
        return text


@st.composite
def _matrices(draw, n, psd=False):
    """A symmetric n x n matrix, nested or flat row-major; diagonally dominant
    with a non-negative diagonal, so positive semidefinite, when `psd`."""
    entries = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            strategy = REAL if not psd else st.floats(n, 20.0) if i == j else st.floats(-1.0, 1.0)
            entries[i][j] = entries[j][i] = draw(strategy)
    return draw(st.sampled_from([entries, [v for row in entries for v in row]]))


def _extras(draw, command, s, bad) -> dict:
    """Values of the `EXTRAS` keys; a bad one is of the wrong type, extreme or of
    a wrong shape."""
    n = s["dim"] if type(s.get("dim")) is int and 1 <= s["dim"] <= 3 else 2
    extras = {}

    def put(key, valid, required=False):
        if bad(key):
            extras[key] = draw(HOSTILE | EXTREME | _matrices(n % 3 + 1))
        elif required or draw(st.booleans()):
            extras[key] = draw(valid)

    if command == "isometry":
        put("a_matrix", _matrices(n))
        put("c_matrix", _matrices(n))
        put("x_vector", st.lists(REAL, min_size=n, max_size=n))
        put("y_vector", st.lists(REAL, min_size=n, max_size=n))
    elif command in EXTRAS:
        put("sqrt_clip_bound", POSITIVE)
        put("x0", _matrices(n, psd=s.get("model") != "custom"))
        for prefix in "gfb" if s.get("model") == "custom" else "":
            kind = draw(st.sampled_from(sorted(KINDS)))
            put(f"{prefix}_kind", st.just(kind), required=True)
            for name, valid in KINDS[kind].items():
                put(f"{prefix}_{name}", valid)
    return extras


def _run(argv, env_seed):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("MATRIXDIFF_SEED", None)
        if env_seed is not None:
            os.environ["MATRIXDIFF_SEED"] = env_seed
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _refusing_to_run(command):
    """`command` with a body that fails the test if it starts."""
    _, help_text, declared = cli.SUBCOMMANDS[command]

    def run(settings, config):
        raise AssertionError(f"{command} started with {vars(settings)}")

    return mock.patch.dict(cli.SUBCOMMANDS, {command: (run, help_text, declared)})


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _csv(text, header):
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert lines[0] == ",".join(header)
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == len(header) for row in rows)
    return rows


def _finite(cell) -> float:
    value = float(cell)
    assert math.isfinite(value), cell
    return value


def _check_accepted(command, s, code, out):
    """Exit 0/1 output: well formed, and made from the settings `s` as given."""
    if command == "simulate":
        assert code == 0
        d, with_path = s["dim"], s["paths"] > 1
        columns = (["path"] if with_path else []) + ["t"]
        columns += [f"x_{i + 1}_{j + 1}" for i in range(d) for j in range(i, d)]
        if s["format"] == "json":
            doc = _strict_json(out)
            assert doc["columns"] == columns
            rows = doc["rows"]
            assert all(len(row) == len(columns) for row in rows)
        else:
            rows = [[_finite(cell) for cell in row] for row in _csv(out, columns)]
        assert len(rows) == s["paths"] * (s["steps"] + 1)
        assert rows[-1][int(with_path)] == s["horizon"]
    elif command == "picard-convergence":
        if s["format"] == "json":
            records = _strict_json(out)
            assert [rec["path_index"] for rec in records] == list(range(s["paths"]))
            for rec in records:
                assert 1 <= rec["iterations"] == len(rec["d_n"]) <= s["max_iter"]
                assert rec["converged"] is (rec["d_n"][-1] < s["stop_tol"])
            assert code == (0 if all(rec["converged"] for rec in records) else 1)
        else:
            rows = _csv(out, ["path", "iteration", "d_n"])
            assert {int(row[0]) for row in rows} == set(range(s["paths"]))
            assert all(1 <= int(row[1]) <= s["max_iter"] and _finite(row[2]) >= 0 for row in rows)
    else:
        samples = s["samples"] if command == "verify" else s["paths"]
        count = 1 if command != "verify" else 3 * (4 if s["dim"] is None else 1)
        if s["format"] == "json":
            reports = _strict_json(out)
            assert len(reports) == count
            for index, rep in enumerate(reports):
                # verify's three checks per dimension draw from seed, seed + 1, seed + 2
                offset = index % 3 if command == "verify" else 0
                assert rep["samples"] == samples and rep["details"]["seed"] == s["seed"] + offset
                if command == "verify":
                    dims = [2, 3, 5, 8] if s["dim"] is None else [s["dim"]]
                    assert rep["details"]["dim"] in dims
            passed = [rep["pass"] for rep in reports]
        else:
            rows = _csv(out, ["name", "samples", "worst_violation", "tolerance", "pass"])
            assert len(rows) == count
            assert all(int(row[1]) == samples for row in rows)
            assert all(_finite(row[2]) is not None and _finite(row[3]) >= 0 for row in rows)
            passed = [row[4] == "true" for row in rows]
        assert code == (0 if all(passed) else 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_input_contract(data, tmp_path_factory):
    draw = data.draw
    command = draw(st.sampled_from(sorted(TAKES)))
    # most inputs hold no bad value or one, so that accepted runs are drawn too
    candidates = [*TAKES[command], *EXTRAS.get(command, ()), "env", "not-taken", "unknown-key"]
    spoil = draw(st.sampled_from(["none", "one", "many"]))
    spoiled = {draw(st.sampled_from(candidates))} if spoil == "one" else set()

    def bad(key):
        return key in spoiled or spoil == "many" and draw(st.integers(0, 3)) == 0

    argv, config, effective = [command], {}, {}
    for key, default in TAKES[command].items():
        optional = default is not None or command == "verify" and key == "dim"
        source = draw(st.sampled_from(["flag", "config", "both"] + ["absent"] * optional))
        value = default
        if source in ("config", "both"):
            value = config[key] = _config_value(draw, command, key, bad(key))
            if isinstance(value, float) and key in INTEGERS and value.is_integer():
                value = int(value)
            elif isinstance(value, int) and not isinstance(value, bool) \
                    and key not in INTEGERS and key not in CHOICES:
                value = float(value)  # the CLI reads a float setting's integer as a float
        if source in ("flag", "both"):
            text = _flag_text(draw, command, key, bad(key))
            argv += ["--" + key.replace("_", "-"), text]
            value = _from_text(key, text)
        effective[key] = value
    env_seed = None
    if "seed" not in config and "--seed" not in argv and draw(st.booleans()):
        env_seed = draw(HOSTILE_TEXT | EXTREME_TEXT) if bad("env") else str(draw(VALID["seed"]))
        effective["seed"] = _from_text("seed", env_seed)
    config.update(_extras(draw, command, effective, bad))
    not_taken = draw(st.sampled_from(NOT_TAKEN[command])) if bad("not-taken") else None
    if not_taken is not None:
        argv += ["--" + not_taken, draw(HOSTILE_TEXT | st.just("2"))]
    unknown = draw(UNKNOWN_KEYS) if bad("unknown-key") else None
    if unknown is not None:
        config[unknown] = draw(HOSTILE | st.just(2))
    if config or draw(st.booleans()):
        path = tmp_path_factory.mktemp("contract") / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]

    # a size at or above its limit must be refused before the command runs
    over = [key for key, limit in LIMITS[command].items()
            if type(effective[key]) is int and effective[key] >= limit]
    with _refusing_to_run(command) if over else contextlib.nullcontext():
        code, out, err = _run(argv, env_seed)
    event(f"{command} exit {code}")

    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        return
    assert not_taken is None, f"--{not_taken} was accepted by {command}"
    assert unknown is None, f"config key {unknown!r} was accepted by {command}"
    assert err == _expected_warning(effective)
    _check_accepted(command, effective, code, out)


def _expected_warning(s):
    """The stderr of an accepted run: the Wallach warning of a Wishart model
    whose alpha is outside the set, else nothing."""
    if s.get("model") != "wishart" or in_wallach_set(float(s["alpha"]), s["dim"]):
        return ""
    return (f"warning: alpha={float(s['alpha'])} is outside the Wallach set for "
            f"d={s['dim']}; simulating anyway\n")


@pytest.mark.parametrize("command, flags", [
    (command, flag) for command, flags in NOT_TAKEN.items() for flag in flags
])
def test_flag_not_taken_exits_two(command, flags, capsys):
    value = "wishart" if flags == "model" else "2"
    assert run_cli([command, f"--{flags}", value, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"--{flags}" in captured.err


@pytest.mark.parametrize("command, key", [
    (command, key) for command, limits in LIMITS.items() for key in limits
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_size_above_its_limit_exits_two_before_running(command, key, source, tmp_path):
    limit = LIMITS[command][key]
    for value in (limit, limit + 1, 2 ** 64, 10 ** 30):
        argv = [command, "--seed", "1"]
        if source == "flag":
            argv += ["--" + key, str(value)]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({key: float(value)}))
            argv += ["--config", str(path)]
        with _refusing_to_run(command):
            code, out, err = _run(argv, None)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{key} must be below {limit}" in err
