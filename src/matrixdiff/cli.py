"""Command-line harness: simulation runs and verification suites.

Subcommands
-----------
simulate            solve the SDE on sampled paths and dump states as CSV/JSON
verify              run the operator-inequality suites, emit JSON reports
isometry            Monte Carlo second-moment identity check
picard-convergence  per-iteration distance table and contraction rate fit
trace-moment        Wishart mean-trace identity check

`SUBCOMMANDS` declares each subcommand's settings once; its flags and its
resolver both come from that declaration.  A setting is taken from its flag,
else the flat JSON config file (--config), else its default; the seed falls
back to the MATRIXDIFF_SEED environment variable before its default.  One
config file may serve several subcommands, so it may hold any key that some
subcommand reads, and a key that none reads, or one given twice, is refused.
Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad
configuration or an --out that cannot be written.  Output is deterministic
byte for byte under a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from .brownian import TimeGrid, sample_path
from .checks import mc_isometry, mc_trace_moment, run_inequality_suite
from .sde import SdeModel, WallachSetWarning, euler_solve_paths, picard_solve, wishart_model
from .symmat import (
    EigensolverError,
    ScalarFunctionSpec,
    SymmetricMatrix,
    clipped_affine_fn,
    clipped_sqrt_fn,
    constant_fn,
)

DEFAULT_SEED = 12345
_FORMATS = ("csv", "json")
_METHODS = ("euler", "picard")
_MODELS = ("wishart", "custom")


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors (an unknown flag, a flag value of the wrong type) are a
    `ConfigError` like any other bad setting: one `error:` line, exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; `json` alone lets a repeated key's last value win."""
    cfg = {}
    for key, value in pairs:
        if key in cfg:
            raise ConfigError(f"config key {key!r} is given twice")
        cfg[key] = value
    return cfg


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # nested deeper than the stack
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    read = _CONFIG_ONLY_KEYS.union(*(declared for *_, declared in SUBCOMMANDS.values()))
    unknown = sorted(set(cfg) - read)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}: no subcommand reads it")
    return cfg


def _json(value) -> str:
    """A config value spelled as the JSON it was written in, or as Python
    spells it where it nests deeper than the encoder can reach from here."""
    try:
        return json.dumps(value)
    except RecursionError:
        return repr(value)


def _take(key: str, value, kind, low=None, high=None, spell=_json):
    """`value` of setting `key` as given, or a `ConfigError` quoting it by `spell`:
    a member of the tuple `kind`, or a number that is no bool or string,
    integral for `int`, finite for `float`, and in [low, high)."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}; got {spell(value)}")
        return value
    refused = ConfigError(f"{key} must be {'an integer' if kind is int else 'a finite number'}, "
                          f"got {spell(value)}")
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or kind is int and isinstance(value, float) and not value.is_integer():
        raise refused
    try:
        value = kind(value)
    except OverflowError as exc:  # an int too large for a float
        raise refused from exc
    if kind is float and not math.isfinite(value):
        raise refused
    if low is not None and value < low:
        raise ConfigError(f"{key} must be at least {low}, got {value}")
    if high is not None and value >= high:
        raise ConfigError(f"{key} must be below {high}, got {value}")
    return value


def _settings(declared: dict, args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """Every declared setting from its flag, else the config, else (the seed
    only) MATRIXDIFF_SEED, else its default, each checked by `_take`; plus the
    time grid of a subcommand that declares one."""
    settings = argparse.Namespace()
    for key, (kind, default, *bounds) in declared.items():
        value, spell = getattr(args, key), repr  # a flag value as Python parsed it
        if value is None and key in config:
            value, spell = config[key], _json
        elif value is None and key == "seed" and "MATRIXDIFF_SEED" in os.environ:
            try:
                value = int(os.environ["MATRIXDIFF_SEED"])
            except ValueError as exc:
                raise ConfigError(f"seed must be an integer, got "
                                  f"{os.environ['MATRIXDIFF_SEED']!r}") from exc
        elif value is None:
            setattr(settings, key, default)
            continue
        setattr(settings, key, _take(key, value, kind, *bounds, spell=spell))
    if "steps" in declared:
        settings.grid = TimeGrid(horizon=settings.horizon, steps=settings.steps)
    return settings


def _float_array(obj, what: str) -> np.ndarray:
    """A number or a (nested) array of numbers as floats, or a `ConfigError`: a
    bool, string, null or object entry is refused, as `_take` refuses it."""
    try:
        pending = [obj]  # walked without recursion: JSON nests deeper than the stack
        while pending:
            value = pending.pop()
            if isinstance(value, list):
                pending.extend(value)
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"not a number: {value!r}")
        return np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # not a number, ragged, too large
        raise ConfigError(f"{what} must be an array of numbers, got {_json(obj)}") from exc


def _parse_matrix(obj, dim: int, what: str) -> np.ndarray:
    arr = _float_array(obj, what)
    if arr.ndim == 1 and arr.size == dim * dim:
        arr = arr.reshape(dim, dim)
    if arr.shape != (dim, dim):
        raise ConfigError(f"{what} must be a row-major array of {dim * dim} numbers")
    return arr


def _parse_vector(obj, dim: int, what: str) -> np.ndarray:
    arr = _float_array(obj, what).reshape(-1)
    if arr.size != dim:
        raise ConfigError(f"{what} must have {dim} entries")
    return arr


# Each coefficient kind of a custom model: its factory, and the parameters it
# takes in order, each read from the config key <prefix>_<name> or its default.
_COEFFICIENT_KINDS = {
    "constant": (constant_fn, {"value": 0.0}),
    "clipped_sqrt": (clipped_sqrt_fn, {"clip": 1e6}),
    "clipped_affine": (clipped_affine_fn, {"a": 1.0, "b": 0.0, "bound": 1e6}),
}


def _scalar_spec(config: dict, prefix: str) -> ScalarFunctionSpec:
    kind = _take(f"{prefix}_kind", config.get(f"{prefix}_kind"), tuple(_COEFFICIENT_KINDS))
    factory, params = _COEFFICIENT_KINDS[kind]
    return factory(*(_take(f"{prefix}_{name}", config.get(f"{prefix}_{name}", default), float)
                     for name, default in params.items()))


def _build_model(settings, config: dict) -> SdeModel:
    dim = settings.dim
    clip = _take("sqrt_clip_bound", config.get("sqrt_clip_bound", 1e6), float)
    x0 = SymmetricMatrix(_parse_matrix(config["x0"], dim, "x0")) if "x0" in config else None
    if settings.model == "wishart":
        return wishart_model(dim, settings.alpha, x0=x0, sqrt_clip_bound=clip)
    return SdeModel(*(_scalar_spec(config, prefix) for prefix in "gfb"),
                    x0=SymmetricMatrix.zeros(dim) if x0 is None else x0)


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _render(fmt: str, columns: list, rows, json_doc) -> str:
    """`columns` and `rows` as CSV, or `json_doc` as strict indented JSON: the
    report tables and Picard's distances (states CSV has its own row format).
    Only the format written reads `rows`, a generator that `json_doc` may hold."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    return json.dumps(json_doc, indent=2, allow_nan=False, default=list) + "\n"


def _reports(reports, fmt: str) -> tuple[str, bool]:
    columns = ["name", "samples", "worst_violation", "tolerance", "pass"]
    rows = ([rep.name, rep.samples, rep.worst_violation, rep.tolerance, rep.passed]
            for rep in reports)
    text = _render(fmt, columns, rows, [rep.to_dict() for rep in reports])
    return text, all(rep.passed for rep in reports)


def _states_text(solutions, grid: TimeGrid, dim: int, fmt: str) -> str:
    """Upper-triangle entries of every state, one row per path and grid time."""
    with_path = len(solutions) > 1
    columns = (["path"] if with_path else []) + ["t"]
    columns += [f"x_{i + 1}_{j + 1}" for i in range(dim) for j in range(i, dim)]
    iu = np.triu_indices(dim)
    times = grid.times.tolist()
    rows = (([index] if with_path else []) + [t] + vals
            for index, sol in enumerate(solutions)
            for t, vals in zip(times, sol.states[:, iu[0], iu[1]].tolist()))
    if fmt == "json":
        return _render(fmt, columns, rows, {"columns": columns, "rows": rows})
    # one format string per path, over its rows' cells: '%.17g' % x is _cell(x)
    # for every float x
    row = ",".join(["%.17g"] * (1 + iu[0].size))
    text = [",".join(columns)]
    for index, sol in enumerate(solutions):
        cells = np.column_stack([grid.times, sol.states[:, iu[0], iu[1]]])
        path_rows = "\n".join([f"{index},{row}" if with_path else row] * len(cells))
        text.append(path_rows % tuple(cells.ravel().tolist()))
    return "\n".join(text) + "\n"


def _converged(model: SdeModel, path, index: int):
    """The converged Picard solution on path `index`; an unconverged one is a `ValueError`."""
    solution, diag = picard_solve(model, path)
    if not diag.converged:
        raise ValueError(f"Picard iteration did not converge on path {index}: "
                         f"d_{diag.iterates_kept} = {_fmt(diag.d_n[-1])}")
    return solution


def _cmd_simulate(s, config) -> tuple[str, bool]:
    model = _build_model(s, config)
    paths = [sample_path(s.grid, s.dim, s.seed, index) for index in range(s.paths)]
    solutions = euler_solve_paths(model, paths) if s.method == "euler" \
        else [_converged(model, path, index) for index, path in enumerate(paths)]
    return _states_text(solutions, s.grid, s.dim, s.format), True


def _cmd_verify(s, config) -> tuple[str, bool]:
    dims = [2, 3, 5, 8] if s.dim is None else [s.dim]
    return _reports(run_inequality_suite(s.samples, dims, s.seed), s.format)


def _cmd_isometry(s, config) -> tuple[str, bool]:
    dim = s.dim
    a = SymmetricMatrix(_parse_matrix(config["a_matrix"], dim, "a_matrix")) if "a_matrix" in config \
        else SymmetricMatrix.diagonal(np.arange(1, dim + 1, dtype=np.float64))
    c = SymmetricMatrix(_parse_matrix(config["c_matrix"], dim, "c_matrix")) if "c_matrix" in config \
        else SymmetricMatrix.identity(dim)
    e_last = np.eye(dim)[-1]
    x = _parse_vector(config["x_vector"], dim, "x_vector") if "x_vector" in config else e_last
    y = _parse_vector(config["y_vector"], dim, "y_vector") if "y_vector" in config else e_last
    return _reports([mc_isometry(a, c, x, y, s.paths, s.grid, s.seed)], s.format)


def _cmd_picard_convergence(s, config) -> tuple[str, bool]:
    model = _build_model(s, config)
    records = []
    for index in range(s.paths):
        path = sample_path(s.grid, s.dim, s.seed, index)
        _, diag = picard_solve(model, path, max_iter=s.max_iter, stop_tol=s.stop_tol)
        fit = diag.rate_fit
        records.append({
            "path_index": index,
            "converged": diag.converged,
            "iterations": diag.iterates_kept,
            "d_n": [float(v) for v in diag.d_n],
            "rate_fit": None if fit is None else {"c": fit.c, "beta": fit.beta},
        })
    rows = ([rec["path_index"], i, value]
            for rec in records for i, value in enumerate(rec["d_n"], start=1))
    return (_render(s.format, ["path", "iteration", "d_n"], rows, records),
            all(rec["converged"] for rec in records))


def _cmd_trace_moment(s, config) -> tuple[str, bool]:
    return _reports([mc_trace_moment(_build_model(s, config), s.paths, s.grid, s.seed)], s.format)


# Each subcommand's settings, once: name -> (kind, default[, lowest[, first
# refused above]]), kind int, float or a tuple of choices.  Every setting is
# also the flag --name (underscores as dashes).  The config keys of the
# model's start and coefficients and of isometry's matrices and vectors have
# no flag; `_CONFIG_ONLY_KEYS` declares them.
_SEED = (int, DEFAULT_SEED, 0, 2 ** 64)
_MODEL = {"model": (_MODELS, "wishart"), "alpha": (float, 1.0)}
# The first path and sample counts refused.  The per-path solvers hold every
# state of every path; the Monte Carlo checks and `verify` draw in blocks and
# keep one value per path or sample, so they take more.
_SOLVE_PATHS_LIMIT = 10 ** 4
_MC_PATHS_LIMIT = 10 ** 7
_SAMPLES_LIMIT = 10 ** 7
# The first dimension and step count refused: one path's increments at the
# highest of both take (10^4 - 1) * 31^2 * 8 bytes, about 77 MB.
_DIM_LIMIT = 32
_STEPS_LIMIT = 10 ** 4


def _path_settings(steps: int, paths: int, min_paths, paths_limit: int) -> dict:
    return {"dim": (int, 2, 1, _DIM_LIMIT), "steps": (int, steps, None, _STEPS_LIMIT),
            "horizon": (float, 1.0), "paths": (int, paths, min_paths, paths_limit), "seed": _SEED}


SUBCOMMANDS = {
    "simulate": (_cmd_simulate, "solve the SDE and dump path states", {
        **_path_settings(256, 1, 1, _SOLVE_PATHS_LIMIT), **_MODEL,
        "method": (_METHODS, "euler"), "format": (_FORMATS, "csv")}),
    "verify": (_cmd_verify, "run all operator-inequality suites", {
        "dim": (int, None, 1, _DIM_LIMIT), "samples": (int, 10000, None, _SAMPLES_LIMIT),
        "seed": _SEED, "format": (_FORMATS, "json")}),
    "isometry": (_cmd_isometry, "Monte Carlo second-moment identity check", {
        **_path_settings(16, 20000, None, _MC_PATHS_LIMIT), "format": (_FORMATS, "json")}),
    "picard-convergence": (_cmd_picard_convergence, "iteration distances and rate fit", {
        **_path_settings(256, 1, 1, _SOLVE_PATHS_LIMIT), **_MODEL, "format": (_FORMATS, "json"),
        "max_iter": (int, 25), "stop_tol": (float, 1e-10)}),
    "trace-moment": (_cmd_trace_moment, "Wishart mean-trace identity check", {
        **_path_settings(256, 10000, None, _MC_PATHS_LIMIT), **_MODEL,
        "format": (_FORMATS, "json")}),
}


_CONFIG_ONLY_KEYS = frozenset(
    ["x0", "sqrt_clip_bound", "a_matrix", "c_matrix", "x_vector", "y_vector"]
    + [f"{prefix}_{name}" for prefix in "gfb"
       for name in ["kind", *(name for _, params in _COEFFICIENT_KINDS.values() for name in params)]])


@functools.cache  # parsing keeps no state in the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matrixdiff",
        description="Simulate symmetric-matrix diffusions and verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, declared) in SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for key, (kind, *_) in declared.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(kind, tuple):
                command.add_argument(flag, dest=key, choices=kind)
            else:
                command.add_argument(flag, dest=key, type=kind)
        command.add_argument("--config", help="flat JSON config file")
        command.add_argument("--out", help="output file (default stdout)")
    return parser


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _load_config(args.config)
        run, _, declared = SUBCOMMANDS[args.command]
        # states that overflow are reported once, by the guard, not by numpy too;
        # a Wallach warning is recorded on every run, not on a process's first alone
        with np.errstate(over="ignore", invalid="ignore"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", WallachSetWarning)
            text, passed = run(_settings(declared, args, config), config)
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    except (ConfigError, ValueError, EigensolverError, MemoryError) as exc:
        # a newline in a quoted value (a path, an argv word) stays on the one line
        sys.stderr.write("error: " + str(exc).replace("\n", "\\n") + "\n")
        return 2
    for warning in caught:
        sys.stderr.write(f"warning: {warning.message}\n")
    return 0 if passed else 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
