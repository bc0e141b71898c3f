"""Command-line harness: simulation runs and verification suites.

Subcommands
-----------
simulate            solve the SDE on sampled paths and dump states as CSV/JSON
verify              run the operator-inequality suites, emit JSON reports
isometry            Monte Carlo second-moment identity check
picard-convergence  per-iteration distance table and contraction rate fit
trace-moment        Wishart mean-trace identity check

Settings come from a flat JSON config file (--config) overridden by CLI
flags; the seed falls back to the MATRIXDIFF_SEED environment variable.
Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad
configuration.  Output is deterministic byte for byte under a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .brownian import TimeGrid, sample_path
from .checks import mc_isometry, mc_trace_moment, run_inequality_suite
from .sde import SdeModel, euler_solve, picard_solve, wishart_model
from .symmat import (
    EigensolverError,
    ScalarFunctionSpec,
    SymmetricMatrix,
    clipped_affine_fn,
    clipped_sqrt_fn,
    constant_fn,
)

DEFAULT_SEED = 12345


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    return cfg


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _number(args, config, key: str, default, kind=int, low=None):
    """The setting `key` (flag, else config, else default) as `kind`; a value
    that does not convert (JSON null) or lies below `low` is a `ConfigError`."""
    value = _resolve(args, config, key, default)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from exc
    if low is not None and number < low:
        raise ConfigError(f"{key} must be at least {low}, got {number}")
    return number


def _resolve_seed(args, config) -> int:
    seed = _number(args, config, "seed", os.environ.get("MATRIXDIFF_SEED", DEFAULT_SEED), low=0)
    if seed >= 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def _parse_matrix(obj, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim == 1 and arr.size == dim * dim:
        arr = arr.reshape(dim, dim)
    if arr.shape != (dim, dim):
        raise ConfigError(f"{what} must be a row-major array of {dim * dim} numbers")
    return arr


def _parse_vector(obj, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=np.float64).reshape(-1)
    if arr.size != dim:
        raise ConfigError(f"{what} must have {dim} entries")
    return arr


def _scalar_spec(args, config: dict, prefix: str) -> ScalarFunctionSpec:
    kind = config.get(f"{prefix}_kind")
    if kind == "constant":
        return constant_fn(_number(args, config, f"{prefix}_value", 0.0, float))
    if kind == "clipped_sqrt":
        return clipped_sqrt_fn(_number(args, config, f"{prefix}_clip", 1e6, float))
    if kind == "clipped_affine":
        return clipped_affine_fn(
            _number(args, config, f"{prefix}_a", 1.0, float),
            _number(args, config, f"{prefix}_b", 0.0, float),
            _number(args, config, f"{prefix}_bound", 1e6, float),
        )
    raise ConfigError(
        f"{prefix}_kind must be one of constant, clipped_sqrt, clipped_affine; got {kind!r}"
    )


def _build_model(args, config, dim: int) -> SdeModel:
    model_name = _resolve(args, config, "model", "wishart")
    clip = _number(args, config, "sqrt_clip_bound", 1e6, float)
    x0_cfg = config.get("x0")
    x0 = SymmetricMatrix(_parse_matrix(x0_cfg, dim, "x0")) if x0_cfg is not None else None
    if model_name == "wishart":
        alpha = _number(args, config, "alpha", 1.0, float)
        return wishart_model(dim, alpha, x0=x0, sqrt_clip_bound=clip)
    if model_name == "custom":
        g = _scalar_spec(args, config, "g")
        f = _scalar_spec(args, config, "f")
        b = _scalar_spec(args, config, "b")
        if x0 is None:
            x0 = SymmetricMatrix.zeros(dim)
        return SdeModel(g=g, f=f, b=b, x0=x0)
    raise ConfigError(f"unknown model {model_name!r}")


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _render(fmt: str, columns: list, rows, json_doc) -> str:
    """`columns` and `rows` as CSV, or `json_doc` as strict indented JSON.  Only
    the format written reads `rows`, a generator that `json_doc` may hold."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    return json.dumps(json_doc, indent=2, allow_nan=False, default=list) + "\n"


def _reports_text(reports, fmt: str) -> str:
    columns = ["name", "samples", "worst_violation", "tolerance", "pass"]
    rows = ([rep.name, rep.samples, rep.worst_violation, rep.tolerance, rep.passed]
            for rep in reports)
    return _render(fmt, columns, rows, [rep.to_dict() for rep in reports])


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
    return _render(fmt, columns, rows, {"columns": columns, "rows": rows})


def _cmd_simulate(args, config) -> int:
    dim = _number(args, config, "dim", 2, low=1)
    steps = _number(args, config, "steps", 256)
    horizon = _number(args, config, "horizon", 1.0, float)
    paths = _number(args, config, "paths", 1, low=1)
    method = _resolve(args, config, "method", "euler")
    seed = _resolve_seed(args, config)
    fmt = _resolve(args, config, "format", "csv")
    grid = TimeGrid(horizon=horizon, steps=steps)
    model = _build_model(args, config, dim)
    solutions = []
    for index in range(paths):
        path = sample_path(grid, dim, seed, index)
        if method == "euler":
            solutions.append(euler_solve(model, path))
        elif method == "picard":
            solution, _ = picard_solve(model, path)
            solutions.append(solution)
        else:
            raise ConfigError(f"unknown method {method!r}")
    _write_output(_states_text(solutions, grid, dim, fmt), args.out)
    return 0


def _cmd_verify(args, config) -> int:
    samples = _number(args, config, "samples", 10000)
    seed = _resolve_seed(args, config)
    fmt = _resolve(args, config, "format", "json")
    dims = [2, 3, 5, 8]
    if args.dim is not None or "dim" in config:
        dims = [_number(args, config, "dim", None, low=1)]
    reports = run_inequality_suite(samples, dims, seed)
    _write_output(_reports_text(reports, fmt), args.out)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_isometry(args, config) -> int:
    dim = _number(args, config, "dim", 2, low=1)
    steps = _number(args, config, "steps", 16)
    horizon = _number(args, config, "horizon", 1.0, float)
    paths = _number(args, config, "paths", 20000)
    seed = _resolve_seed(args, config)
    fmt = _resolve(args, config, "format", "json")
    grid = TimeGrid(horizon=horizon, steps=steps)
    a_mat = config.get("a_matrix")
    c_mat = config.get("c_matrix")
    a = SymmetricMatrix(_parse_matrix(a_mat, dim, "a_matrix")) if a_mat is not None \
        else SymmetricMatrix.diagonal(np.arange(1, dim + 1, dtype=np.float64))
    c = SymmetricMatrix(_parse_matrix(c_mat, dim, "c_matrix")) if c_mat is not None \
        else SymmetricMatrix.identity(dim)
    e_last = np.zeros(dim)
    e_last[-1] = 1.0
    x = _parse_vector(config["x_vector"], dim, "x_vector") if "x_vector" in config else e_last
    y = _parse_vector(config["y_vector"], dim, "y_vector") if "y_vector" in config else e_last
    report = mc_isometry(a, c, x, y, paths, grid, seed)
    _write_output(_reports_text([report], fmt), args.out)
    return 0 if report.passed else 1


def _cmd_picard_convergence(args, config) -> int:
    dim = _number(args, config, "dim", 2, low=1)
    steps = _number(args, config, "steps", 256)
    horizon = _number(args, config, "horizon", 1.0, float)
    paths = _number(args, config, "paths", 1, low=1)
    seed = _resolve_seed(args, config)
    fmt = _resolve(args, config, "format", "json")
    max_iter = _number(args, config, "max_iter", 25)
    stop_tol = _number(args, config, "stop_tol", 1e-10, float)
    grid = TimeGrid(horizon=horizon, steps=steps)
    model = _build_model(args, config, dim)
    records = []
    all_converged = True
    for index in range(paths):
        path = sample_path(grid, dim, seed, index)
        _, diag = picard_solve(model, path, max_iter=max_iter, stop_tol=stop_tol)
        all_converged = all_converged and diag.converged
        fit = None
        if diag.rate_fit is not None:
            fit = {"c": diag.rate_fit.c, "beta": diag.rate_fit.beta}
        records.append({
            "path_index": index,
            "converged": diag.converged,
            "iterations": diag.iterates_kept,
            "d_n": [float(v) for v in diag.d_n],
            "rate_fit": fit,
        })
    rows = ([rec["path_index"], i, value]
            for rec in records for i, value in enumerate(rec["d_n"], start=1))
    _write_output(_render(fmt, ["path", "iteration", "d_n"], rows, records), args.out)
    return 0 if all_converged else 1


def _cmd_trace_moment(args, config) -> int:
    dim = _number(args, config, "dim", 2, low=1)
    steps = _number(args, config, "steps", 256)
    horizon = _number(args, config, "horizon", 1.0, float)
    paths = _number(args, config, "paths", 10000)
    seed = _resolve_seed(args, config)
    fmt = _resolve(args, config, "format", "json")
    grid = TimeGrid(horizon=horizon, steps=steps)
    model = _build_model(args, config, dim)
    report = mc_trace_moment(model, paths, grid, seed)
    _write_output(_reports_text([report], fmt), args.out)
    return 0 if report.passed else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None, help="decimal 64-bit seed")
    parser.add_argument("--model", choices=["wishart", "custom"], default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--config", default=None, help="flat JSON config file")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matrixdiff",
        description="Simulate symmetric-matrix diffusions and verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="solve the SDE and dump path states")
    _add_common(p_sim)
    p_sim.add_argument("--method", choices=["euler", "picard"], default=None)

    p_ver = sub.add_parser("verify", help="run all operator-inequality suites")
    _add_common(p_ver)

    p_iso = sub.add_parser("isometry", help="Monte Carlo second-moment identity check")
    _add_common(p_iso)

    p_pic = sub.add_parser("picard-convergence", help="iteration distances and rate fit")
    _add_common(p_pic)
    p_pic.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    p_pic.add_argument("--stop-tol", type=float, default=None, dest="stop_tol")

    p_trace = sub.add_parser("trace-moment", help="Wishart mean-trace identity check")
    _add_common(p_trace)
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "isometry": _cmd_isometry,
    "picard-convergence": _cmd_picard_convergence,
    "trace-moment": _cmd_trace_moment,
}


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        # states that overflow are reported once, by the guard, not by numpy too
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args, config)
    except (ConfigError, ValueError, EigensolverError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
