"""The benchmark's workloads: the CLI argv of one op, its work units, and its output gate.

One op is one or two calls of ``matrixdiff.cli.run_cli(argv)``.  The gate
recomputes each verdict from the numbers the program printed and compares the
fixed quantities (expected trace, isometry right-hand side, row counts) with
closed forms from the argv, so an op that exits 0 with wrong output still fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Config of the path-solve workload: a PSD start away from 0 and a clipped root,
# so every Picard iteration contracts (acceptance criteria 7 and 8).
CONTRACTION = {"x0": [16, 0, 0, 16], "sqrt_clip_bound": 10}

DIM, ALPHA, HORIZON, STEPS = 2, 3.0, 1.0, 256
WISHART_PATHS = 4096
ISO_STEPS, ISO_PATHS = 8, 40000
INEQ_SAMPLES, INEQ_DIMS = 4096, (2, 3, 5, 8)
INEQ_CHECKS = ("inq2", "inq_nice", "prop_cauchy")
SOLVE_PATHS = 8
PICARD_STOP_TOL = 1e-10  # the CLI default


@dataclass(frozen=True)
class Output:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple  # argv templates, one per CLI call; "{config}" names the config file
    work_units: int
    work_unit: str
    check: Callable  # list[Output] -> list of failure reasons

    def argvs(self, op_seed: int, config: Path) -> list:
        return [[arg.format(config=config) for arg in cmd] + ["--seed", str(op_seed)]
                for cmd in self.commands]


def import_cli():
    """Import ``matrixdiff.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "matrixdiff" / "cli.py").is_file():
        raise ImportError(f"no matrixdiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import matrixdiff.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"matrixdiff was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(run_cli, argvs) -> list:
    """Run each argv through the CLI in this process, capturing its output."""
    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run_cli(list(argv))
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code if isinstance(exc.code, int) else 2
        outputs.append(Output(code, out.getvalue(), err.getvalue()))
    return outputs


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens that Python's json accepts."""
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=reject)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _mc_reasons(report: dict, name: str, samples: int, target_key: str, target: float) -> list:
    """Gate of a Monte Carlo report: its fixed target and |mean - target| <= 3 se."""
    details = report["details"]
    mean, se, reported = details["mean"], details["se"], details[target_key]
    reasons = []
    if report["name"] != name or report["samples"] != samples:
        reasons.append(f"report is {report['name']!r} over {report['samples']} samples, "
                       f"expected {name!r} over {samples}")
    if not _close(reported, target):
        reasons.append(f"{target_key} = {reported!r}, closed form gives {target!r}")
    verdict = abs(mean - target) <= 3.0 * se
    if not verdict:
        reasons.append(f"|mean - {target_key}| = {abs(mean - target):.6g} exceeds 3 se = {3 * se:.6g}")
    if report["pass"] is not verdict:
        reasons.append(f"reported pass={report['pass']} but the recomputed verdict is {verdict}")
    return reasons


def _check_trace_moment(outputs) -> list:
    (report,) = strict_json(outputs[0].stdout)
    # X0 = 0, so E[tr X_T] = alpha * d * T exactly, also under Euler stepping.
    return _mc_reasons(report, "trace_moment", WISHART_PATHS, "expected", ALPHA * DIM * HORIZON)


def _check_isometry(outputs) -> list:
    (report,) = strict_json(outputs[0].stdout)
    # Defaults A = diag(1..d), C = I, x = y = e_d: the integrand (A^2)_dd = d^2 is constant.
    return _mc_reasons(report, "mc_isometry", ISO_PATHS, "rhs", DIM * DIM * HORIZON)


def _check_inequalities(outputs) -> list:
    reports = strict_json(outputs[0].stdout)
    reasons = []
    seen = sorted((rep["name"], rep["details"]["dim"]) for rep in reports)
    wanted = sorted((name, d) for d in INEQ_DIMS for name in INEQ_CHECKS)
    if seen != wanted:
        reasons.append(f"reports cover {seen}, expected {wanted}")
    for rep in reports:
        label = f"{rep['name']} d={rep['details']['dim']}"
        if rep["samples"] != INEQ_SAMPLES:
            reasons.append(f"{label}: {rep['samples']} samples, expected {INEQ_SAMPLES}")
        verdict = rep["worst_violation"] <= rep["tolerance"]
        if not verdict:
            reasons.append(f"{label}: worst violation {rep['worst_violation']!r} "
                           f"above tolerance {rep['tolerance']!r}")
        if rep["pass"] is not verdict:
            reasons.append(f"{label}: reported pass={rep['pass']} but the recomputed verdict is {verdict}")
    return reasons


def _check_states_csv(text: str) -> list:
    lines = text.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    rows = lines[:-1]
    expected_rows = SOLVE_PATHS * (STEPS + 1) + 1
    if len(rows) != expected_rows:
        return [f"CSV has {len(rows)} rows, expected paths*(steps+1)+1 = {expected_rows}"]
    header = "path,t," + ",".join(f"x_{i + 1}_{j + 1}" for i in range(DIM) for j in range(i, DIM))
    if rows[0] != header:
        return [f"CSV header {rows[0]!r}, expected {header!r}"]
    width = header.count(",") + 1
    for number, row in enumerate(rows[1:], start=2):
        cells = row.split(",")
        if len(cells) != width or not all(math.isfinite(float(cell)) for cell in cells):
            return [f"CSV row {number} is not {width} finite numbers: {row!r}"]
    return []


def _check_path_solve(outputs) -> list:
    reasons = _check_states_csv(outputs[0].stdout)
    records = strict_json(outputs[1].stdout)
    if [rec["path_index"] for rec in records] != list(range(SOLVE_PATHS)):
        reasons.append(f"Picard report covers paths {[rec['path_index'] for rec in records]}")
    for rec in records:
        d_n = rec["d_n"]
        converged = bool(d_n) and d_n[-1] < PICARD_STOP_TOL
        if not (converged and rec["converged"] is True and rec["iterations"] == len(d_n)):
            reasons.append(f"Picard path {rec['path_index']}: converged={rec['converged']}, "
                           f"{rec['iterations']} iterations, last d_n={d_n[-1] if d_n else None!r}")
    return reasons


def gate(workload: Workload, outputs) -> list:
    """Reasons the op failed; empty when every output is valid."""
    reasons = [f"command {index + 1} exited {out.code}: {out.stderr.strip()[:200]}"
               for index, out in enumerate(outputs) if out.code != 0]
    try:
        reasons += workload.check(outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reasons.append(f"malformed output: {type(exc).__name__}: {exc}")
    return reasons


_WISHART = ("--dim", str(DIM), "--alpha", f"{ALPHA:g}", "--steps", str(STEPS))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc-wishart",
        commands=(("trace-moment", *_WISHART, "--paths", str(WISHART_PATHS)),),
        work_units=WISHART_PATHS * STEPS,
        work_unit="path-steps",
        check=_check_trace_moment,
    ),
    Workload(
        name="mc-isometry",
        commands=(("isometry", "--dim", str(DIM), "--steps", str(ISO_STEPS),
                   "--paths", str(ISO_PATHS)),),
        work_units=ISO_PATHS * ISO_STEPS,
        work_unit="path-steps",
        check=_check_isometry,
    ),
    Workload(
        name="inequalities",
        commands=(("verify", "--samples", str(INEQ_SAMPLES)),),
        work_units=INEQ_SAMPLES * len(INEQ_DIMS) * len(INEQ_CHECKS),
        work_unit="check-samples",
        check=_check_inequalities,
    ),
    Workload(
        name="path-solve",
        commands=(
            ("simulate", "--method", "euler", "--paths", str(SOLVE_PATHS), *_WISHART,
             "--config", "{config}"),
            ("picard-convergence", "--paths", str(SOLVE_PATHS), *_WISHART,
             "--config", "{config}"),
        ),
        work_units=2 * SOLVE_PATHS * STEPS,
        work_unit="path-steps",
        check=_check_path_solve,
    ),
)}
