"""Closed-loop benchmark of the matrixdiff command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in this process runs one op at a time through the public entry
point ``matrixdiff.cli.run_cli(argv)`` for S seconds, and passes every op's
output through the workload's validity gate.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
reports per-layer metrics from wrappers around each layer's public functions.
End-to-end times are in reference seconds: each is divided by a calibration
timed just before and after it (see calibrate.py), because this host's speed
drifts by more than the bounds between runs.
The last stdout line is the JSON result; the lines before it are a readable
report with the environment record.  See README.md for the workloads, metrics
and the seed-commit baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import (KERNEL_REFERENCE_S, NUMPY_START_REFERENCE_S, SpeedMeter, kernel_s,
                       numpy_start_s)
from workloads import CONTRACTION, ROOT, SRC, WORKLOADS, Output, gate, import_cli, run_op

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_tmp"
SETUP_STARTS = 12  # fresh interpreters per run, spread over the timed window; setup_s is their median
MIN_TIMED_OPS = 3


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def op_seed(workload: str, seed: int) -> int:
    """The CLI seed of every op in a run: a fixed function of the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


class Client:
    """Runs ops one at a time and applies the validity gate to each."""

    def __init__(self, workload, cli, argvs, seed: int) -> None:
        self.workload, self.cli, self.argvs, self.seed = workload, cli, argvs, seed
        self.attempted = 0
        self.failed = 0
        self._reference = None

    def op(self, label: str) -> tuple:
        """Run one op in process; returns (wall seconds, output bytes)."""
        start = time.perf_counter()
        try:
            # looked up per op, so the traced run's wrapper of run_cli is the one called
            outputs = run_op(self.cli.run_cli, self.argvs)
        except Exception as exc:  # a traceback fails the op, not the benchmark
            self.record(label, None, [f"raised {type(exc).__name__}: {exc}"])
            return time.perf_counter() - start, 0
        elapsed = time.perf_counter() - start
        self.record(label, outputs)
        return elapsed, sum(len(out.stdout.encode()) for out in outputs)

    def record(self, label: str, outputs, reasons=None) -> None:
        self.attempted += 1
        reasons = list(reasons or [])
        if outputs is not None:
            reasons += gate(self.workload, outputs)
            if self._reference is None:
                self._reference = outputs
            elif outputs != self._reference:
                reasons.append(f"output is not byte-identical to the first run of seed {self.seed}")
        if reasons:
            self.failed += 1
            for reason in reasons:
                print(f"FAIL {self.workload.name} op {self.attempted} ({label}, seed {self.seed}): {reason}")


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_start(subcommand: str) -> float:
    """Wall time of a fresh interpreter running ``python -m matrixdiff.cli SUB --help``."""
    cmd = [sys.executable, "-m", "matrixdiff.cli", subcommand, "--help"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or b"usage:" not in proc.stdout:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-300:]}")
    return elapsed


def probe_peak_rss(argv_file: Path) -> tuple:
    """Run one op in a fresh interpreter; returns (peak RSS in MB, its outputs)."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(argv_file)], cwd=ROOT,
                          env=_child_env(), capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"fresh-process op exited {proc.returncode}: {proc.stderr[-500:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["maxrss_kb"] / 1024.0, [Output(*out) for out in report["outputs"]]


def timed_loop(seconds: float, min_ops: int, step) -> None:
    """Call ``step`` back to back until ``seconds`` have passed and it ran ``min_ops`` times."""
    start, done = time.perf_counter(), 0
    while done < min_ops or time.perf_counter() - start < seconds:
        step()
        done += 1


def end_to_end(client: Client, workload, argv_file: Path, seconds: float) -> dict:
    subcommand = workload.commands[0][0]
    setup_start(subcommand)  # fills the file cache; not counted
    client.op("warm-up")
    peak_rss_mb, outputs = probe_peak_rss(argv_file)
    client.record("fresh process", outputs)
    starts = SpeedMeter(numpy_start_s, NUMPY_START_REFERENCE_S)
    ops = SpeedMeter(kernel_s, KERNEL_REFERENCE_S)
    wall, times, setup = [], [], []
    start = time.perf_counter()

    def sample_setup(due: float) -> None:
        if len(setup) < due:
            starts.restart()
            while len(setup) < due:
                setup.append(starts.scale(setup_start(subcommand)))
            ops.restart()

    def step():
        wall.append(client.op("timed")[0])
        times.append(ops.scale(wall[-1]))
        # Machine speed drifts within a window, so the starts are spread over it, between
        # ops, at the pace that ends the window with SETUP_STARTS of them.
        sample_setup(SETUP_STARTS * min(1.0, (time.perf_counter() - start) / seconds))

    timed_loop(seconds, MIN_TIMED_OPS, step)
    sample_setup(SETUP_STARTS)
    print(f"timed ops: {len(times)}; wall s per op min {min(wall):.4f} median {statistics.median(wall):.4f} "
          f"max {max(wall):.4f}; calibration medians: kernel {statistics.median(ops.calibrations):.4f} s "
          f"(reference {KERNEL_REFERENCE_S} s), numpy start {statistics.median(starts.calibrations):.4f} s "
          f"(reference {NUMPY_START_REFERENCE_S} s); setup_s samples {len(setup)}")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s": (statistics.median(times), "s"),
        "work_per_s": (workload.work_units * len(times) / sum(times), "units/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "valid_frac": ((client.attempted - client.failed) / client.attempted, "frac"),
    }


def per_layer(client: Client, seconds: float) -> tuple:
    """Alternate untraced and traced ops; returns (metrics, tracer self-test problems)."""
    from tracer import LAYERS, LayerTracer  # imports matrixdiff, so only after import_cli()

    client.op("warm-up")
    tracer = LayerTracer()
    problems = []
    plain, traced = [], []
    output_bytes = 0

    def step():
        nonlocal output_bytes
        plain.append(client.op("untraced")[0])
        tracer.install()
        try:
            if not traced:
                problems.extend(f"tracer left {site} unwrapped" for site in tracer.unwrapped_sites())
            elapsed, nbytes = client.op("traced")
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        output_bytes += nbytes

    timed_loop(seconds, MIN_TIMED_OPS, step)
    problems.extend(f"tracer left a wrapper at {site}" for site in tracer.wrapped_sites())
    n = len(traced)
    print(f"ops: {len(plain)} untraced, {n} traced; per-layer values are per traced op")
    metrics = {}
    for layer in LAYERS:
        stats = tracer.stats[layer]
        metrics[f"{layer}.busy_s"] = (stats.busy_s / n, "s/op")
        metrics[f"{layer}.calls"] = (stats.calls / n, "count/op")
        metrics[f"{layer}.errors"] = (stats.errors / n, "count/op")
    counts = {layer: tracer.stats[layer].counts for layer in LAYERS}
    matrices = counts["symmat"].get("matrices", 0)
    symmat_calls = tracer.stats["symmat"].calls
    metrics["symmat.matrices"] = (matrices / n, "count/op")
    metrics["symmat.matrices_per_call"] = (matrices / symmat_calls if symmat_calls else 0.0, "count/call")
    metrics["brownian.paths"] = (counts["brownian"].get("paths", 0) / n, "count/op")
    metrics["brownian.draws"] = (counts["brownian"].get("draws", 0) / n, "count/op")
    metrics["sde.path_steps"] = (counts["sde"].get("path_steps", 0) / n, "count/op")
    metrics["sde.picard_iterations"] = (counts["sde"].get("picard_iterations", 0) / n, "count/op")
    metrics["cli.output_bytes"] = (output_bytes / n, "B/op")
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "frac")
    return metrics, problems


def _git_commit():
    """HEAD of the checkout's git repository, read from ``.git``; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "op_seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    seed = op_seed(workload.name, args.seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK_ROOT))
    try:
        config = work / "contraction.json"
        config.write_text(json.dumps(CONTRACTION), encoding="utf-8")
        argv_file = work / "argv.json"
        argv_file.write_text(json.dumps(workload.argvs(seed, config)), encoding="utf-8")
        argvs = json.loads(argv_file.read_text(encoding="utf-8"))

        print(f"perfbench {workload.name}: closed loop, 1 client, {args.seconds:g} s, "
              f"trace {args.trace}; work unit {workload.work_unit} ({workload.work_units} per op)")
        print("env " + json.dumps(environment(args, seed), sort_keys=True))
        for argv in argvs:
            print("argv " + " ".join(argv))
        client = Client(workload, cli, argvs, seed)
        if args.trace:
            metrics, problems = per_layer(client, args.seconds)
        else:
            metrics, problems = end_to_end(client, workload, argv_file, args.seconds), []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    for problem in problems:
        print(f"FAIL {workload.name}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    print(f"attempted {client.attempted} failed {client.failed}")
    print(json.dumps({
        "correct": client.failed == 0 and not problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
