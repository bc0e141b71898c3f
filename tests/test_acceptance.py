"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the Monte Carlo criteria use fixed
seeds, so the whole suite is deterministic.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from matrixdiff.brownian import TimeGrid, coarsen_path, sample_path
from matrixdiff.checks import (
    check_inq2,
    check_inq_nice,
    check_prop_cauchy,
    estimate_lemma_beta,
    mc_isometry,
    mc_trace_moment,
)
from matrixdiff.integrals import MatrixProcess, ito_integral
from matrixdiff.sde import euler_solve_paths, picard_solve, wishart_model
from matrixdiff.symmat import SymmetricMatrix, matrix_sqrt, spectral_decompose
from reference import entrywise_ito

DIMS = (2, 3, 5, 8)


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {status}{suffix}")
    return ok


def test_criterion_1_inequality_suites():
    started = time.perf_counter()
    reports = []
    for d in DIMS:
        reports.append(check_inq2(10_000, d, seed=1000 + d))
        reports.append(check_inq_nice(10_000, d, seed=2000 + d))
        reports.append(check_prop_cauchy(10_000, d, n=32, seed=3000 + d))
    elapsed = time.perf_counter() - started
    worst = max(rep.worst_violation for rep in reports)
    ok = all(rep.passed for rep in reports) and worst <= 1e-10 and elapsed < 30.0
    assert _verdict(1, "inequality-suites", ok,
                    f"worst violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_functional_calculus():
    rng = np.random.default_rng(42)
    worst_resid = 0.0
    worst_map = 0.0
    for d in DIMS:
        for _ in range(125):
            raw = rng.standard_normal((d, d))
            a = SymmetricMatrix(raw @ raw.T)
            root = matrix_sqrt(a)
            resid = np.linalg.norm(root.entries @ root.entries - a.entries)
            worst_resid = max(worst_resid, resid / max(1.0, a.frobenius_norm()))
            lam = spectral_decompose(a).eigenvalues
            root_lam = spectral_decompose(root).eigenvalues
            gap = np.abs(np.sort(root_lam) - np.sqrt(np.maximum(lam, 0.0))).max()
            worst_map = max(worst_map, gap)
    ok = worst_resid <= 1e-8 and worst_map <= 1e-8
    assert _verdict(2, "functional-calculus", ok,
                    f"sqrt residual {worst_resid:.2e}, spectral map gap {worst_map:.2e}")


def test_criterion_3_ito_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 17))
        grid = TimeGrid(float(rng.uniform(0.5, 1.5)), n)
        path = sample_path(grid, d, seed=9000, path_index=trial)
        raw_a = rng.standard_normal((n + 1, d, d))
        raw_c = rng.standard_normal((n + 1, d, d))
        a = MatrixProcess(grid, 0.5 * (raw_a + raw_a.transpose(0, 2, 1)))
        c = MatrixProcess(grid, 0.5 * (raw_c + raw_c.transpose(0, 2, 1)))
        gap = np.abs(ito_integral(a, path, c) - entrywise_ito(a.values, c.values, path.increments)).max()
        worst = max(worst, float(gap))
    ok = worst <= 1e-12
    assert _verdict(3, "ito-oracle-equivalence", ok, f"worst entry gap {worst:.2e}")


def test_criterion_4_isometry_identity():
    started = time.perf_counter()
    a = SymmetricMatrix.diagonal([1.0, 2.0])
    ident = SymmetricMatrix.identity(2)
    e2 = np.array([0.0, 1.0])
    report = mc_isometry(a, ident, e2, e2, paths=100_000, grid=TimeGrid(1.0, 8), seed=404)
    elapsed = time.perf_counter() - started
    ok = report.passed and abs(report.details["rhs"] - 4.0) < 1e-14 and elapsed < 60.0
    assert _verdict(4, "isometry-identity", ok,
                    f"mean {report.details['mean']:.4f} vs 4 within 3 SE "
                    f"({report.details['se']:.4f}), {elapsed:.1f}s")


def test_criterion_5_lemma_beta_anchor():
    details = []
    ok = True
    for d in (1, 2, 3):
        ident = SymmetricMatrix.identity(d)
        x = np.zeros(d)
        x[0] = 1.0
        beta = estimate_lemma_beta(ident, ident, paths=100_000,
                                   grid=TimeGrid(1.0, 16), x=x, seed=500 + d)
        expected = d + 1
        ok = ok and abs(beta - expected) <= 0.1 * expected
        details.append(f"d={d}: {beta:.3f} vs {expected}")
    assert _verdict(5, "lemma-beta-anchor", ok, "; ".join(details))


def test_criterion_6_wishart_trace_moment():
    model = wishart_model(2, 3.0)
    report = mc_trace_moment(model, paths=10_000, grid=TimeGrid(1.0, 256), seed=606)
    ok = report.passed and report.details["expected"] == 6.0
    assert _verdict(6, "wishart-trace-moment", ok,
                    f"mean {report.details['mean']:.4f} vs 6 within 3 SE "
                    f"({report.details['se']:.4f})")


def _contraction_model():
    return wishart_model(2, 3.0, x0=SymmetricMatrix(16.0 * np.eye(2)), sqrt_clip_bound=10.0)


def test_criterion_7_picard_contraction():
    model = _contraction_model()
    grid = TimeGrid(1.0, 256)
    converged = decreasing = enveloped = 0
    for index in range(20):
        _, diag = picard_solve(model, sample_path(grid, 2, seed=707, path_index=index),
                               max_iter=25, stop_tol=1e-10)
        s = diag.d_n
        if diag.converged and diag.iterates_kept <= 25 and s[-1] < 1e-10:
            converged += 1
        if all(s[i + 1] < s[i] for i in range(2, len(s) - 1)):
            decreasing += 1
        fit = diag.rate_fit
        if fit is not None and fit.beta > 0:
            # smallest uniform inflation making the fitted curve an upper
            # envelope of the tail; a factorial-decay tail fits tightly
            worst_log = max(
                math.log(v) - math.log(fit.bound_at(k, grid.horizon))
                for k, v in enumerate(s, start=1)
                if v > 0 and k > 2
            )
            inflation = math.exp(max(worst_log, 0.0))
            if inflation <= 10.0:
                enveloped += 1
    ok = converged == 20 and decreasing == 20 and enveloped == 20
    assert _verdict(7, "picard-contraction", ok,
                    f"converged {converged}/20, strictly decreasing {decreasing}/20, "
                    f"factorial envelope {enveloped}/20")


def test_criterion_8_picard_euler_consistency():
    # converged Picard on grid n vs the Euler reference on the finest grid,
    # all driven by the same underlying Brownian path
    model = _contraction_model()
    grids = (64, 256, 1024)
    distances = {n: [] for n in grids}
    fines = [sample_path(TimeGrid(1.0, 1024), 2, seed=808, path_index=index)
             for index in range(20)]
    # one stacked Euler solve; each path's states have the bits of its solve alone
    references = euler_solve_paths(model, fines)
    for fine, reference in zip(fines, references):
        for n in grids:
            path = fine if n == 1024 else coarsen_path(fine, 1024 // n)
            solution, diag = picard_solve(model, path)
            assert diag.converged
            distances[n].append(
                float(np.linalg.norm(solution.states[-1] - reference.states[-1]))
            )
    medians = [float(np.median(distances[n])) for n in grids]
    inversions = sum(1 for lo, hi in zip(medians, medians[1:]) if hi >= lo)
    ok = inversions <= 1
    assert _verdict(8, "picard-euler-consistency", ok,
                    "medians " + " -> ".join(f"{m:.2e}" for m in medians))


def test_criterion_9_cli_determinism(tmp_path):
    config = tmp_path / "picard.json"
    config.write_text(json.dumps({"x0": [16.0, 0.0, 0.0, 16.0], "sqrt_clip_bound": 10.0}))
    invocations = {
        "simulate": ["simulate", "--dim", "2", "--alpha", "3", "--steps", "64",
                     "--paths", "2", "--seed", "17"],
        "verify": ["verify", "--dim", "3", "--samples", "2000", "--seed", "17"],
        "isometry": ["isometry", "--dim", "2", "--paths", "2000", "--steps", "4",
                     "--seed", "17"],
        "picard-convergence": ["picard-convergence", "--dim", "2", "--alpha", "3",
                               "--steps", "128", "--seed", "17", "--config", str(config)],
        "trace-moment": ["trace-moment", "--dim", "2", "--alpha", "3", "--steps", "64",
                         "--paths", "1000", "--seed", "17"],
    }
    ok = True
    for name, argv in invocations.items():
        outs = [tmp_path / f"{name}-{i}.out" for i in (0, 1)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "matrixdiff.cli"] + argv + ["--out", str(out)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for out in outs
        ]
        for proc in procs:
            proc.communicate(timeout=300)
            assert proc.returncode == 0, f"{name} exited {proc.returncode}"
        if outs[0].read_bytes() != outs[1].read_bytes():
            ok = False
    assert _verdict(9, "cli-determinism", ok,
                    "5 subcommands, concurrent duplicate runs byte-identical")
