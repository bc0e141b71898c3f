"""Numerical certification of the operator inequalities and moment identities.

Each check draws its own samples from a seeded generator, measures the worst
violation over all samples, and reports pass/fail against a declared
tolerance.  The operator inequalities are theorems, so any violation beyond
floating-point tolerance indicates an implementation bug; the Monte Carlo
checks are statistical and use a three-standard-error acceptance band.

Sampling conventions: random symmetric matrices are symmetrized standard
Gaussians, PSD variants are Gram matrices G^T G, and unit vectors are
normalized Gaussian vectors (uniform on the sphere).  Monte Carlo drivers
consume per-path Philox streams in fixed-size blocks, so results do not
depend on scheduling and are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .brownian import TimeGrid, sample_path
from .integrals import MatrixProcess, isometry_rhs
from .sde import SdeModel, euler_final_states
from .symmat import (
    ScalarFunctionSpec,
    SymmetricMatrix,
    apply_scalar_fn_stack,
    min_eigenvalues_stack,
)

__all__ = [
    "CheckReport",
    "LipschitzEstimate",
    "random_symmetric_stack",
    "random_psd_stack",
    "random_unit_stack",
    "check_inq2",
    "check_inq_nice",
    "check_prop_cauchy",
    "estimate_lipschitz",
    "mc_isometry",
    "estimate_lemma_beta",
    "mc_trace_moment",
    "run_inequality_suite",
]

_BLOCK = 4096


@dataclass
class CheckReport:
    """Outcome of one check: worst violation vs a declared tolerance."""

    name: str
    samples: int
    worst_violation: float
    tolerance: float
    passed: bool
    details: Optional[dict] = field(default=None)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "samples": self.samples,
            "worst_violation": self.worst_violation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.details is not None:
            out["details"] = self.details
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CheckReport":
        return cls(
            name=data["name"],
            samples=data["samples"],
            worst_violation=data["worst_violation"],
            tolerance=data["tolerance"],
            passed=data["pass"],
            details=data.get("details"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CheckReport":
        return cls.from_dict(json.loads(text))


@dataclass
class LipschitzEstimate:
    """Empirical matrix-sense Lipschitz ratio of a lifted scalar function."""

    fn_name: str
    sampled_ratio_max: float
    sample_count: int
    dims: list


def random_symmetric_stack(rng: np.random.Generator, count: int, d: int, scale: float = 1.0) -> np.ndarray:
    raw = rng.standard_normal((count, d, d))
    return 0.5 * scale * (raw + raw.transpose(0, 2, 1))


def random_psd_stack(rng: np.random.Generator, count: int, d: int, scale: float = 1.0) -> np.ndarray:
    raw = rng.standard_normal((count, d, d))
    gram = np.einsum("mki,mkj->mij", raw, raw) * scale
    return 0.5 * (gram + gram.transpose(0, 2, 1))


def random_unit_stack(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    raw = rng.standard_normal((count, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _blocks(total: int, block: int = _BLOCK):
    if total < 1:
        raise ValueError(f"sample count must be a positive integer, got {total}")
    for start in range(0, total, block):
        yield min(block, total - start)


def check_inq2(samples: int, d: int, seed: int, tol: float = 1e-10) -> CheckReport:
    """(A + B)^2 <= 2A^2 + 2B^2: smallest eigenvalue of the gap stays >= -tol."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for count in _blocks(samples):
        a = random_symmetric_stack(rng, count, d)
        b = random_symmetric_stack(rng, count, d)
        s = a + b
        gap = (
            2.0 * np.einsum("mij,mjk->mik", a, a)
            + 2.0 * np.einsum("mij,mjk->mik", b, b)
            - np.einsum("mij,mjk->mik", s, s)
        )
        gap = 0.5 * (gap + gap.transpose(0, 2, 1))
        lam_min = min_eigenvalues_stack(gap)
        worst = max(worst, float(-lam_min.min()))
    return CheckReport("inq2", samples, worst, tol, worst <= tol,
                       details={"dim": d, "seed": seed})


def check_inq_nice(samples: int, d: int, seed: int, tol: float = 1e-12) -> CheckReport:
    """(x^T A x)^2 <= x^T A^2 x for unit x."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for count in _blocks(samples):
        a = random_symmetric_stack(rng, count, d)
        x = random_unit_stack(rng, count, d)
        ax = np.einsum("mij,mj->mi", a, x)
        quad = np.einsum("mi,mi->m", x, ax)
        square = np.einsum("mi,mi->m", ax, ax)
        worst = max(worst, float((quad * quad - square).max()))
    return CheckReport("inq_nice", samples, worst, tol, worst <= tol,
                       details={"dim": d, "seed": seed})


def check_prop_cauchy(process_samples: int, d: int, n: int, seed: int,
                      horizon: float = 1.0, tol: float = 1e-10) -> CheckReport:
    """Integral Cauchy inequality on piecewise-constant matrix processes.

    Verifies t * sum_k x^T A_k^2 x dt - (sum_k x^T A_k x dt)^2 >= -tol,
    the discrete form whose refinement limit is the continuous inequality.
    """
    rng = np.random.default_rng(seed)
    dt = horizon / n
    worst = -np.inf
    for count in _blocks(process_samples, block=max(1, _BLOCK // max(1, n // 8))):
        a = rng.standard_normal((count, n, d, d))
        a = 0.5 * (a + a.transpose(0, 1, 3, 2))
        x = random_unit_stack(rng, count, d)
        ax = np.einsum("mkij,mj->mki", a, x)
        lin = np.einsum("mi,mki->m", x, ax) * dt
        sq = np.einsum("mki,mki->m", ax, ax) * dt
        worst = max(worst, float((lin * lin - horizon * sq).max()))
    return CheckReport("prop_cauchy", process_samples, worst, tol, worst <= tol,
                       details={"dim": d, "steps": n, "seed": seed})


def estimate_lipschitz(spec: ScalarFunctionSpec, samples: int, d: int, seed: int,
                       psd: bool = False, scale: float = 1.0) -> LipschitzEstimate:
    """Largest sampled ratio x^T (g(A1) - g(A2))^2 x / x^T (A1 - A2)^2 x.

    Pairs whose denominator falls below 1e-14 are skipped; an estimate over
    zero usable pairs is an error.  Blocks are always drawn at full size and
    truncated, so runs with more samples extend shorter runs of the same seed
    and the estimate is monotone non-decreasing in `samples`.
    """
    rng = np.random.default_rng(seed)
    sampler = random_psd_stack if psd else random_symmetric_stack
    ratio_max = 0.0
    kept = 0
    for count in _blocks(samples):
        a1 = sampler(rng, _BLOCK, d, scale)[:count]
        a2 = sampler(rng, _BLOCK, d, scale)[:count]
        x = random_unit_stack(rng, _BLOCK, d)[:count]
        g1 = apply_scalar_fn_stack(spec, a1)
        g2 = apply_scalar_fn_stack(spec, a2)
        gx = np.einsum("mij,mj->mi", g1 - g2, x)
        axv = np.einsum("mij,mj->mi", a1 - a2, x)
        num = np.einsum("mi,mi->m", gx, gx)
        den = np.einsum("mi,mi->m", axv, axv)
        usable = den >= 1e-14
        kept += int(usable.sum())
        if usable.any():
            ratio_max = max(ratio_max, float((num[usable] / den[usable]).max()))
    if kept == 0:
        raise ValueError("all sampled pairs were degenerate (denominator below 1e-14)")
    return LipschitzEstimate(fn_name=spec.name or repr(spec.fn),
                             sampled_ratio_max=ratio_max, sample_count=kept, dims=[d])


def _increment_blocks(grid: TimeGrid, dim: int, seed: int, n_paths: int):
    """Yield the Brownian increments of Philox paths 0..n_paths-1 as
    (count, steps, d, d) blocks of at most _BLOCK paths."""
    for start in range(0, n_paths, _BLOCK):
        count = min(_BLOCK, n_paths - start)
        inc = np.empty((count, grid.steps, dim, dim))
        for i in range(count):
            inc[i] = sample_path(grid, dim, seed, start + i).increments
        yield inc


def _three_se_report(name: str, values: np.ndarray, target_key: str, target: float,
                     seed: int) -> CheckReport:
    """Pass when the mean of the per-path values is within 3 SE of the target."""
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size))
    gap = abs(mean - target)
    return CheckReport(name, values.size, gap - 3.0 * se, 0.0, gap <= 3.0 * se,
                       details={"mean": mean, target_key: target, "se": se, "seed": seed})


def mc_isometry(a_const: SymmetricMatrix, c_const: SymmetricMatrix, x, y,
                paths: int, grid: TimeGrid, seed: int) -> CheckReport:
    """Second-moment identity for the integral of constant matrix processes.

    Compares the Monte Carlo mean of y^T M^2 x, M = A B_tau C the left-point
    integral of A dB C, against the exact time integral of x^T C^T C A A^T y.
    Passes when the gap is within three standard errors; needs at least two
    paths.
    """
    if paths < 2:
        raise ValueError(f"isometry needs at least 2 paths for a standard error, got {paths}")
    d = a_const.dim
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    proc_a = MatrixProcess.constant(grid, a_const)
    proc_c = MatrixProcess.constant(grid, c_const)
    rhs = isometry_rhs(proc_a, proc_c, x, y)

    vals = []
    for inc in _increment_blocks(grid, d, seed, paths):
        m = a_const.entries @ inc.sum(axis=1) @ c_const.entries
        vals.append(m @ m @ x @ y)
    return _three_se_report("mc_isometry", np.concatenate(vals), "rhs", rhs, seed)


def estimate_lemma_beta(a_const: SymmetricMatrix, c_const: SymmetricMatrix,
                        paths: int, grid: TimeGrid, x, seed: int) -> float:
    """Smallest empirical beta bounding the symmetrized second moment.

    Estimates, at every grid time, the ratio of E[x^T (M + M^T)^2 x] to
    |E[x^T M^2 x]| + |E[x^T (M^T)^2 x]| with M the running integral of
    A dB C, and returns the largest ratio across the grid.
    """
    d = a_const.dim
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    n = grid.steps
    sum_sym = np.zeros(n)
    sum_m2 = np.zeros(n)
    sum_mt2 = np.zeros(n)
    for inc in _increment_blocks(grid, d, seed, paths):
        prefix = a_const.entries @ np.cumsum(inc, axis=1) @ c_const.entries
        prefix_t = prefix.transpose(0, 1, 3, 2)
        sym = prefix + prefix_t
        sym_x = np.einsum("pkij,pkjl,l->pki", sym, sym, x)
        sum_sym += np.einsum("i,pki->k", x, sym_x)
        m2_x = np.einsum("pkij,pkjl,l->pki", prefix, prefix, x)
        sum_m2 += np.einsum("i,pki->k", x, m2_x)
        mt2_x = np.einsum("pkij,pkjl,l->pki", prefix_t, prefix_t, x)
        sum_mt2 += np.einsum("i,pki->k", x, mt2_x)
    num = sum_sym / paths
    den = np.abs(sum_m2 / paths) + np.abs(sum_mt2 / paths)
    if (den < 1e-14 * max(1.0, float(np.abs(num).max()))).any():
        raise ValueError("second moments are numerically zero; beta is undefined")
    return float((num / den).max())


def mc_trace_moment(model: SdeModel, paths: int, grid: TimeGrid, seed: int) -> CheckReport:
    """Mean trace of X_tau against trace(X_0) + drift * d * tau, at 3 SE.

    Requires a drift coefficient declared constant (as in the Wishart model)
    and at least two paths, so that the standard error is defined.
    """
    if not model.b.constant:
        raise ValueError("trace-moment oracle requires a constant drift coefficient")
    if paths < 2:
        raise ValueError(f"trace-moment needs at least 2 paths for a standard error, got {paths}")
    alpha = model.b.constant_value()
    expected = model.x0.trace() + alpha * model.dim * grid.horizon

    finals = euler_final_states(model, grid, seed, paths)
    return _three_se_report("trace_moment", np.einsum("pii->p", finals), "expected",
                            expected, seed)


def run_inequality_suite(samples: int, dims, seed: int) -> list:
    """All three operator-inequality checks at each dimension."""
    reports = []
    for d in dims:
        reports.append(check_inq2(samples, d, seed))
        reports.append(check_inq_nice(samples, d, seed + 1))
        reports.append(check_prop_cauchy(samples, d, 32, seed + 2))
    return reports
