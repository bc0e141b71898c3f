"""Solvers for symmetric-matrix diffusions driven by matrix Brownian motion.

The model is dX = g(X) dB f(X) + f(X) dB^T g(X) + b(X) dt with g, f, b scalar
functions lifted through the spectral calculus.  Two solvers share a Brownian
path: explicit Euler-Maruyama stepping, and the fixed-point (Picard) iteration
that rebuilds the whole path from the integral equation, with per-iteration
sup-distance diagnostics and a factorial-decay rate fit.

States are assembled from exactly symmetric summands, so every state of every
solution is exactly symmetric.  Positive semidefiniteness is NOT enforced on
states; the per-state minimum eigenvalue is recorded instead so callers can
see how far a discretized path strays outside the cone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .brownian import BrownianPath, TimeGrid, sample_path
from .symmat import (
    ScalarFunctionSpec,
    SymmetricMatrix,
    _lift,
    clipped_sqrt_fn,
    constant_fn,
    is_psd,
    min_eigenvalues_stack,
    spectral_decompose_stack,
)

__all__ = [
    "WallachSetWarning",
    "SdeModel",
    "PathSolution",
    "ContractionFit",
    "PicardDiagnostics",
    "euler_step",
    "euler_solve",
    "euler_final_states",
    "picard_solve",
    "wishart_model",
    "in_wallach_set",
    "default_test_vectors",
    "fit_contraction_rate",
]


# paths stepped together by `euler_final_states`; results do not depend on it
_EULER_BLOCK = 2048


class WallachSetWarning(UserWarning):
    """The Wishart drift parameter lies outside the admissible set."""


@dataclass(frozen=True)
class SdeModel:
    """Coefficients g, f, b (with declared bounds) and the initial state."""

    g: ScalarFunctionSpec
    f: ScalarFunctionSpec
    b: ScalarFunctionSpec
    x0: SymmetricMatrix
    requires_psd_start: bool = False

    def __post_init__(self) -> None:
        for label, spec in (("g", self.g), ("f", self.f), ("b", self.b)):
            if spec.bound is None:
                raise ValueError(f"coefficient {label} must declare a bound")
        if self.requires_psd_start and not is_psd(self.x0, tol=1e-10):
            raise ValueError("initial state must be positive semidefinite for this model")

    @property
    def dim(self) -> int:
        return self.x0.dim


class PathSolution:
    """States X_{t_0}, ..., X_{t_n} of one solve, plus min-eigenvalue telemetry."""

    __slots__ = ("grid", "_states", "method", "path_seed", "min_eigenvalues")

    def __init__(self, grid: TimeGrid, states: np.ndarray, method: str,
                 path_seed, min_eigenvalues: np.ndarray) -> None:
        states = np.asarray(states, dtype=np.float64)
        if states.shape[0] != grid.steps + 1:
            raise ValueError("states must hold one matrix per grid point")
        states.setflags(write=False)
        self.grid = grid
        self._states = states
        self.method = method
        self.path_seed = path_seed
        self.min_eigenvalues = np.asarray(min_eigenvalues, dtype=np.float64)

    @property
    def states(self) -> np.ndarray:
        """Read-only (steps + 1, d, d) array of states."""
        return self._states

    @property
    def dim(self) -> int:
        return self._states.shape[1]

    def state_at(self, k: int) -> SymmetricMatrix:
        return SymmetricMatrix(self._states[k])

    def final_state(self) -> SymmetricMatrix:
        return SymmetricMatrix(self._states[-1])


@dataclass(frozen=True)
class ContractionFit:
    """Least-squares fit of the per-iteration distances to c * r^n / n!."""

    c: float
    beta: float

    def bound_at(self, n: int, horizon: float) -> float:
        log_val = math.log(self.c) + n * math.log(self.beta * horizon) - math.lgamma(n + 1)
        return math.exp(log_val)


@dataclass
class PicardDiagnostics:
    iterates_kept: int
    d_n: np.ndarray
    test_vectors: np.ndarray
    converged: bool
    rate_fit: Optional[ContractionFit]


def _lift_gfb(model: SdeModel, stack: np.ndarray):
    """Lift g, f, b over a stack of states with a single shared decomposition.

    Returns exactly symmetric (m, d, d) arrays plus each state's smallest
    eigenvalue.  A coefficient declared constant lifts to value * I.
    """
    lam, vec = spectral_decompose_stack(stack)
    out = []
    for spec in (model.g, model.f, model.b):
        if spec.constant:
            eye = spec.constant_value() * np.eye(stack.shape[1])
            out.append(np.broadcast_to(eye, stack.shape))
        else:
            lifted = _lift(vec, spec.map_eigenvalues(lam))
            out.append(0.5 * (lifted + lifted.transpose(0, 2, 1)))
    return out[0], out[1], out[2], lam[:, 0]


def _increment(g_x, f_x, b_x, db: np.ndarray, dt: float) -> np.ndarray:
    """The Euler increment g dB f + (g dB f)^T + b dt of every stacked state:
    the summand of both the Euler step and the Picard map."""
    m = g_x @ db @ f_x
    return (m + m.transpose(0, 2, 1)) + b_x * dt


def _advance(model: SdeModel, x: np.ndarray, db: np.ndarray, dt: float):
    """One Euler step on a (P, d, d) stack: X + g dB f + (g dB f)^T + b dt.

    Returns the next stack and the smallest eigenvalue of each input state.
    """
    g_x, f_x, b_x, lam_min = _lift_gfb(model, x)
    return x + _increment(g_x, f_x, b_x, db, dt), lam_min


def euler_step(model: SdeModel, x_k: SymmetricMatrix, db: np.ndarray, dt: float) -> SymmetricMatrix:
    """One explicit step: X + g(X) dB f(X) + f(X) dB^T g(X) + b(X) dt."""
    db = np.asarray(db, dtype=np.float64)[None, :, :]
    nxt, _ = _advance(model, x_k.entries[None, :, :], db, dt)
    return SymmetricMatrix(nxt[0])


def euler_solve(model: SdeModel, path: BrownianPath) -> PathSolution:
    """Euler-Maruyama recursion over the whole path."""
    if path.dim != model.dim:
        raise ValueError(f"dimension mismatch: model d={model.dim} vs path d={path.dim}")
    grid = path.grid
    n, d, dt = grid.steps, model.dim, grid.dt
    states = np.empty((n + 1, d, d))
    min_eigs = np.empty(n + 1)
    states[0] = model.x0.entries
    for k in range(n):
        nxt, lam_min = _advance(model, states[k:k + 1], path.increments[k:k + 1], dt)
        min_eigs[k] = lam_min[0]
        states[k + 1] = nxt[0]
    min_eigs[n] = min_eigenvalues_stack(states[n:])[0]
    return PathSolution(grid, states, "euler", (path.seed, path.path_index), min_eigs)


def euler_final_states(model: SdeModel, grid: TimeGrid, seed: int, n_paths: int) -> np.ndarray:
    """Final states X_tau of many independent Euler solves, stepped in blocks.

    Path `i` uses the same Philox stream as `sample_path(grid, d, seed, i)`,
    so results match per-path solves and are independent of the blocking.
    """
    d, n, dt = model.dim, grid.steps, grid.dt
    finals = np.empty((n_paths, d, d))
    for start in range(0, n_paths, _EULER_BLOCK):
        count = min(_EULER_BLOCK, n_paths - start)
        inc = np.empty((count, n, d, d))
        for i in range(count):
            inc[i] = sample_path(grid, d, seed, start + i).increments
        x = np.broadcast_to(model.x0.entries, (count, d, d)).copy()
        for k in range(n):
            x, _ = _advance(model, x, inc[:, k], dt)
        finals[start:start + count] = x
    return finals


def default_test_vectors(d: int, extra: int = 8, seed: int = 0) -> np.ndarray:
    """Canonical basis plus `extra` random unit vectors, fixed by seed."""
    rng = np.random.default_rng(seed)
    vecs = [np.eye(d)]
    if extra > 0:
        raw = rng.standard_normal((extra, d))
        vecs.append(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    return np.vstack(vecs)


def fit_contraction_rate(d_n: Sequence[float], horizon: float,
                         skip: int = 2, min_points: int = 3) -> Optional[ContractionFit]:
    """Fit c * (beta * horizon)^n / n! to the tail of a distance sequence.

    Fits log d_n + log n! linearly in n over the strictly positive entries
    past the first `skip`; returns None when too few points remain.
    """
    pts = [(k, v) for k, v in enumerate(d_n, start=1) if v > 0.0]
    pts = pts[skip:]
    if len(pts) < min_points:
        return None
    ks = np.array([k for k, _ in pts], dtype=np.float64)
    ys = np.array([math.log(v) + math.lgamma(k + 1) for k, v in pts])
    slope, intercept = np.polyfit(ks, ys, 1)
    return ContractionFit(c=float(np.exp(intercept)), beta=float(np.exp(slope)) / horizon)


def picard_solve(model: SdeModel, path: BrownianPath, max_iter: int = 25,
                 stop_tol: float = 1e-10,
                 test_vectors: Optional[np.ndarray] = None):
    """Fixed-point iteration of the integral equation on one frozen path.

    Starting from the constant path X0, each iteration rebuilds the grid path
    as X0 plus the running sum of Euler increments taken at the previous
    iterate, so the fixed point is the Euler path.  The per-iteration
    diagnostic is the sup over grid times and test vectors of
    |x^T (X_new - X_old) x|; iteration stops once it falls below `stop_tol`.
    Non-convergence within `max_iter` is reported, not raised.

    Returns (PathSolution, PicardDiagnostics).
    """
    if path.dim != model.dim:
        raise ValueError(f"dimension mismatch: model d={model.dim} vs path d={path.dim}")
    grid = path.grid
    n, d, dt = grid.steps, model.dim, grid.dt
    if test_vectors is None:
        test_vectors = default_test_vectors(d)
    tv = np.asarray(test_vectors, dtype=np.float64)

    x0 = model.x0.entries
    prev = np.broadcast_to(x0, (n + 1, d, d)).copy()
    distances = []
    converged = False
    for _ in range(max_iter):
        g_x, f_x, b_x, _ = _lift_gfb(model, prev)
        steps = _increment(g_x[:n], f_x[:n], b_x[:n], path.increments, dt)
        nxt = np.zeros((n + 1, d, d))
        np.cumsum(steps, axis=0, out=nxt[1:])
        nxt += x0

        diff = nxt - prev
        d_iter = float(np.abs(((diff @ tv.T) * tv.T).sum(axis=1)).max())
        distances.append(d_iter)
        prev = nxt
        if d_iter < stop_tol:
            converged = True
            break

    rate = fit_contraction_rate(distances, grid.horizon)
    solution = PathSolution(grid, prev, "picard", (path.seed, path.path_index),
                            min_eigenvalues_stack(prev))
    diagnostics = PicardDiagnostics(
        iterates_kept=len(distances),
        d_n=np.array(distances),
        test_vectors=tv,
        converged=converged,
        rate_fit=rate,
    )
    return solution, diagnostics


def in_wallach_set(alpha: float, d: int) -> bool:
    """Membership in {1, ..., d-1} union [d-1, inf)."""
    if alpha >= d - 1:
        return True
    nearest = round(alpha)
    return 1 <= nearest <= d - 1 and abs(alpha - nearest) <= 1e-12


def wishart_model(d: int, alpha: float, x0: Optional[SymmetricMatrix] = None,
                  sqrt_clip_bound: float = 1e6) -> SdeModel:
    """The Wishart diffusion dX = sqrt(X) dB + dB^T sqrt(X) + alpha I dt.

    The square root is clipped at `sqrt_clip_bound` so the coefficients are
    bounded; desk-scale paths never reach the clip.  A drift parameter outside
    the Wallach set only triggers a warning: the discretized dynamics remain
    well defined for any alpha.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if not sqrt_clip_bound > 0:
        raise ValueError("sqrt_clip_bound must be positive")
    if x0 is None:
        x0 = SymmetricMatrix.zeros(d)
    if not in_wallach_set(alpha, d):
        warnings.warn(
            f"alpha={alpha} is outside the Wallach set for d={d}; "
            "simulating anyway", WallachSetWarning, stacklevel=2,
        )
    return SdeModel(
        g=clipped_sqrt_fn(sqrt_clip_bound),
        f=constant_fn(1.0),
        b=constant_fn(float(alpha)),
        x0=x0,
        requires_psd_start=True,
    )
