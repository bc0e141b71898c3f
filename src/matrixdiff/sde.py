"""Solvers for symmetric-matrix diffusions driven by matrix Brownian motion.

The model is dX = g(X) dB f(X) + f(X) dB^T g(X) + b(X) dt with g, f, b scalar
functions lifted through the spectral calculus.  Two solvers share a Brownian
path: Euler-Maruyama stepping, one loop over the steps of a stack of paths,
and the fixed-point (Picard) iteration that rebuilds the whole path from the
integral equation, with per-iteration sup distances and a factorial-decay fit.
Each step or sweep lifts the coefficients over its whole stack of states from
one guarded decomposition: at d = 2 by `lift_2x2`, whose rotation products come
from the double angle with no trigonometry, at d >= 3 from the eigenvectors of
`spectral_decompose_stack`.

States are assembled from exactly symmetric summands, so every state of every
solution is exactly symmetric.  Positive semidefiniteness is NOT enforced on
states; each solution derives its states' minimum eigenvalues instead, so
callers can see how far a discretized path strays outside the cone.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Optional, Sequence

import numpy as np

from .brownian import BrownianPath, TimeGrid, _count
from .symmat import (
    ScalarFunctionSpec,
    SymmetricMatrix,
    _empty_2x2,
    _lift,
    _unit,
    clipped_sqrt_fn,
    constant_fn,
    is_psd,
    lift_2x2,
    min_eigenvalues_stack,
    spectral_decompose_stack,
)

__all__ = [
    "WallachSetWarning",
    "SdeModel",
    "PathSolution",
    "ContractionFit",
    "PicardDiagnostics",
    "euler_solve_paths",
    "euler_final_states",
    "picard_solve",
    "wishart_model",
    "in_wallach_set",
    "default_test_vectors",
    "fit_contraction_rate",
]


class WallachSetWarning(UserWarning):
    """The Wishart drift parameter lies outside the admissible set."""


@dataclass(frozen=True)
class SdeModel:
    """Coefficients g, f, b (with declared bounds) and the initial state."""

    g: ScalarFunctionSpec
    f: ScalarFunctionSpec
    b: ScalarFunctionSpec
    x0: SymmetricMatrix

    def __post_init__(self) -> None:
        for label, spec in (("g", self.g), ("f", self.f), ("b", self.b)):
            if spec.bound is None:
                raise ValueError(f"coefficient {label} must declare a bound")

    @property
    def dim(self) -> int:
        return self.x0.dim


class PathSolution:
    """States X_{t_0}, ..., X_{t_n} of one solve; `min_eigenvalues` is derived from them."""

    __slots__ = ("grid", "_states", "min_eigenvalues")

    def __init__(self, grid: TimeGrid, states: np.ndarray) -> None:
        states = np.asarray(states, dtype=np.float64)
        if states.shape[0] != grid.steps + 1:
            raise ValueError("states must hold one matrix per grid point")
        states.setflags(write=False)
        self.grid = grid
        self._states = states
        self.min_eigenvalues = min_eigenvalues_stack(states)

    @property
    def states(self) -> np.ndarray:
        """Read-only (steps + 1, d, d) array of states."""
        return self._states


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
    converged: bool
    rate_fit: Optional[ContractionFit]


def _lift_gfb(model: SdeModel, stack: np.ndarray):
    """Lift g, f, b over a stack of states with a single shared decomposition.

    Returns, per coefficient, its exactly symmetric (m, d, d) lift, or the
    float value of a coefficient declared constant (standing for value * I).
    At d = 2 the lifts are `lift_2x2`'s, whose rotation products come from the
    double angle; d >= 3 lifts the eigenvectors of `spectral_decompose_stack`.
    """
    specs = (model.g, model.f, model.b)
    varying = [spec for spec in specs if not spec.constant]
    if stack.shape[-1] == 2:
        lifts = iter(lift_2x2(stack, varying))
    else:
        lam, vec = spectral_decompose_stack(stack)
        lifts = (_lift(vec, spec.map_eigenvalues(lam)) for spec in varying)
    return tuple(spec.constant_value if spec.constant else next(lifts) for spec in specs)


def _planes(a):
    """Rows of the entry planes a[:, i, j] of a (m, 2, 2) stack; a float c,
    standing for c * I, stays a float."""
    return a if isinstance(a, float) else ((a[:, 0, 0], a[:, 0, 1]), (a[:, 1, 0], a[:, 1, 1]))


def _times_2x2(a, b):
    """The product of two d = 2 operands given as `_planes`, as planes: a float
    scales the other operand's planes, which 1.0 returns as they are (v * 1.0 is
    v, bit for bit), and two matrices multiply entry by entry as
    a_i0 b_0j + a_i1 b_1j, in plain IEEE arithmetic."""
    if isinstance(a, float):
        return b if a == 1.0 else tuple(tuple(v * a for v in row) for row in b)
    if isinstance(b, float):
        return a if b == 1.0 else tuple(tuple(v * b for v in row) for row in a)
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


def _increment(g_x, f_x, b_x, db: np.ndarray, dt: float) -> np.ndarray:
    """The Euler increment g dB f + (g dB f)^T + b dt of every stacked state:
    the summand of both the Euler step and the Picard map.

    A float coefficient c stands for c * I and enters as a scalar: dB * c,
    (g dB) * c, and (c dt) * I for the drift.  These are the bits of the
    products with c * I, whose other terms are exact zeros, up to the sign of
    a zero.  At d = 2 the increment is written out on the entry planes, as
    `_lift` is, so its products are plain IEEE arithmetic, whose bits depend on
    neither the BLAS kernel nor the stack size, into a stack of `_empty_2x2`;
    d >= 3 multiplies with `@`.
    """
    if db.shape[-1] == 2:
        (m00, m01), (m10, m11) = _times_2x2(_times_2x2(_planes(g_x), _planes(db)), _planes(f_x))
        inc = _empty_2x2(db.shape[0])
        np.add(m00, m00, out=inc[:, 0, 0])
        np.add(m01, m10, out=inc[:, 0, 1])
        np.add(m11, m11, out=inc[:, 1, 1])
        inc[:, 1, 0] = inc[:, 0, 1]
        drift = b_x * dt
        if isinstance(drift, float):  # the diagonal alone, so an off-diagonal -0.0 stays
            inc[:, 0, 0] += drift
            inc[:, 1, 1] += drift
        else:  # an exactly symmetric lift
            inc += drift
        return inc
    g_db = db * g_x if isinstance(g_x, float) else g_x @ db
    m = g_db * f_x if isinstance(f_x, float) else g_db @ f_x
    inc = m + m.transpose(0, 2, 1)
    inc += (b_x * dt) * np.eye(inc.shape[-1]) if isinstance(b_x, float) else b_x * dt
    return inc


def _advance(model: SdeModel, x: np.ndarray, db: np.ndarray, dt: float) -> np.ndarray:
    """One Euler step on a (P, d, d) stack: X + g dB f + (g dB f)^T + b dt."""
    nxt = _increment(*_lift_gfb(model, x), db, dt)
    nxt += x
    return nxt


def _euler(model: SdeModel, inc: np.ndarray, dt: float) -> Iterator[np.ndarray]:
    """The (P, d, d) stacks X0, X_{t_1}, ..., X_{t_n} of P paths with step-major
    increments (n, P, d, d); each path's states are those it has stepped alone."""
    x0 = np.broadcast_to(model.x0.entries, inc.shape[1:])
    return accumulate(inc, lambda x, db: _advance(model, x, db, dt), initial=x0)


def euler_solve_paths(model: SdeModel, paths: Sequence[BrownianPath]) -> list[PathSolution]:
    """Euler-Maruyama recursion over paths on one grid, stepped as one stack; no
    paths, paths on two grids or of a dimension not the model's raise `ValueError`."""
    if not paths:
        raise ValueError("euler_solve_paths needs at least one path")
    grid = paths[0].grid
    for path in paths:
        if path.dim != model.dim:
            raise ValueError(f"dimension mismatch: model d={model.dim} vs path d={path.dim}")
        if path.grid != grid:
            raise ValueError(f"paths must share one time grid: {path.grid} vs {grid}")
    inc = np.stack([path.increments for path in paths], axis=1)
    states = np.stack(list(_euler(model, inc, grid.dt)), axis=1)  # (P, n + 1, d, d)
    return [PathSolution(grid, path_states) for path_states in states]


def euler_final_states(model: SdeModel, grid: TimeGrid, increments: np.ndarray) -> np.ndarray:
    """Final states X_tau of P paths on `grid`, stepped as one stack.

    `increments` are step-major, (grid.steps, P, d, d) with d the model's
    dimension, and any other shape raises `ValueError`.  Each path's final
    state has the bits of the path stepped alone.  No memory layout is
    promised: at d = 2 the (P, d, d) result is laid out plane by plane.
    """
    inc = np.asarray(increments, dtype=np.float64)
    if inc.ndim != 4 or inc.shape[0] != grid.steps or inc.shape[2:] != (model.dim, model.dim):
        raise ValueError(f"increments must have shape (steps, P, d, d) = "
                         f"({grid.steps}, P, {model.dim}, {model.dim}), got {inc.shape}")
    return deque(_euler(model, inc, grid.dt), maxlen=1).pop()


@functools.cache
def default_test_vectors(d: int) -> np.ndarray:
    """Canonical basis plus 8 random unit vectors, fixed by seed 0: one
    read-only (d + 8, d) array per dimension, built on the first call."""
    raw = np.random.default_rng(0).standard_normal((8, d))
    tv = np.vstack([np.eye(d), raw / np.linalg.norm(raw, axis=1, keepdims=True)])
    tv.setflags(write=False)
    return tv


def fit_contraction_rate(d_n: Sequence[float], horizon: float) -> Optional[ContractionFit]:
    """Fit c * (beta * horizon)^n / n! to the tail of a distance sequence.

    Fits log d_n + log n! linearly in n over the strictly positive entries
    past the first two; returns None when fewer than three points remain.
    """
    pts = [(k, v) for k, v in enumerate(d_n, start=1) if v > 0.0]
    pts = pts[2:]
    if len(pts) < 3:
        return None
    ks = np.array([k for k, _ in pts], dtype=np.float64)
    ys = np.array([math.log(v) + math.lgamma(k + 1) for k, v in pts])
    slope, intercept = np.polyfit(ks, ys, 1)
    return ContractionFit(c=float(np.exp(intercept)), beta=float(np.exp(slope)) / horizon)


def picard_solve(model: SdeModel, path: BrownianPath, max_iter: int = 25,
                 stop_tol: float = 1e-10):
    """Fixed-point iteration of the integral equation on one frozen path.

    Starting from the constant path X0, each iteration rebuilds the grid path
    as X0 plus the running sum of Euler increments taken at the previous
    iterate, so the fixed point is the Euler path.  The per-iteration
    diagnostic is the sup over grid times and `default_test_vectors(d)` of
    |x^T (X_new - X_old) x|; iteration stops once it falls below `stop_tol`.
    Non-convergence within `max_iter` is reported, not raised; a `max_iter`
    that is no integer >= 1, a `stop_tol` that is not positive and finite, or
    an iterate whose distance is not finite raises `ValueError`.

    Returns (PathSolution, PicardDiagnostics).
    """
    if path.dim != model.dim:
        raise ValueError(f"dimension mismatch: model d={model.dim} vs path d={path.dim}")
    max_iter = _count("max_iter", max_iter, f"max_iter must be at least 1, got {max_iter}")
    if not (stop_tol > 0 and math.isfinite(stop_tol)):
        raise ValueError(f"stop_tol must be positive and finite, got {stop_tol!r}")
    grid = path.grid
    n, d, dt = grid.steps, model.dim, grid.dt
    tv = default_test_vectors(d)

    x0 = model.x0.entries
    prev = np.broadcast_to(x0, (n + 1, d, d)).copy()
    distances = []
    converged = False
    for _ in range(max_iter):
        # the last state's lift is not a summand; a float stands for every state
        lifts = (c if isinstance(c, float) else c[:n] for c in _lift_gfb(model, prev))
        steps = _increment(*lifts, path.increments, dt)
        nxt = np.zeros((n + 1, d, d))
        np.cumsum(steps, axis=0, out=nxt[1:])
        nxt += x0

        # x^T (X_new - X_old) x of every state and test vector: the stacked
        # product (X_new - X_old) x, then x_i times its entry i, summed over i in order
        diff_x = ((nxt - prev).reshape(-1, d) @ tv.T).reshape(n + 1, d, -1)
        form = diff_x[:, 0] * tv[:, 0]
        for i in range(1, d):
            form += diff_x[:, i] * tv[:, i]
        d_iter = float(np.abs(form).max())
        if not math.isfinite(d_iter):  # an overflow decides nothing; stop before max_iter
            raise ValueError(f"Picard iterate {len(distances) + 1} is not finite")
        distances.append(d_iter)
        prev = nxt
        if d_iter < stop_tol:
            converged = True
            break

    fit = fit_contraction_rate(distances, grid.horizon)
    return PathSolution(grid, prev), PicardDiagnostics(len(distances), np.array(distances),
                                                       converged, fit)


def in_wallach_set(alpha: float, d: int) -> bool:
    """Membership in {1, ..., d-1} union [d-1, inf) of a finite alpha."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
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
    well defined for any alpha.  A d that is no integer >= 1, a start that is
    not d x d, or not positive semidefinite (its least eigenvalue below
    -1e-10 ||x0||_F over its own scale), is a `ValueError`.
    """
    d = _count("d", d)
    if x0 is None:
        x0 = SymmetricMatrix.zeros(d)
    elif x0.dim != d:
        raise ValueError(f"dimension mismatch: model d={d} vs x0 d={x0.dim}")
    if not in_wallach_set(alpha, d):
        warnings.warn(
            f"alpha={alpha} is outside the Wallach set for d={d}; "
            "simulating anyway", WallachSetWarning, stacklevel=2,
        )
    model = SdeModel(g=clipped_sqrt_fn(sqrt_clip_bound), f=constant_fn(1.0),
                     b=constant_fn(float(alpha)), x0=x0)
    # over the start's own scale, as the symmetry rule is, so the tolerance stays finite
    unit = SymmetricMatrix(_unit(x0.entries)[0])
    if not is_psd(unit, tol=1e-10 * unit.frobenius_norm()):
        raise ValueError("initial state must be positive semidefinite for this model")
    return model
