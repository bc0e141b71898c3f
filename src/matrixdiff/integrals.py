"""Matrix Ito integrals on a grid, left-point rule throughout.

The two-sided integrands sum A_{t_m} dB_m C_{t_m} over grid steps, always
evaluating the integrand processes at the left endpoint.  The plain integral
returns a general (not symmetric) matrix; only the symmetrized combination
M + M^T is promoted back into the symmetric space.
"""

from __future__ import annotations

import numpy as np

from .brownian import BrownianPath, TimeGrid
from .symmat import SymmetricMatrix

__all__ = [
    "MatrixProcess",
    "ito_integral",
    "ito_integral_transposed",
    "symmetrized_diffusion",
    "isometry_rhs",
    "time_integral",
]


class MatrixProcess:
    """Grid-adapted process of symmetric matrices: one value per grid point.

    `values[k]` is the state at t_k, so a process on an n-step grid holds
    n + 1 matrices.  Adaptedness is structural: solvers only ever build
    values[k] from path information up to t_k.
    """

    __slots__ = ("grid", "_values")

    def __init__(self, grid: TimeGrid, values) -> None:
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != grid.steps + 1 or arr.shape[1] != arr.shape[2]:
            raise ValueError(
                f"values must have shape (steps + 1, d, d) = ({grid.steps + 1}, d, d), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("process values must be finite")
        skew = np.abs(arr - arr.transpose(0, 2, 1)).max()
        if skew > 1e-8 * max(1.0, np.abs(arr).max()):
            raise ValueError(f"process values must be symmetric (worst asymmetry {skew:.3e})")
        arr = 0.5 * (arr + arr.transpose(0, 2, 1))
        arr.setflags(write=False)
        self.grid = grid
        self._values = arr

    @property
    def dim(self) -> int:
        return self._values.shape[1]

    @property
    def values(self) -> np.ndarray:
        """Read-only (steps + 1, d, d) array."""
        return self._values

    @classmethod
    def constant(cls, grid: TimeGrid, matrix: SymmetricMatrix) -> "MatrixProcess":
        values = np.broadcast_to(matrix.entries, (grid.steps + 1, matrix.dim, matrix.dim))
        return cls(grid, values)

    def value_at(self, k: int) -> SymmetricMatrix:
        return SymmetricMatrix(self._values[k])


def _check_alignment(path: BrownianPath, *processes: MatrixProcess) -> None:
    for proc in processes:
        if proc.grid != path.grid:
            raise ValueError(
                f"grid mismatch: process on {proc.grid} vs path on {path.grid}"
            )
        if proc.dim != path.dim:
            raise ValueError(f"dimension mismatch: process d={proc.dim} vs path d={path.dim}")


def _resolve_k_end(grid: TimeGrid, k_end) -> int:
    k = grid.steps if k_end is None else int(k_end)
    if k < 0 or k > grid.steps:
        raise IndexError(f"grid index {k} out of range [0, {grid.steps}]")
    return k


def ito_integral(a: MatrixProcess, path: BrownianPath, c: MatrixProcess, k_end=None) -> np.ndarray:
    """Left-point sum of A_{t_m} dB_m C_{t_m} for m < k_end.

    Returns a general d x d array; it is symmetric only in special cases.
    """
    _check_alignment(path, a, c)
    k = _resolve_k_end(path.grid, k_end)
    if k == 0:
        return np.zeros((path.dim, path.dim))
    terms = np.einsum("mij,mjk,mkl->mil", a.values[:k], path.increments[:k], c.values[:k])
    return terms.sum(axis=0)


def ito_integral_transposed(c: MatrixProcess, path: BrownianPath, a: MatrixProcess, k_end=None) -> np.ndarray:
    """Left-point sum of C_{t_m} dB_m^T A_{t_m}; the transpose of `ito_integral`."""
    return ito_integral(a, path, c, k_end).T


def symmetrized_diffusion(a: MatrixProcess, path: BrownianPath, c: MatrixProcess, k_end=None) -> SymmetricMatrix:
    """The symmetric noise term: M + M^T with M the plain integral."""
    m = ito_integral(a, path, c, k_end)
    return SymmetricMatrix(m + m.T)


def isometry_rhs(a: MatrixProcess, c: MatrixProcess, x, y, k_end=None) -> float:
    """Single-path value of the time integral of x^T C^T C A A^T y.

    For deterministic processes this is already the exact right-hand side of
    the second-moment identity; for random ones it is one sample of it.
    """
    if a.grid != c.grid or a.dim != c.dim:
        raise ValueError("processes must share grid and dimension")
    k = _resolve_k_end(a.grid, k_end)
    if k == 0:
        return 0.0
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    av, cv = a.values[:k], c.values[:k]
    integrand = np.einsum("i,mji,mjk,mkl,mrl,r->m", x, cv, cv, av, av, y)
    return float(integrand.sum() * a.grid.dt)


def time_integral(p: MatrixProcess, k_end=None) -> SymmetricMatrix:
    """Left-point Riemann sum of the process over [0, t_{k_end}]."""
    k = _resolve_k_end(p.grid, k_end)
    if k == 0:
        return SymmetricMatrix(np.zeros((p.dim, p.dim)))
    return SymmetricMatrix(p.values[:k].sum(axis=0) * p.grid.dt)
