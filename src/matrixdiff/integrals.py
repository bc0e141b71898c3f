"""Matrix Ito integrals on a grid, left-point rule throughout.

The two-sided integral sums A_{t_m} dB_m C_{t_m} over grid steps, always
evaluating the integrand processes at the left endpoint, and returns a general
(not symmetric) matrix.  `isometry_rhs` is the deterministic side of the
second-moment identity for such an integral.
"""

from __future__ import annotations

import numpy as np

from .brownian import BrownianPath, TimeGrid
from .symmat import SymmetricMatrix, _symmetric

__all__ = [
    "MatrixProcess",
    "ito_integral",
    "isometry_rhs",
]


class MatrixProcess:
    """Grid-adapted process of symmetric matrices: one value per grid point.

    `values[k]` is the state at t_k, so a process on an n-step grid holds
    n + 1 matrices.  Adaptedness is structural: solvers only ever build
    values[k] from path information up to t_k.  The values pass the symmetry
    rule of `SymmetricMatrix`, matrix by matrix.
    """

    __slots__ = ("grid", "_values")

    def __init__(self, grid: TimeGrid, values) -> None:
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != grid.steps + 1 or arr.shape[1] != arr.shape[2]:
            raise ValueError(
                f"values must have shape (steps + 1, d, d) = ({grid.steps + 1}, d, d), got {arr.shape}"
            )
        self.grid = grid
        self._values = _symmetric(arr)

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


def _check_alignment(path: BrownianPath, *processes: MatrixProcess) -> None:
    for proc in processes:
        if proc.grid != path.grid:
            raise ValueError(
                f"grid mismatch: process on {proc.grid} vs path on {path.grid}"
            )
        if proc.dim != path.dim:
            raise ValueError(f"dimension mismatch: process d={proc.dim} vs path d={path.dim}")


def ito_integral(a: MatrixProcess, path: BrownianPath, c: MatrixProcess) -> np.ndarray:
    """Left-point sum of A_{t_m} dB_m C_{t_m} over every grid step.

    Returns a general d x d array; it is symmetric only in special cases.
    """
    _check_alignment(path, a, c)
    return (a.values[:-1] @ path.increments @ c.values[:-1]).sum(axis=0)


def isometry_rhs(a: MatrixProcess, c: MatrixProcess, x, y) -> float:
    """Single-path value of the time integral of x^T C^T C A A^T y.

    For deterministic processes this is already the exact right-hand side of
    the second-moment identity; for random ones it is one sample of it.
    """
    if a.grid != c.grid or a.dim != c.dim:
        raise ValueError("processes must share grid and dimension")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    av, cv = a.values[:-1], c.values[:-1]
    row = (cv @ x)[:, None, :]  # x^T C^T per step
    col = (y @ av)[:, :, None]  # A^T y per step
    return float((row @ cv @ av @ col).sum() * a.grid.dt)
