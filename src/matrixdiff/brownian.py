"""Matrix Brownian motion on equidistant time grids.

A path is a d x d matrix of independent scalar Brownian motions sampled as
Gaussian increments on the grid.  Randomness comes from counter-based Philox
streams keyed by (master seed, path index), so independent paths can be drawn
in any order, or in parallel, and still reproduce bit-identically.
`sample_path` keeps one Philox generator per thread and resets it to the start
of the path's stream before drawing, so its draws equal those of a fresh
`path_generator(seed, path_index)` without building a generator per path.

The path matrices are NOT symmetric: all d^2 entries are independent motions.
Only the diffusion states built on top of them live in the symmetric space.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "BrownianPath",
    "path_generator",
    "sample_path",
    "coarsen_path",
    "dump_increments",
    "load_increments",
]

_HEADER_FORMAT = "<IIdQ"  # dim, steps, horizon, seed (little-endian)
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)  # the state setter copies it
_streams = threading.local()


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant grid 0 = t_0 < t_1 < ... < t_n = horizon."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def _philox_key(seed: int, path_index: int) -> np.ndarray:
    return np.array([np.uint64(seed), np.uint64(path_index)], dtype=np.uint64)


def path_generator(seed: int, path_index: int = 0) -> np.random.Generator:
    """Philox generator for the stream keyed by (seed, path_index)."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, path_index)))


def _stream(seed: int, path_index: int) -> np.random.Generator:
    """This thread's generator, reset to the state of a fresh
    `path_generator(seed, path_index)`: zero counter, the key, empty buffer."""
    gen = getattr(_streams, "generator", None)
    if gen is None:
        gen = _streams.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_ZEROS, "key": _philox_key(seed, path_index)},
        "buffer": _PHILOX_ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


class BrownianPath:
    """Increments of a d x d matrix Brownian motion on a time grid.

    `increments[k]` is B_{t_{k+1}} - B_{t_k}, a full (not symmetric) d x d
    matrix of independent Normal(0, dt) draws.  `value_at(k)` returns the
    cumulative sum B_{t_k}, with B_0 = 0.
    """

    __slots__ = ("grid", "_increments", "seed", "path_index", "_partials")

    def __init__(self, grid: TimeGrid, increments, seed: int = 0, path_index: int = 0) -> None:
        arr = np.array(increments, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != grid.steps or arr.shape[1] != arr.shape[2]:
            raise ValueError(
                f"increments must have shape (steps, d, d) = ({grid.steps}, d, d), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("increments must be finite")
        self._adopt(grid, arr, seed, path_index)

    def _adopt(self, grid: TimeGrid, arr: np.ndarray, seed: int, path_index: int) -> None:
        arr.setflags(write=False)
        self.grid = grid
        self._increments = arr
        self.seed = int(seed)
        self.path_index = int(path_index)
        self._partials = None

    @property
    def dim(self) -> int:
        return self._increments.shape[1]

    @property
    def increments(self) -> np.ndarray:
        return self._increments

    @classmethod
    def zeros(cls, grid: TimeGrid, dim: int) -> "BrownianPath":
        """The deterministic zero path (useful for drift-only solves)."""
        return cls(grid, np.zeros((grid.steps, dim, dim)))

    def value_at(self, k: int) -> np.ndarray:
        """B_{t_k}: the sum of the first k increments; k = 0 gives zeros."""
        if k < 0 or k > self.grid.steps:
            raise IndexError(f"grid index {k} out of range [0, {self.grid.steps}]")
        if self._partials is None:
            d = self.dim
            partials = np.zeros((self.grid.steps + 1, d, d))
            np.cumsum(self._increments, axis=0, out=partials[1:])
            partials.setflags(write=False)
            self._partials = partials
        return self._partials[k]


def sample_path(grid: TimeGrid, dim: int, seed: int, path_index: int = 0) -> BrownianPath:
    """Draw one matrix Brownian path from the (seed, path_index) Philox stream."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    increments = _stream(seed, path_index).standard_normal((grid.steps, dim, dim))
    increments *= np.sqrt(grid.dt)
    # normal draws times the root of a finite dt are finite, and the array is
    # this call's own: adopt it without the constructor's copy and check
    path = BrownianPath.__new__(BrownianPath)
    path._adopt(grid, increments, seed, path_index)
    return path


def coarsen_path(path: BrownianPath, factor: int) -> BrownianPath:
    """Restrict a path to every `factor`-th grid point by summing increments."""
    if factor < 1 or path.grid.steps % factor != 0:
        raise ValueError(f"factor {factor} must divide the step count {path.grid.steps}")
    n_coarse = path.grid.steps // factor
    inc = path.increments.reshape(n_coarse, factor, path.dim, path.dim).sum(axis=1)
    coarse_grid = TimeGrid(horizon=path.grid.horizon, steps=n_coarse)
    return BrownianPath(coarse_grid, inc, seed=path.seed, path_index=path.path_index)


def dump_increments(path: BrownianPath, fileobj) -> None:
    """Write a path as a small header (d, n, horizon, seed) plus raw float64 rows."""
    header = struct.pack(
        _HEADER_FORMAT, path.dim, path.grid.steps, path.grid.horizon, np.uint64(path.seed)
    )
    fileobj.write(header)
    fileobj.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())


def load_increments(fileobj) -> BrownianPath:
    """Inverse of `dump_increments`; the path index is not part of the format."""
    header = fileobj.read(struct.calcsize(_HEADER_FORMAT))
    dim, steps, horizon, seed = struct.unpack(_HEADER_FORMAT, header)
    count = steps * dim * dim
    raw = fileobj.read(count * 8)
    arr = np.frombuffer(raw, dtype="<f8", count=count).reshape(steps, dim, dim)
    grid = TimeGrid(horizon=horizon, steps=steps)
    return BrownianPath(grid, arr.astype(np.float64), seed=seed)
