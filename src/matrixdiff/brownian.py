"""Matrix Brownian motion on equidistant time grids.

A path is a d x d matrix of independent scalar Brownian motions sampled as
Gaussian increments on the grid.  Randomness comes from counter-based Philox
streams keyed by (master seed, path index), so independent paths can be drawn
in any order, or in parallel, and still reproduce bit-identically.  Both key
words are integers in [0, 2^64); anything else is refused with one ValueError
before any state is touched.

`sample_path` reuses one Philox state per thread: a generator, a two-word
key list and one state dict that refers to it.  Each call writes (seed,
path_index) into the key list and assigns the same dict, which the state
setter copies word by word, so the generator restarts at the path's stream and
its draws equal those of a freshly built Philox generator keyed by (seed,
path_index).  Only the state is reused: every returned path owns a fresh
read-only increment array.

The path matrices are NOT symmetric: all d^2 entries are independent motions.
Only the diffusion states built on top of them live in the symmetric space.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "BrownianPath",
    "sample_path",
    "coarsen_path",
]

_KEY_LIMIT = 2 ** 64  # a Philox key word is a uint64
_PHILOX_ZEROS = (0, 0, 0, 0)  # counter and buffer words of a fresh Philox
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


def _word(name: str, value) -> int:
    """`value` as a Philox key word, an integer in [0, 2^64) (bools refused), or
    one ValueError naming the key."""
    if type(value) is int and 0 <= value < _KEY_LIMIT:  # the common key, tested first
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            word = operator.index(value)
        except TypeError:
            pass
        else:
            if 0 <= word < _KEY_LIMIT:
                return word
    raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")


def _stream(seed: int, path_index: int) -> np.random.Generator:
    """This thread's generator, reset to the state of a fresh Philox generator
    keyed by (seed, path_index): zero counter, the key, empty buffer.  Both key
    words must already have passed `_word`."""
    try:
        gen, key, state = _streams.philox
    except AttributeError:
        # Python ints, not uint64 arrays: the setter converts each word it
        # indexes, and an int converts without a numpy scalar in between
        key = [0, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": _PHILOX_ZEROS, "key": key},
            "buffer": _PHILOX_ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen = np.random.Generator(np.random.Philox(0))
        _streams.philox = gen, key, state
    key[0] = seed
    key[1] = path_index
    gen.bit_generator.state = state  # the setter copies every word out of the dict
    return gen


class BrownianPath:
    """Increments of a d x d matrix Brownian motion on a time grid.

    `increments[k]` is B_{t_{k+1}} - B_{t_k}, a full (not symmetric) d x d
    matrix of independent Normal(0, dt) draws.
    """

    __slots__ = ("grid", "_increments")

    def __init__(self, grid: TimeGrid, increments) -> None:
        arr = np.array(increments, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != grid.steps or arr.shape[1] != arr.shape[2]:
            raise ValueError(
                f"increments must have shape (steps, d, d) = ({grid.steps}, d, d), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("increments must be finite")
        self._adopt(grid, arr)

    def _adopt(self, grid: TimeGrid, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        self.grid = grid
        self._increments = arr

    @property
    def dim(self) -> int:
        return self._increments.shape[1]

    @property
    def increments(self) -> np.ndarray:
        return self._increments


def sample_path(grid: TimeGrid, dim: int, seed: int, path_index: int = 0) -> BrownianPath:
    """Draw one matrix Brownian path from the (seed, path_index) Philox stream."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    seed, path_index = _word("seed", seed), _word("path_index", path_index)
    # numpy draws loc + scale * z, and -0.0 is the additive identity, so every
    # entry has the bits of z * sqrt(dt), signed zeros included (+0.0 would
    # turn an underflowed -0.0 into +0.0)
    increments = _stream(seed, path_index).normal(-0.0, math.sqrt(grid.dt), (grid.steps, dim, dim))
    # normal draws times the root of a finite dt are finite, and the array is
    # this call's own: adopt it without the constructor's copy and check
    path = BrownianPath.__new__(BrownianPath)
    path._adopt(grid, increments)
    return path


def coarsen_path(path: BrownianPath, factor: int) -> BrownianPath:
    """Restrict a path to every `factor`-th grid point by summing increments."""
    if factor < 1 or path.grid.steps % factor != 0:
        raise ValueError(f"factor {factor} must divide the step count {path.grid.steps}")
    n_coarse = path.grid.steps // factor
    inc = path.increments.reshape(n_coarse, factor, path.dim, path.dim).sum(axis=1)
    coarse_grid = TimeGrid(horizon=path.grid.horizon, steps=n_coarse)
    return BrownianPath(coarse_grid, inc)
