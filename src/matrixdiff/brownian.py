"""Matrix Brownian motion on equidistant time grids.

A path is a d x d matrix of independent scalar Brownian motions sampled as
Gaussian increments on the grid.  Randomness comes from counter-based Philox
streams keyed by (master seed, path index), so independent paths can be drawn
in any order, or in parallel, and still reproduce bit-identically.  Both key
words are integers in [0, 2^64); anything else is refused with one ValueError
before any state is touched.  A grid's step count, a path's dimension and a
coarsening factor are integers >= 1 (numpy integers taken, bools refused),
else one ValueError names them.

`sample_path` reuses one Philox state per thread: a generator, a two-word
key list and one state dict that refers to it.  Each call writes (seed,
path_index) into the key list and assigns the same dict, which the state
setter copies word by word, so the generator restarts at the path's stream and
its draws equal those of a freshly built Philox generator keyed by (seed,
path_index).  Only the state is reused: every returned path owns a fresh
read-only increment array.

One draw costs the re-key (the state setter), one `normal` call and little
else: Python int arguments in range pass an inline check, the grid takes
sqrt(dt) once, and the path takes its array without the constructor's copy
and finiteness check.  Every per-path caller (`checks`' Monte Carlo checks
and the CLI's `simulate` and `picard-convergence`) makes exactly one
`sample_path` call per path, in path order; the benchmark counts these calls
for its `brownian.paths` and `brownian.draws`.

The path matrices are NOT symmetric: all d^2 entries are independent motions.
Only the diffusion states built on top of them live in the symmetric space.
"""

from __future__ import annotations

import functools
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


def _integer(value, low: int, high):
    """`value` as an int in [low, high), or None; bools are refused and numpy
    integers taken."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        number = operator.index(value)
    except TypeError:
        return None
    return number if low <= number < high else None


def _count(name: str, value, below_one: str = "") -> int:
    """`value` as an integer >= 1, or one ValueError naming it; `below_one`,
    when given, is the message for an integer below 1."""
    number = _integer(value, -math.inf, math.inf)
    if number is None or number < 1:
        raise ValueError(below_one if number is not None and below_one
                         else f"{name} must be a positive integer")
    return number


def _word(name: str, value) -> int:
    """`value` as a Philox key word, an integer in [0, 2^64), or one ValueError
    naming the key."""
    word = _integer(value, 0, _KEY_LIMIT)
    if word is None:
        raise ValueError(f"{name} must be an integer in [0, 2^64), got {value!r}")
    return word


@dataclass(frozen=True)
class TimeGrid:
    """Equidistant grid 0 = t_0 < t_1 < ... < t_n = horizon."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if isinstance(self.horizon, (bool, np.bool_)) \
                or not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        object.__setattr__(self, "steps", _count("steps", self.steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @functools.cached_property
    def sqrt_dt(self) -> float:
        """sqrt(dt), the scale of every increment."""
        return math.sqrt(self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def _stream():
    """This thread's Philox state, built: a generator, its two-word key list and
    the state dict that refers to it.  `sample_path` resets the generator by
    writing the key words and assigning the dict."""
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
    _streams.philox = np.random.Generator(np.random.Philox(0)), key, state
    return _streams.philox


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
    # Python ints in range pass inline; any other value is converted or refused
    # by the general check, before the thread's key list is written
    if type(dim) is not int or dim < 1:
        dim = _count("dim", dim)
    if type(seed) is not int or not 0 <= seed < _KEY_LIMIT:
        seed = _word("seed", seed)
    if type(path_index) is not int or not 0 <= path_index < _KEY_LIMIT:
        path_index = _word("path_index", path_index)
    try:
        gen, key, state = _streams.philox
    except AttributeError:  # this thread's first path
        gen, key, state = _stream()
    # zero counter, the key, empty buffer: the setter copies every word out of
    # the dict, so the generator restarts as a fresh Philox keyed by (seed, path_index)
    key[0] = seed
    key[1] = path_index
    gen.bit_generator.state = state
    # numpy draws loc + scale * z, and -0.0 is the additive identity, so every
    # entry has the bits of z * sqrt(dt), signed zeros included (+0.0 would
    # turn an underflowed -0.0 into +0.0)
    increments = gen.normal(-0.0, grid.sqrt_dt, (grid.steps, dim, dim))
    # normal draws times the root of a finite dt are finite, and the array is
    # this call's own: the path takes it without the constructor's copy and
    # check.  setflags(False) is write=False; the keyword form costs twice as much
    increments.setflags(False)
    path = object.__new__(BrownianPath)
    path.grid = grid
    path._increments = increments
    return path


def coarsen_path(path: BrownianPath, factor: int) -> BrownianPath:
    """Restrict a path to every `factor`-th grid point by summing increments."""
    undivided = f"factor {factor} must divide the step count {path.grid.steps}"
    factor = _count("factor", factor, undivided)
    if path.grid.steps % factor != 0:
        raise ValueError(undivided)
    n_coarse = path.grid.steps // factor
    inc = path.increments.reshape(n_coarse, factor, path.dim, path.dim).sum(axis=1)
    coarse_grid = TimeGrid(horizon=path.grid.horizon, steps=n_coarse)
    return BrownianPath(coarse_grid, inc)
