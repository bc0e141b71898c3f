"""Machine-speed calibration: fixed work timed around each of the benchmark's measurements.

The benchmark runs on a few cores of a shared host whose speed moves by up to
2x within minutes as other tenants load it.  Wall times taken minutes apart
then differ more than any bound a regression check could use.  So every timed
measurement sits between two runs of a calibration that does the same kind of
work and never touches ``matrixdiff``, and is reported in reference seconds:
its wall time divided by the mean time of the calibration just before and after
it, times the calibration's time on the reference host.  A change that makes
the program slower still reads slower, because the calibrations are the same
on every commit.

- Ops are calibrated by ``kernel_s``: numpy linear algebra on stacks of small
  symmetric matrices, and short Philox streams, each step driven from Python as
  the program drives its own.  A pure-Python loop was tried as a third part; it
  swings more than any op does and made the calibrated times less steady.
- Fresh-interpreter starts are calibrated by ``numpy_start_s``, a fresh
  interpreter that imports numpy.  Start-up is process creation, file reads and
  module execution, which the kernel does not track.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Typical times of the two calibrations on the 2-CPU x86_64 host of the seed-commit
# baseline, so that reference seconds read close to that host's wall seconds.
# They only set the scale; changing them would rescale every end-to-end time.
KERNEL_REFERENCE_S = 0.125
NUMPY_START_REFERENCE_S = 0.22

_rng = np.random.default_rng(0)
_S2 = _rng.standard_normal((2048, 2, 2))
_S2 = _S2 + _S2.transpose(0, 2, 1)
_S5 = _rng.standard_normal((1024, 5, 5))
_S5 = _S5 + _S5.transpose(0, 2, 1)


def _stacks() -> None:
    for _ in range(15):
        w, v = np.linalg.eigh(_S2)
        root = np.einsum("nij,nj,nkj->nik", v, np.sqrt(np.abs(w)), v)
        (root @ _S2 + _S2 @ root).sum()
        np.linalg.eigvalsh(_S5)


def _streams() -> None:
    for i in range(1800):
        gen = np.random.Generator(np.random.Philox(key=[7, i]))
        np.cumsum(gen.standard_normal((8, 2, 2)), axis=0)


def kernel_s() -> float:
    """Wall seconds of one run of the calibration kernel."""
    start = time.perf_counter()
    _stacks()
    _streams()
    return time.perf_counter() - start


def numpy_start_s() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start


class SpeedMeter:
    """Rescales wall times to reference seconds by the calibration run before and after each.

    ``scale`` runs the calibration right after the measured work and reuses that
    run as the "before" of the next measurement.  Call ``restart`` when other
    work ran since the last ``scale``.
    """

    def __init__(self, calibrate, reference_s: float) -> None:
        self.calibrate, self.reference_s = calibrate, reference_s
        calibrate()  # the first run pays lazy set-up and cold caches
        self.calibrations = []
        self.restart()

    def restart(self) -> None:
        self._before = self.calibrate()

    def scale(self, wall_s: float) -> float:
        after = self.calibrate()
        calibration = (self._before + after) / 2
        self._before = after
        self.calibrations.append(calibration)
        return wall_s * self.reference_s / calibration
