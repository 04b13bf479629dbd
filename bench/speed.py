"""Machine-speed calibration for the end-to-end time metrics.

On a shared virtual machine the speed of identical work drifts by +-20%
over tens of seconds (measured on the reference machine, 2 vCPUs, with
everything else idle), so raw times of one run say as much about the
neighbours as about the program.  After each request, untimed, a fixed
kernel that does not touch unitcp -- interpreter bytecode, small numpy and
LAPACK calls, scipy.special -- runs for about 5% of the request's time.
Each request's time is then scaled by ``REFERENCE_S / k``, where ``k`` is
the median kernel time within a tenth of a second of that request (slow
phases of the machine last from a few tenths of a second upwards, and a
wider window blurs them into their neighbours): times read as if the
machine ran at its reference speed.  Raw figures stay in the details.

Set-up is a cold start -- a new interpreter, cold caches -- and the slow
phases of the machine, which last tens of minutes, hit cold starts much
harder than the warm kernel: between two such phases the set-up of
``split-sim`` went from 0.77 s to 1.05 s while the kernel ran at its usual
speed.  Set-up times are therefore scaled by ``REFERENCE_START_S / r``
instead, where ``r`` is the median time of a bare interpreter start
(``python -c pass``) timed next to the set-up probes.  It went from 46 ms
to 68 ms between the same two phases, so the scaled set-up moved by 4%.
A fresh ``import numpy`` tracked worse: across one such change it halved
while the set-up fell by a third.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
from scipy import special as sp

# median kernel time on the reference machine; a scale, fixed with the kernel
REFERENCE_S = 3.5e-4
SHARE = 0.05
WINDOW_S = 0.1
# median time of a bare interpreter start on the reference machine
REFERENCE_START_S = 0.05
REFERENCE_STARTS = 3  # per set-up probe

_A = np.random.default_rng(0).normal(size=(100, 4))
_B = _A[:, 0].copy()
_G = np.abs(_A) + 0.5


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1200):
        acc += i * 0.5
    for _ in range(5):
        np.linalg.lstsq(_A, _B, rcond=None)
        sp.gammaln(_G).sum()
        sp.digamma(_G).sum()
        np.sort(_B)
    return time.perf_counter() - t0


class Calibration:
    """Kernel samples taken between requests, and the scale they imply."""

    def __init__(self):
        self._at: list[float] = []
        self._took: list[float] = []

    def after(self, request_s: float) -> None:
        """Sample the kernel for about SHARE of the request just finished."""
        spent = 0.0
        while spent < SHARE * request_s or spent == 0.0:
            took = kernel()
            spent += took
            self._at.append(time.perf_counter())
            self._took.append(took)

    def scales(self, starts, walls) -> np.ndarray:
        """REFERENCE_S / (median kernel time within WINDOW_S of each request).

        The window always reaches the samples taken right after the request.
        """
        at, took = np.array(self._at), np.array(self._took)
        mids = np.asarray(starts) + 0.5 * np.asarray(walls)
        half = np.maximum(WINDOW_S, np.asarray(walls))
        lo = np.searchsorted(at, mids - half)
        hi = np.searchsorted(at, mids + half, side="right")
        return np.array([REFERENCE_S / np.median(took[a:b]) for a, b in zip(lo, hi)])


def reference_starts_s() -> list[float]:
    """Wall times of REFERENCE_STARTS bare interpreter starts."""
    times = []
    for _ in range(REFERENCE_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=60, check=True)
        times.append(time.perf_counter() - t0)
    return times
