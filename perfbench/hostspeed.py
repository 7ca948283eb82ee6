"""Host speed probe: scales timings to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x within a minute (CPU time grows with wall time, so the slowdown
is in the core, not in waiting).  Every timing of a run is therefore
divided by the host's *speed factor* around it: the time of a small fixed
probe, one half pure-Python bytecode and one half numpy FFT and
convolution (the two kinds of work the program does), over that probe's
time on a quiet host.  The probe runs between operations, never during
one, and calls no program code, so a change to the program moves the
scaled times exactly as it moves the raw ones.  The raw times stay in the
detail line.

The cores of a shared host drift apart, so a probe tracks only work on
its own core: a ``serve`` run pins itself, and so every process it
starts (the daemon, ``repro client`` runs), to one core.  Each set-up
sample is scaled by :func:`start_factor`, a fresh interpreter importing
numpy just before it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List

import numpy as np

#: Probe times on a quiet host (2-core Xeon), in seconds; a factor of 1.0
#: means the host ran at this speed.
REFERENCE_PYTHON_S = 0.0024
REFERENCE_NUMPY_S = 0.0011
REFERENCE_START_S = 0.12

_LOOP = 30_000
_SIGNAL = np.random.default_rng(0).standard_normal(1 << 14)
_TAPS = _SIGNAL[:64].copy()


def _python_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for j in range(_LOOP):
        total += j * j % 7
    return time.perf_counter() - t0


def _numpy_s() -> float:
    t0 = time.perf_counter()
    for _ in range(4):
        np.fft.rfft(_SIGNAL)
        np.convolve(_SIGNAL[:4096], _TAPS)
    return time.perf_counter() - t0


def start_factor() -> float:
    """Start-up speed factor: a fresh interpreter importing numpy, over
    its time on a quiet host."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return (time.perf_counter() - t0) / REFERENCE_START_S


class SpeedProbe:
    """Speed factors sampled over a run, looked up by time.

    A factor above 1 means the host ran slower than the reference.  Call
    :meth:`sample` between operations (it runs the probe at most every
    ``interval_s``) and :meth:`measure` at the start and end of a phase;
    :meth:`factor` gives the factor around an operation.  One probe takes
    about 10 ms: the median of three, as one interrupt can double a
    single 3 ms probe.
    """

    #: Probes up to this many seconds before and after an operation
    #: count toward its factor, as the host's speed changes from one
    #: second to the next; but never fewer than :attr:`MIN_PROBES`, the
    #: nearest ones, which average out the probe's own noise (and cover
    #: a long operation, with probes only at its two ends).
    WINDOW_S = 0.5
    MIN_PROBES = 5

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.times: List[float] = []
        self.factors: List[float] = []

    def measure(self) -> float:
        """Run the probe now; returns the speed factor."""
        factor = statistics.median(
            0.5 * (_python_s() / REFERENCE_PYTHON_S
                   + _numpy_s() / REFERENCE_NUMPY_S) for _ in range(3))
        self.times.append(time.perf_counter())
        self.factors.append(factor)
        return factor

    def sample(self) -> None:
        """Run the probe unless it ran within the last ``interval_s``."""
        if not self.times or (time.perf_counter() - self.times[-1]
                              >= self.interval_s):
            self.measure()

    def factor(self, t0: float, t1: float) -> float:
        """Median factor of the probes within :attr:`WINDOW_S` of the
        operation from ``t0`` to ``t1``, or of the :attr:`MIN_PROBES`
        nearest to it where the window holds fewer."""
        if not self.factors:
            raise RuntimeError("no speed probe has run")
        distance = sorted((max(0.0, t0 - t, t - t1), i)
                          for i, t in enumerate(self.times))
        near = [i for d, i in distance if d <= self.WINDOW_S]
        if len(near) < self.MIN_PROBES:
            near = [i for _, i in distance[:self.MIN_PROBES]]
        return statistics.median(self.factors[i] for i in near)
