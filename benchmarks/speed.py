"""Host-speed normalisation of measured times.

The benchmark runs on a few cores of a shared host.  There the same
single-threaded work can take up to twice as long for tens of seconds at a
time, while neither the process's CPU time nor the kernel's steal time
shows the difference: the cores themselves get slower.  A median over one
run cannot remove a slow spell that covers the whole run.

So every timed interval is paired with the host's speed during it.  A
:class:`Speedometer` runs a fixed probe (about a millisecond of interpreter,
small-array numpy, LAPACK and BLAS work, like ``workcap``'s own, and no
``workcap`` code) from a timer signal every ``interval`` seconds while the
timed code runs.  Each stretch of work between two probes is scaled by
``PROBE_REF_S`` over the probe time measured around it (a rolling median),
and the probes' own time is left out.  The result reads in seconds at the
reference speed, the speed at which one probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable

import numpy as np

# Probe duration at the reference speed: about the fastest the probe runs on
# an uncontended core of the host the benchmark was tuned on (Intel Xeon,
# 2 vCPUs, Python 3.11).
PROBE_REF_S = 1.2e-3
# probes run back to back just before and just after a timed block, so the
# rolling median has samples at both ends of even a short block
EDGE_PROBES = 5

_M = np.array([[0.90, 0.10, 0.00], [0.20, 0.50, 0.30], [0.10, 0.10, 0.80]])
_A = np.eye(8) * 0.5 + 1.0 / 16.0
_G = np.linspace(0.0, 1.0, 224 * 224).reshape(224, 224)


def probe() -> float:
    """A fixed amount of work in three parts of about equal time: interpreter
    work around tiny numpy calls, small LAPACK solves (the asymptotics of a
    small chain) and one dense matrix product (those of a large chain).  How
    much each kind slows down in a slow spell differs, so a probe of one
    kind tracks some workloads well and others badly."""
    p = np.full(3, 1.0 / 3.0)
    acc = 0.0
    for i in range(70):
        p = p @ _M
        p = p / p.sum()
        acc += float(np.dot(p, p))
        acc += sum({j: j * i for j in range(10)}.values()) * 1e-12
    ones = np.ones(8)
    for _ in range(60):
        acc += float(np.linalg.solve(_A, ones)[0])
    return acc + float((_G @ _G)[0, 0])


def timed_probe(run: Callable[[], object] = probe) -> tuple[float, float]:
    start = time.perf_counter()
    run()
    return start, time.perf_counter()


def probe_seconds(repeats: int = 15) -> float:
    """Median duration of ``repeats`` back-to-back probes."""
    return statistics.median(end - start for start, end in
                             (timed_probe() for _ in range(repeats)))


def scaled_seconds(start: float, end: float, probes: list[tuple[float, float]],
                   window: int = 11) -> float:
    """Work time in [start, end] at the reference speed.

    ``probes`` are the (start, end) times of the probes that ran inside the
    interval, in order, plus at least one just outside it on each side.
    The work between consecutive probes is scaled by the reference time over
    the median duration of the ``window`` probes centred on that gap.
    """
    durations = [b - a for a, b in probes]
    half = window // 2
    total = 0.0
    for k in range(1, len(probes)):
        lo, hi = max(probes[k - 1][1], start), min(probes[k][0], end)
        if hi <= lo:
            continue
        around = durations[max(0, k - half):k + half]
        total += (hi - lo) * PROBE_REF_S / statistics.median(around)
    return total


class Speedometer:
    """Context manager timing a block of code at the reference speed.

    ``run_probe`` is the probe to call (the traced run passes one wrapped in
    a span, so that probe time is not charged to the layer it interrupts).
    """

    def __init__(self, interval: float = 0.1, run_probe: Callable[[], object] = probe):
        self.interval = interval
        self.run_probe = run_probe
        self.probes: list[tuple[float, float]] = []
        self.start = self.end = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        self.probes.append(timed_probe(self.run_probe))

    def __enter__(self):
        self.probes = [timed_probe() for _ in range(EDGE_PROBES)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.probes += [timed_probe() for _ in range(EDGE_PROBES)]
        return False

    @property
    def raw_s(self) -> float:
        """Wall time of the block minus the probes that ran inside it."""
        inside = sum(b - a for a, b in self.probes if a >= self.start and b <= self.end)
        return self.end - self.start - inside

    @property
    def scaled_s(self) -> float:
        return scaled_seconds(self.start, self.end, self.probes)

    @property
    def probe_median_s(self) -> float:
        return statistics.median(b - a for a, b in self.probes)
