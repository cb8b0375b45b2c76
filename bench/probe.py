"""A sampler of the host's speed, for timings on a shared machine.

A host shared with other tenants runs the same code up to 1.5x slower
for seconds to minutes at a time, in CPU time as much as in wall time.
``SpeedProbe`` runs a fixed unit of interpreter and small-numpy work
every ``INTERVAL_S`` seconds from a SIGALRM handler, that is, in the
main thread between the bytecodes of whatever runs there, and times it
by thread CPU time, which leaves out waits for the scheduler but not a
slower core.  The mean unit time over a span of work, over
``UNIT_NOMINAL_S``, is the host's slowness during that work, sampled
evenly in time; a wall time measured in the same span, divided by it,
is the time on a host at nominal speed.  The probe costs about 2% of
the span.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
# About the unit's median time on the 2-CPU x86-64 host the figures were
# first taken on; it fixes the scale of the scaled times only.
UNIT_NOMINAL_S = 8e-4
_M = np.eye(3)
_G = np.random.default_rng(0).normal(size=(64, 8, 8))
_X = np.ones((512, 8))
_IDX = np.arange(512) % 64


def unit() -> float:
    """Thread CPU time of one fixed unit of work, owing nothing to regimelq:
    interpreter steps, tiny matrix products, and batched gathers and
    contractions of the kind the MC integrators run."""
    start = time.thread_time()
    a, s = _M, 0
    for i in range(3000):
        s += i * i
    for _ in range(40):
        a = 0.25 * (a @ a) + 0.5 * _M
    for _ in range(4):
        np.einsum("pij,pj->pi", _G[_IDX], _X)
    return time.thread_time() - start


class SpeedProbe:
    """Context manager that samples ``unit()`` every INTERVAL_S seconds."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(unit())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def slowness(self) -> float:
        """Mean unit time over nominal: 1.0 on a host at nominal speed."""
        return statistics.fmean(self.samples) / UNIT_NOMINAL_S
