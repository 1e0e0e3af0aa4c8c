"""Host-speed probe: a fixed numpy-and-Python workload that does not use lpseq.

The host the benchmark was defined on shares its cores with other tenants.
Their load slows this process by about 1.5x, in spells that last from seconds
to over a minute. The slowdown shows neither as steal nor as run-queue time,
and CPU time tracks wall time through it. Timing this probe between the
measured blocks of work gives the host's slowdown at that moment, and the
benchmark divides each block's measured time by it.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on an uncontended core of the host the benchmark was defined
# on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6).  Only ratios to
# it matter, since a parent and a change are measured on the same machine.
REFERENCE_S = 0.0014

_X = np.linspace(0.1, 2.0, 1000)


def probe() -> float:
    """Seconds one fixed mix of small numpy calls and Python bytecode takes."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += float(np.sum(np.exp(0.5 * np.log(_X)) + _X * np.sqrt(_X))) + i * 0.5
    return time.perf_counter() - t0


class HostClock:
    """Probes the host between blocks of measured work."""

    def __init__(self):
        self._last = probe()

    def tick(self) -> float:
        """Slowdown over the block since the previous tick.

        The mean of the probes at both ends of the block, relative to
        ``REFERENCE_S``.
        """
        now = probe()
        slowdown = (self._last + now) / (2.0 * REFERENCE_S)
        self._last = now
        return slowdown
