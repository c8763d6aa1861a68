"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark gets a share of a host with other tenants, and the speed it
is given swings by more than half over minutes: the same op list took
5.8 s in one run and 9.7 s three minutes later on a 2-vCPU Intel Xeon VM.
The runner therefore times this kernel just before and just after every
CLI call and every set-up sample, and reports each of those wall times
scaled to the kernel's nominal speed over that interval:

    nominal = wall * REF_S / mean(kernel time before, kernel time after)

The runner then takes medians of these nominal times per op.  Scaling
each call by the kernel timed around it follows the host through its fast
and slow phases, which one factor for a whole run cannot: a run spends
most of its time in a few long calls, and the short ones in between would
otherwise weigh as much as they do.

The kernel is frozen here, in the benchmark's own files, and calls
nothing from ebstab, so a change to the program cannot move it.  It mixes
the work ebstab's layers do: small NumPy array operations and Python
float and container code.  The raw wall times and the kernel's median time
are reported too, as the per-layer metrics ``wall.run_s``,
``wall.setup_s`` and ``ref.kernel_s``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's time on the VM above in its fast phase (Python 3.11, NumPy
# single-threaded): nominal times read as seconds on that host
REF_S = 0.006

_ROUNDS = 800
_POINTS = np.random.default_rng(0).normal(size=(8, 3))


def kernel() -> float:
    acc = 0.0
    for i in range(_ROUNDS):
        x = _POINTS[i % 8]
        y = np.maximum(_POINTS @ x, 0.0)
        acc += float(np.linalg.norm(y)) + sum(v * v for v in x.tolist())
        table = {j: j * 0.5 for j in range(20)}
        acc += sum(table.values())
    return acc


class HostSpeed:
    """Kernel timings taken through one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns its wall time."""
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @staticmethod
    def nominal(wall: float, before: float, after: float) -> float:
        """`wall` seconds, timed between kernel samples `before` and
        `after`, as seconds at nominal speed."""
        return wall * REF_S * 2.0 / (before + after)
