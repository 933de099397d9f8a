"""Host speed, measured alongside each workload.

Shared virtual machines change speed by 10-35% within minutes (frequency
changes, neighbours on the same cores), and the change shows in CPU time as
much as in wall time, so it cannot be filtered out by clock choice. Each run
therefore times a fixed calibration unit of the benchmark's own code,
interleaved with the program's operations, and the gated timings are
scaled to a host that runs the unit in REFERENCE_NS: a run on a host 20%
slower than that reports what the reference host would have measured. The
program never runs inside a calibration unit, and a unit never runs inside a
timed program call, so a change to the program moves the scaled numbers
exactly as it moves the raw ones.

The unit is pure Python: an integer loop and the allocation of small
objects with attribute access, the kind of work that dominates holdemlab's
time. Its mean time tracked the program's better than numpy array work did:
over 30-second windows of the advise workload, decisions per second varied
with a coefficient of variation of 9.9%, scaled by this unit's mean time by
1.6% (by numpy bincount/sort/matmul units: 4.5-4.8%).
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# The unit's mean time on a 2-vCPU Intel Xeon virtual machine.
REFERENCE_NS = 3_000_000
# Calibration time spent per unit of program time.
SHARE = 0.15
# Units averaged for the speed at one moment: about 0.4 s of advise hands.
WINDOW = 16


class _Node:
    def __init__(self, i):
        self.value = i
        self.items = [i]


def unit() -> int:
    """One calibration unit; returns a value so that nothing is skipped."""
    x = 0
    for i in range(10_000):
        x = (x * 31 + i) & 0xFFFF
    for i in range(2_500):
        node = _Node(i)
        x += node.value + len(node.items)
    return x


class HostSpeed:
    """Calibration units interleaved with a workload's operations."""

    def __init__(self):
        self.unit_at: list[int] = []  # when each unit ended
        self.unit_ns: list[int] = []
        self._owed = 0.0

    def after(self, program_ns: int) -> None:
        """Called between operations with the program time just spent: runs
        units until calibration has taken SHARE of the program time."""
        self._owed += program_ns * SHARE
        while self._owed > 0 or not self.unit_ns:
            t0 = time.perf_counter_ns()
            unit()
            t1 = time.perf_counter_ns()
            self.unit_at.append(t1)
            self.unit_ns.append(t1 - t0)
            self._owed -= t1 - t0

    def factor(self) -> float:
        """How much slower than the reference host the whole run's host was:
        the mean, not the median, since the program's time is a sum too and
        pays for the slow spells a median would skip."""
        return statistics.mean(self.unit_ns) / REFERENCE_NS

    def local(self, at) -> np.ndarray:
        """The speed factor at each perf_counter_ns time in `at`: the mean
        of the WINDOW units around it. The host's speed changes within a
        run, so each operation is scaled by the speed of its own moment."""
        ends = np.asarray(self.unit_at)
        csum = np.concatenate([[0.0], np.cumsum(self.unit_ns, dtype=float)])
        k = min(WINDOW, len(ends))
        lo = np.clip(np.searchsorted(ends, np.asarray(at, dtype=np.int64)) - k // 2, 0, len(ends) - k)
        return (csum[lo + k] - csum[lo]) / k / REFERENCE_NS
