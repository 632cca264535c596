"""A gauge of host speed, run between operations.

The machines this benchmark runs on change speed by up to 1.6x over seconds
to minutes, and CPU time tracks wall time, so repeats inside one run cannot
remove a slow period. The benchmark therefore runs a fixed reference job,
which does not use gradedk, after every operation, outside the operation's
timed region. Each batch's times are divided by the batch's host factor:
the reference job's measured time over its nominal time. A change to gradedk
moves the operations and not the reference job, so it still shows in full.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The reference job's time, in seconds, at the speed the metrics are quoted
# at; roughly its time on the 2-core host the benchmark was built on.
NOMINAL_S = 0.0005


class _Residue:
    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def __mul__(self, other):
        return _Residue(self.p, self.v * other.v)

    def __add__(self, other):
        return _Residue(self.p, self.v + other.v)


def reference_job():
    """Small-object allocation, modular arithmetic, dict and list stores and
    Fraction arithmetic: the kinds of work gradedk's own code does."""
    acc = _Residue(7, 1)
    table = {}
    for i in range(1, 250):
        x = _Residue(7, i)
        acc = acc * x + x
        table[i & 63] = [acc.v, i]
    f = Fraction(1)
    for i in range(1, 12):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
    return acc.v, f


class HostGauge:
    """Reference-job times accumulated over one stretch of a run."""

    def __init__(self):
        self.seconds = 0.0
        self.jobs = 0

    def run(self, jobs=1):
        for _ in range(jobs):
            t = perf_counter()
            reference_job()
            self.seconds += perf_counter() - t
            self.jobs += 1
        return self

    def factor(self):
        """Measured over nominal reference time: above 1 on a slow stretch."""
        return self.seconds / (self.jobs * NOMINAL_S)
