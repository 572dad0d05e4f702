"""Reference speed of the machine, measured next to the program's work.

The benchmark runs on a shared machine whose speed changes by itself: the
same job list takes up to 40% longer from one minute to the next.  To keep
that drift out of the time metrics, every piece of the program's work is
followed, on the same CPU, by reference work shaped like it and about a
quarter of its length:

- work done inside a long-lived process (a sweep worker's file) is followed
  by units run in that process (``Meter.follow``);
- work done by a process of its own (a CLI job, a set-up) is followed by one
  reference process, ``python3 speedref.py K``, that starts an interpreter
  and runs K units (``Meter.follow_process``).

A unit is pure-Python exact elimination (one small matrix over Q with
``fractions``, one larger over F_p with ints), the kind of code the program
spends its time in; it uses nothing from ``maschke_kit``.  Each piece of
reference work has a nominal time: ``NOMINAL_UNIT_S`` per unit, plus
``NOMINAL_START_S`` for a reference process.  ``Meter.scale(x)`` turns a
time ``x`` measured next to the reference work into reference seconds,
``x * nominal / measured`` over all of it: on a machine as fast as the
nominal times, reference seconds are wall seconds.  ``scale_cpu`` does the
same for CPU time, by the reference work's CPU time.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

# Typical times on the 2-core machine the benchmark was tuned on: one unit,
# and the start of a reference process (interpreter, ``fractions``).
NOMINAL_UNIT_S = 0.015
NOMINAL_START_S = 0.08
# Reference work per second of program work, in nominal seconds.
SHARE = 0.25

_Q_SIZE = 14
_P = 10007
_FP_SIZE = 40


def unit():
    """One unit of reference work: reduce two fixed matrices to echelon form."""
    n = _Q_SIZE
    a = [[Fraction((i * 7 + j * 13) % 17 + 1, (i + j) % 5 + 1) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    p, m = _P, _FP_SIZE
    b = [[(i * 31 + j * 17 + i * j) % p for j in range(m)] for i in range(m)]
    for c in range(m):
        piv = next((r for r in range(c, m) if b[r][c]), None)
        if piv is None:
            continue
        b[c], b[piv] = b[piv], b[c]
        inv = pow(b[c][c], p - 2, p)
        b[c] = [x * inv % p for x in b[c]]
        for r in range(m):
            if r != c and b[r][c]:
                f = b[r][c]
                b[r] = [(x - f * y) % p for x, y in zip(b[r], b[c])]
    return a[0][0] + b[0][0]


def _units_for(work_s: float, start_s: float = 0.0) -> int:
    return max(1, round((SHARE * work_s - start_s) / NOMINAL_UNIT_S))


class Meter:
    """Runs reference work after each piece of program work and keeps the
    totals: nominal time of the reference work, its wall time and its CPU
    time."""

    def __init__(self):
        self.nominal_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def follow(self, work_s: float) -> None:
        """Reference units in this process, after ``work_s`` of work in it."""
        k = _units_for(work_s)
        start, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(k):
            unit()
        self.add(k * NOMINAL_UNIT_S, time.perf_counter() - start,
                 time.process_time() - cpu0)

    def follow_process(self, work_s: float, env: dict) -> None:
        """One reference process, after a process that worked ``work_s``."""
        # Imported here: the sweep worker uses ``follow`` only, and its peak
        # memory is a metric.
        import subprocess
        k = _units_for(work_s, NOMINAL_START_S)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), str(k)],
                                env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError("the reference process failed")
        self.add(NOMINAL_START_S + k * NOMINAL_UNIT_S, wall,
                 usage.ru_utime + usage.ru_stime)

    def add(self, nominal_s: float, wall_s: float, cpu_s: float) -> None:
        self.nominal_s += nominal_s
        self.wall_s += wall_s
        self.cpu_s += cpu_s

    @property
    def speed(self) -> float:
        """Nominal over measured wall time of the reference work (1: as fast
        as the nominal times)."""
        return self.nominal_s / self.wall_s

    def scale(self, seconds: float) -> float:
        """Wall ``seconds`` in reference seconds."""
        return seconds * self.nominal_s / self.wall_s

    def scale_cpu(self, seconds: float) -> float:
        """CPU ``seconds`` in reference seconds, by the reference CPU time."""
        return seconds * self.nominal_s / self.cpu_s


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        unit()
