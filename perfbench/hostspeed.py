"""Host speed: a fixed calibration kernel timed beside the measured processes.

The host this benchmark was tuned on runs in phases, from seconds to
minutes long, in which everything — the native engines, the
interpreter, the compiler — takes about 1.6 times as long as in the
fast phase (measured: a bulk request 17 ms against 28 ms, a NumPy
``sin`` 1.7 ms against 2.8 ms, set-up 3.0 s against 4.7 s).  A set of
runs that straddles two phases spreads far past any bound, and phases
change within a run too.  So while ``run.py`` waits for a measured
process, a :class:`Sampler` thread times this kernel every
:data:`PERIOD_S`, and the process's figures are scaled to the speed at
which the kernel takes :data:`NOMINAL_S`.

The kernel is the benchmark's own code, so no change to the program
can make it faster.  It is timed in thread CPU time: a phase slows the
CPU itself, so CPU time grows with it, while time the sampler waits
for a CPU that the program keeps busy is not counted: a program that
burns more CPU does not make the host look slower by that wait.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

#: CPU time of one kernel repetition on the reference host (2-vCPU KVM
#: guest, Intel Xeon, NumPy 2.4) in its slow phase.  Figures are scaled
#: to this speed; any constant would do for comparing two commits.
NOMINAL_S = 2.0e-3
#: Seconds between two timed repetitions (about 2% of one CPU).
PERIOD_S = 0.1
#: A measured window is scaled slice by slice, each slice by the median
#: of the samples from half a slice before it to half a slice after it.
SLICE_S = 1.0


def _kernel(grid: np.ndarray, out: np.ndarray) -> int:
    """One repetition: NumPy stencil passes, then an interpreter loop,
    so both kinds of work the benchmark drives are in it."""
    for _ in range(16):
        np.add(grid[:-2, 1:-1], grid[2:, 1:-1], out=out)
        out += grid[1:-1, :-2]
        out += grid[1:-1, 2:]
    acc = 0
    for i in range(8000):
        acc += i & 7
    return acc


class Sampler:
    """Times the kernel every :data:`PERIOD_S` on a background thread.

    ``cpus`` is the set of CPUs the thread may run on: for a pinned
    workload its CPU, whose speed is the one that matters; sharing it
    costs the workload about 2% of its time, and the kernel's CPU time
    does not count the wait.
    """

    def __init__(self, cpus: set[int] | None = None):
        self.cpus = cpus
        self.times: list[float] = []
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        if self.cpus:
            os.sched_setaffinity(0, self.cpus)  # this thread only
        grid = np.random.default_rng(0).random((258, 258), dtype=np.float32)
        out = np.empty((256, 256), dtype=np.float32)
        _kernel(grid, out)  # first touch of the arrays and the loop
        while not self._stop.wait(PERIOD_S):
            t = time.thread_time()
            _kernel(grid, out)
            cpu = time.thread_time() - t
            self.times.append(time.monotonic())
            self.samples.append(cpu)

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than nominal the host ran from ``t0`` to ``t1``
        (``time.monotonic()``): the median kernel time in that interval
        over :data:`NOMINAL_S`."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi <= lo:
            raise ValueError(f"no host-speed sample between {t0} and {t1}")
        return statistics.median(self.samples[lo:hi]) / NOMINAL_S

    def scale(self, window: tuple[float, float], done: np.ndarray,
              latency: np.ndarray) -> tuple[float, np.ndarray]:
        """Scale a measured window to nominal host speed.

        Returns the window's length in nominal seconds (each slice's
        length over its slowdown) and each reply's latency over the
        slowdown of the slice it came in (``done`` is when).
        """
        w0, w1 = window
        edges = np.append(np.arange(w0, w1, SLICE_S), w1)
        slow = np.array([
            self.slowdown(a - SLICE_S / 2, b + SLICE_S / 2)
            for a, b in zip(edges[:-1], edges[1:])
        ])
        nominal_s = float(np.sum(np.diff(edges) / slow))
        k = np.clip(np.searchsorted(edges, done, side="right") - 1, 0, len(slow) - 1)
        return nominal_s, latency / slow[k]
