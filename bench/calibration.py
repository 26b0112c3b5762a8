"""Calibration kernel: fixed work, sampled while every job runs.

The host this benchmark runs on is shared, and other tenants slow a
process down by up to 1.8 times for seconds to minutes at a time.  The
kernel does a fixed amount of the kind of work the jobs spend their time
on (building frozensets, hashing them into a dict, summing Python floats
in generators, small dense solves), so it slows down with them.  A
``Sampler`` times the kernel when a job starts, every ``PERIOD`` seconds
while it runs (from a SIGALRM handler, which Python runs between
bytecodes of the job), and when it ends.  The job's own time divided by
the mean kernel time then reads the same whatever the host's speed during
the job; WORKLOADS.md gives the measurements.  ``at_reference`` turns that
ratio back into seconds: the time the job takes on a host where the kernel
takes REFERENCE_S, its time on the uncontended build host.

The kernel does not call pclindex, so no change to the program moves it.
"""

import signal
import time

import numpy as np

SIZE = 60
PASSES = 150
SOLVE_EVERY = 10
PERIOD = 0.1  # seconds of wall time between samples during a job
REFERENCE_S = 0.0034  # the kernel's time on the build host when uncontended
_MATRIX = SIZE * np.eye(SIZE) + np.add.outer(np.arange(SIZE), np.arange(SIZE)) / SIZE**2
_RHS = np.linspace(0.0, 1.0, SIZE)


def kernel() -> float:
    """The fixed work; returns a value so that none of it is skipped."""
    table, total = {}, 0.0
    for k in range(PASSES):
        members = frozenset(range(k % 40, k % 40 + 30))
        table[members] = 0.5 * len(members)
        total += sum(table.get(frozenset(range(j, j + 30)), 0.0) for j in range(0, 40, 4))
        if k % SOLVE_EVERY == 0:
            total += float(np.linalg.solve(_MATRIX, _RHS)[0])
    return total


def kernel_s() -> float:
    """Wall time of one pass of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def at_reference(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` measured while the kernel took ``kernel_s``, rescaled to
    a host where the kernel takes REFERENCE_S."""
    return wall_s * REFERENCE_S / kernel_s


class Sampler:
    """Times the block it wraps, with the kernel sampled on entry, every
    PERIOD seconds inside the block, and on exit.  ``wall_s`` and
    ``cpu_s`` are the block's wall and process CPU time without the
    samples taken inside it; ``mean_s`` is the mean kernel time."""

    def __enter__(self):
        self.samples = [kernel_s()]
        self._ticks = []  # (perf_counter at start, wall s, cpu s) per sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._c0, self._t0 = time.process_time(), time.perf_counter()
        return self

    def _tick(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        self._ticks.append((t0, time.perf_counter() - t0, time.process_time() - c0))

    def __exit__(self, *exc):
        t1, c1 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        inside = [tick for tick in self._ticks if tick[0] < t1]
        self.wall_s = t1 - self._t0 - sum(wall for _, wall, _ in inside)
        self.cpu_s = c1 - self._c0 - sum(cpu for _, _, cpu in inside)
        self.samples += [wall for _, wall, _ in self._ticks]
        self.samples.append(kernel_s())
        return False

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)
