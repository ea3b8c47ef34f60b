"""Machine-speed calibration sampler.

A timer signal (``SIGALRM`` from ``signal.setitimer``) fires every
``period`` seconds of wall time.  Its handler runs in the main thread, between
two bytecodes of whatever the program is doing, and executes one fixed
calibration kernel: a recursion ``x <- tanh(W @ concat(x, u) + b)`` with a
3x4 weight matrix, the same small-array dispatch the program spends its time
on.  The handler records the kernel's duration and its own time.

An operation's normalised time is

    (wall time - time spent in the handler) / mean kernel duration

over the samples taken during that operation, in units of ``cal``.  Because
the kernel runs on the same thread as the program, a core that slows down
slows both, and the ratio stays put.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05
KERNEL_STEPS = 300


@dataclass(frozen=True)
class Window:
    """What the sampler saw between two snapshots."""

    wall: float  # seconds
    sampler_time: float  # seconds spent inside the handler
    kernel_durations: tuple[float, ...]  # seconds, one per sample

    @property
    def samples(self) -> int:
        return len(self.kernel_durations)

    @property
    def cal_s(self) -> float:
        """Mean kernel duration, seconds; NaN without samples."""
        if not self.kernel_durations:
            return float("nan")
        return float(np.mean(self.kernel_durations))

    @property
    def work_s(self) -> float:
        """Wall time with the sampler's own time taken out."""
        return self.wall - self.sampler_time

    @property
    def cal(self) -> float:
        """Normalised time of the window, in units of the calibration kernel."""
        return self.work_s / self.cal_s

    @property
    def expected_samples(self) -> float:
        return self.wall / PERIOD_S


class Sampler:
    """Runs the calibration kernel on a timer while active (``with sampler:``).

    ``Sampler(active=False)`` installs no timer; its windows carry wall time
    only.  It is used to check that the sampler does not change any output.
    """

    def __init__(self, active: bool = True):
        rng = np.random.default_rng(20240614)
        self._W = rng.uniform(-0.8, 0.8, (3, 4))
        self._b = rng.uniform(-0.2, 0.2, 3)
        self._u = rng.uniform(-0.6, 0.0, (KERNEL_STEPS, 1))
        self.active = active
        self._durations: list[float] = []
        self._busy = 0.0
        self._previous_handler = None

    def kernel(self) -> np.ndarray:
        x = np.zeros(3)
        for k in range(KERNEL_STEPS):
            x = np.tanh(self._W @ np.concatenate([x, self._u[k]]) + self._b)
        return x

    def time_kernel(self, repeats: int = 5) -> float:
        """Median kernel duration over ``repeats`` direct calls, seconds."""
        durations = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.kernel()
            durations.append(time.perf_counter() - t0)
        return float(np.median(durations))

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self._durations.append(t1 - t0)
        self._busy += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        if self.active:
            self._previous_handler = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def snapshot(self) -> tuple[float, float, int]:
        return time.perf_counter(), self._busy, len(self._durations)

    @property
    def busy(self) -> float:
        """Total seconds spent in the handler so far."""
        return self._busy

    def window(self, start: tuple[float, float, int]) -> Window:
        """Window from ``start`` (a :meth:`snapshot`) to now."""
        t1, busy1, n1 = self.snapshot()
        t0, busy0, n0 = start
        return Window(
            wall=t1 - t0,
            sampler_time=busy1 - busy0,
            kernel_durations=tuple(self._durations[n0:n1]),
        )
