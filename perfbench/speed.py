"""The machine's speed, sampled while the benchmark runs.

The 2-core machine the benchmark was tuned on runs the same Python code at
two speeds about 1.7x apart, switching within a second, and the share of
time spent at the slow speed drifts over minutes.  The wall time of a
32 s run then depends on where in that drift the run falls.  To cancel it,
a fixed reference loop, which uses nothing from the package, is timed
densely: between operations, and every PROBE_INTERVAL_S during each one
from a SIGALRM handler.  A reference run that took d seconds is a speed
sample 1/d.  An operation that took T seconds of its own at a mean sampled
speed v is worth T * v reference runs: the number of reference loops the
machine would have run in the same time, at the same speeds.  That is the
unit ``ref`` of the ``*_ref`` metrics.  A change to the program moves it
in proportion to the wall time; a change of machine speed does not.  The
set-up time goes back to seconds through a fixed rate, REFERENCE_RUN_S:
the reference run at full speed on the machine the benchmark was tuned on.
A rate measured in the run would not do: when the machine is busy
throughout, even its fastest reference runs slow down.
"""

from __future__ import annotations

import signal
import time

REFERENCE_ITERATIONS = 3_000  # about 0.5 ms per reference run
PROBE_INTERVAL_S = 0.05  # the handler costs about 1% of an operation's time
BETWEEN_RUNS = 8  # reference runs after each operation
REFERENCE_RUN_S = 0.00044  # fastest reference run on a 2-core Intel Xeon, Python 3.11.7


def reference_loop() -> int:
    """Integer arithmetic, shifts and a small dict, in a fixed amount."""
    acc, table = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3
        table[i & 255] = acc
    return acc


def reference_speed() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return 1.0 / (time.perf_counter() - t0)


def between_speeds() -> list[float]:
    """Speed samples taken between operations."""
    return [reference_speed() for _ in range(BETWEEN_RUNS)]


class SpeedProbe:
    """Context manager that samples the speed every PROBE_INTERVAL_S while
    it is entered.  ``speeds`` holds the samples and ``spent_s`` the time
    the handler took, which the caller subtracts from the operation's time."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - t0
        self.speeds.append(1.0 / took)
        self.spent_s += took

    def __enter__(self) -> "SpeedProbe":
        self.speeds, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
