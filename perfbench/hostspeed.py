"""How fast the host runs pure Python, sampled while a pass is timed.

The 2-core hosts this benchmark was built on switch between two speeds
about 1.8x apart every few seconds, and the mix drifts over minutes, so
raw times of the same code spread by 10-30% between runs.  A Sampler
runs a fixed Fraction loop from a SIGALRM handler every INTERVAL_S
inside the timed interpreter, on the same core and in the same moment
as the work.  speed() turns the probe times around a stretch of work,
as around() picks them, into the host's speed relative to the
reference (1.0 when the probe takes REFERENCE_NS), and the benchmark
reports times multiplied by it: seconds at the reference speed.
Changed code does not change the probe, so a slower change still reads
slower; a slower host does not.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_STEPS = 100
INTERVAL_S = 0.05
# The probe's time on a quiet core of the host the bounds were tuned on.
REFERENCE_NS = 400_000


def probe_ns(steps: int = PROBE_STEPS) -> int:
    """Nanoseconds for a fixed pure-Python Fraction loop that uses no brauerval code."""
    started = time.monotonic_ns()
    acc = Fraction(0)
    for k in range(1, steps + 1):
        acc = (acc + Fraction(k % 7, k % 5 + 1)) % 1
    if not 0 <= acc < 1:
        raise AssertionError("unreachable: the probe sum is taken mod 1")
    return time.monotonic_ns() - started


def speed(samples: list[tuple[int, int]]) -> float | None:
    """Time-averaged host speed over evenly spaced (start, probe) samples, or None."""
    if not samples:
        return None
    return sum(REFERENCE_NS / ns for _, ns in samples) / len(samples)


def around(samples: list[tuple[int, int]], start_ns: int, end_ns: int) -> list[tuple[int, int]]:
    """The samples taken from start_ns to end_ns, or else the one nearest to them.

    Tasks shorter than INTERVAL_S often hold no sample; the nearest one
    is at most half an interval away, much less than the seconds the
    host stays in one speed.
    """
    inside = [s for s in samples if start_ns <= s[0] <= end_ns]
    if inside or not samples:
        return inside
    return [min(samples, key=lambda s: min(abs(s[0] - start_ns), abs(s[0] - end_ns)))]


class Sampler:
    """(start, probe time) pairs, one every INTERVAL_S of wall time between start and stop."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []

    def _probe(self, signum, frame) -> None:
        self.samples.append((time.monotonic_ns(), probe_ns()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, 0.001, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
