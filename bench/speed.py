"""How fast the host runs Python right now, and times scaled by it.

A shared virtual machine's speed drifts by a fifth or more within seconds
(frequency and neighbours on the same cores), so two runs of the same code
read differently.  To cancel that drift, a fixed pure-Python kernel that
creates no container objects is timed every INTERVAL_S seconds from a
SIGALRM handler
while a pass runs, and each item's wall time is scaled by REFERENCE_S over
the median kernel time sampled within WINDOW_S seconds of the item.  A
scaled time reads in seconds of the reference host at its usual speed; it
moves with the program's own speed and not with the host's.  The handler's
own time is taken out of every measured interval.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

ROUNDS = 2000
WALK = 1500
# Median kernel time on the reference host (a 2-core Intel Xeon virtual
# machine, Python 3.11) at its usual speed.
REFERENCE_S = 0.0007
INTERVAL_S = 0.025
WINDOW_S = 0.25
BURST = 21

_TABLE = {i: i * 7 % 13 for i in range(512)}
# 65 536 int objects (about 2.5 MB) held in shuffled order, so that walking
# the list reads memory at random, as the library's term trees do; the
# table loop alone stays in the first-level cache and misses slowdowns that
# come from the memory side.
_MASK = (1 << 16) - 1
_OBJECTS = [int(str(i)) for i in range(1000, 1000 + _MASK + 1)]
random.Random(0).shuffle(_OBJECTS)
_offset = 0


def _step(x: int, table: dict) -> int:
    return table[x & 511] + x


def kernel() -> float:
    """Seconds one run of the fixed kernel takes now."""
    global _offset
    start = time.perf_counter()
    s = 0
    for i in range(ROUNDS):
        s = _step(i + s, _TABLE) & 0xFFFF
    for i in range(_offset, _offset + WALK):
        s += _OBJECTS[i & _MASK]
    _offset = (_offset + WALK) & _MASK
    return time.perf_counter() - start


def burst() -> float:
    """Median kernel time over BURST back-to-back runs."""
    return statistics.median(kernel() for _ in range(BURST))


class Speedometer:
    """Samples the kernel every INTERVAL_S seconds between `start` and
    `stop`.  `clock` is `time.perf_counter` minus the time spent sampling,
    so intervals measured with it exclude the sampler."""

    def __init__(self):
        self.stamps = []
        self.samples = []
        self._spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        took = kernel()
        self.stamps.append(begin - self._spent)
        self.samples.append(took)
        self._spent += time.perf_counter() - begin

    def start(self) -> None:
        self.stamps.append(self.clock())
        self.samples.append(burst())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, spans) -> list:
        """Each (start, end) interval of `clock` as reference seconds."""
        scaled = []
        for start, end in spans:
            lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
            near = self.samples[lo:hi] or self.samples
            scaled.append((end - start) * REFERENCE_S / statistics.median(near))
        return scaled
