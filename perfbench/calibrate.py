"""A machine-speed reference timed alongside every workload.

The 2-CPU reference machine is a shared VM whose speed swings by up to
1.75x within seconds.  A fixed pure-Python loop (tuples, a dict, a
sort: allocation-heavy like the program) is timed at checkpoints that
cut the timed phase into short segments.  Each segment, and each
operation inside it, is divided by the reference time around it, so a
slow stretch slows the loop and the program alike and cancels, while a
slower program still shows.  On that machine the ratio of a program
chunk to the loop held within about 3% while both swung by 1.75x.  The
loop uses nothing from ``repro``, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Tuple

#: Items per reference timing: about 0.03 s on the reference machine.
_ITEMS = 25_000


def _reference_loop() -> int:
    items = [(i * 7919 % 100_003, str(i)) for i in range(_ITEMS)]
    table = dict(items)
    items.sort()
    return sum(1 for key in table if key & 1)


class Reference:
    """Checkpoint timings of the reference loop within one run.

    Call :meth:`checkpoint` at the start and end of the timed phase and
    between its parts; between two checkpoints the reference time is
    the mean of the two.
    """

    def __init__(self) -> None:
        #: ``(started, ended, seconds)`` of each checkpoint.
        self.points: List[Tuple[float, float, float]] = []
        #: Seconds spent in checkpoints, to leave out of ``wall_s``.
        self.spent_s = 0.0

    def checkpoint(self) -> None:
        started = time.perf_counter()
        _reference_loop()
        ended = time.perf_counter()
        self.points.append((started, ended, ended - started))
        self.spent_s += ended - started

    @property
    def seconds(self) -> float:
        """The mean reference time over the run."""
        return sum(p[2] for p in self.points) / len(self.points)

    def _gap(self, moment: float) -> float:
        """The reference time around ``moment``."""
        starts = [p[0] for p in self.points]
        index = bisect.bisect_right(starts, moment)
        before = self.points[max(index - 1, 0)][2]
        after = self.points[min(index, len(self.points) - 1)][2]
        return (before + after) / 2

    def measure(self, started: float, ended: float) -> Tuple[float, float]:
        """``(seconds, reference units)`` from ``started`` to ``ended``,
        leaving out the checkpoints inside."""
        seconds = units = 0.0
        edges = [started] + [
            edge for p in self.points if started < p[0] < ended
            for edge in p[:2]
        ] + [ended]
        for begin, finish in zip(edges[::2], edges[1::2]):
            seconds += finish - begin
            units += (finish - begin) / self._gap((begin + finish) / 2)
        return seconds, units
