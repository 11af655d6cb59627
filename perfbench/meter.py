"""Tick timing, calibrated against the machine's drifting speed.

The benchmark's VM changes speed by 20-30 % within a minute, and the
changes hit the library and any other Python code alike. So next to
every timed part of a tick the meter times a fixed piece of reference
work, and it rescales each part by ``REFERENCE_S`` over the median
reference time measured within ``WINDOW_S`` of that part. The result is
the part's host time at a fixed machine speed: one at which the
reference work takes ``REFERENCE_S``. Raw times are kept too.

The reference work is a float heap churn with a tiny working set, timed
on its second pass so that it measures the processor's speed and not
how much of the cache the library's last tick evicted: a reference that
depended on the library's memory footprint would hide (or invent) the
effect of changing it. It allocates nothing the garbage collector
tracks.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time
from typing import Any, Callable

#: Host seconds of one reference pass at the calibrated machine speed
#: (about its typical time on the 2-vCPU VM the benchmark was tuned on).
REFERENCE_S = 0.4e-3
#: Reference samples within this many seconds of a part calibrate it.
WINDOW_S = 0.5
#: Floats pushed through the reference heap per pass.
_REFERENCE_ITEMS = 1200


def reference_work() -> float:
    """The fixed work whose time measures the machine's current speed."""
    heap: list[float] = []
    total = 0.0
    for i in range(_REFERENCE_ITEMS):
        heapq.heappush(heap, ((i * 7919) % 1009) * 0.5)
        if len(heap) > 64:
            total += heapq.heappop(heap)
    return total


def reference_sample() -> float:
    """Host seconds of one warm reference pass."""
    reference_work()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def speed_sample() -> float:
    """Median reference time over 25 samples."""
    return statistics.median(reference_sample() for _ in range(25))


class Meter:
    """Records each tick as one or more timed parts.

    ``part(fn)`` times ``fn()``; with calibration on it then takes one
    reference sample. ``close_tick()`` makes the parts timed since the
    last close one tick.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self._parts: list[tuple[float, float]] = []
        self._tick_ends: list[int] = []
        self._samples: list[tuple[float, float]] = []

    def part(self, fn: Callable[[], Any]) -> Any:
        clock = time.perf_counter
        start = clock()
        result = fn()
        end = clock()
        self._parts.append((start, end))
        if self.calibrate:
            self._samples.append((clock(), reference_sample()))
        return result

    def close_tick(self) -> None:
        self._tick_ends.append(len(self._parts))

    def ticks(self) -> list[float]:
        """Raw host seconds of each tick."""
        return self._group([end - start for start, end in self._parts])

    def calibrated_ticks(self) -> list[float]:
        """Each tick's host seconds at the calibrated machine speed."""
        if not self._samples:
            raise ValueError("no reference samples: calibration was off")
        stamps = [stamp for stamp, _ in self._samples]
        scaled = []
        for start, end in self._parts:
            lo = bisect.bisect_left(stamps, start - WINDOW_S)
            hi = max(bisect.bisect_right(stamps, end + WINDOW_S), lo + 1)
            nearby = [sample for _, sample in self._samples[lo:hi]]
            scaled.append((end - start) * REFERENCE_S / statistics.median(nearby))
        return self._group(scaled)

    def _group(self, parts: list[float]) -> list[float]:
        ticks, begin = [], 0
        for end in self._tick_ends:
            ticks.append(sum(parts[begin:end]))
            begin = end
        return ticks
