"""Simulation clock.

A thin wrapper around "current simulation time" with interval bookkeeping:
the reservation interval is the paper's 5-minute resource-reservation
period, and most of the pipeline reasons in whole intervals.

Interval ``i`` spans ``[i * interval_s, (i + 1) * interval_s)``, both ends
computed as one product, so the end of one interval is bitwise the start of
the next for any interval length.  The clock keeps the current interval's
index as an integer; floor-dividing a boundary time by an interval length
that binary floating point cannot represent (0.1, 45.6, ...) can round down
to the previous index.
"""

from __future__ import annotations


class SimulationClock:
    """Monotonic simulation time divided into fixed reservation intervals."""

    def __init__(self, interval_s: float = 300.0, start_s: float = 0.0) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if start_s < 0:
            raise ValueError("start_s must be non-negative")
        self.interval_s = interval_s
        self._now_s = float(start_s)
        self._interval = self._index_at(self._now_s)

    @property
    def now_s(self) -> float:
        return self._now_s

    @property
    def current_interval(self) -> int:
        """Index of the interval containing the current time."""
        return self._interval

    def _index_at(self, time_s: float) -> int:
        """The ``i`` with ``i * interval_s <= time_s < (i + 1) * interval_s``."""
        index = int(time_s // self.interval_s)
        while (index + 1) * self.interval_s <= time_s:
            index += 1
        while index > 0 and index * self.interval_s > time_s:
            index -= 1
        return index

    def interval_bounds(self, interval_index: int) -> tuple:
        """``(start_s, end_s)`` of a given interval index."""
        if interval_index < 0:
            raise ValueError("interval_index must be non-negative")
        return interval_index * self.interval_s, (interval_index + 1) * self.interval_s

    def advance(self, duration_s: float) -> float:
        """Advance time by ``duration_s`` and return the new time."""
        if duration_s < 0:
            raise ValueError("cannot advance by a negative duration")
        self._now_s += duration_s
        self._interval = self._index_at(self._now_s)
        return self._now_s

    def advance_interval(self) -> int:
        """Advance to the start of the next interval and return its index."""
        self._interval += 1
        self._now_s = self._interval * self.interval_s
        return self._interval
