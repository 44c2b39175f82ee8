"""Time-series store for UDT attributes.

Each attribute of a user digital twin is an append-only sequence of
timestamped vectors.  The store supports window queries (everything
collected during a reservation interval), resampling onto a fixed grid (what
the 1D-CNN compressor consumes) and staleness queries (how old is the newest
sample), all of which the prediction pipeline relies on.

Array-backed layout
-------------------
Samples live in two contiguous NumPy buffers — a ``(capacity,)`` float64
timestamp array and a ``(capacity, dimension)`` float64 value matrix — with
an active region ``[_start, _start + _size)``.  Appends write into the next
free row and double the capacity when it runs out, so a single append is
amortized O(1) and ``append_batch`` is O(batch).  The ``max_samples`` ring
behaviour slides ``_start`` forward instead of copying, compacting the
active region back to row zero only when the physical buffer is exhausted
(amortized O(1) per append as well).  Because timestamps are kept sorted
(appends enforce non-decreasing time), every window query —
:meth:`~TimeSeriesStore.window`, :meth:`~TimeSeriesStore.window_values`,
:meth:`~TimeSeriesStore.mean`, :meth:`~TimeSeriesStore.resample` — is a pair
of ``np.searchsorted`` binary searches plus one contiguous slice: O(log n +
result size) instead of the O(n) scan-and-``vstack`` of a list-of-objects
store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

#: Initial physical capacity of a store's buffers.
_INITIAL_CAPACITY = 16


@dataclass(frozen=True)
class TimestampedValue:
    """One sample of an attribute."""

    timestamp_s: float
    value: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", np.atleast_1d(np.asarray(self.value, dtype=np.float64)))


class TimeSeriesStore:
    """Append-only store of timestamped vectors of a fixed dimension."""

    def __init__(self, dimension: int, max_samples: Optional[int] = None) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        if max_samples is not None and max_samples <= 0:
            raise ValueError("max_samples must be positive when given")
        self.dimension = dimension
        self.max_samples = max_samples
        capacity = _INITIAL_CAPACITY
        if max_samples is not None:
            capacity = min(capacity, max_samples * 2)
        self._times = np.empty(capacity, dtype=np.float64)
        self._values = np.empty((capacity, dimension), dtype=np.float64)
        self._start = 0
        self._size = 0

    # ---------------------------------------------------------- buffer admin
    def _active_times(self) -> np.ndarray:
        return self._times[self._start : self._start + self._size]

    def _active_values(self) -> np.ndarray:
        return self._values[self._start : self._start + self._size]

    def _ensure_room(self, count: int) -> None:
        """Make room for ``count`` more rows at the end of the active region."""
        capacity = self._times.shape[0]
        if self._start + self._size + count <= capacity:
            return
        if self._size + count <= capacity // 2:
            # Plenty of dead space at the front (ring behaviour slid _start
            # forward): compact in place instead of reallocating.
            self._times[: self._size] = self._active_times()
            self._values[: self._size] = self._active_values()
            self._start = 0
            return
        new_capacity = max(capacity * 2, self._size + count, _INITIAL_CAPACITY)
        new_times = np.empty(new_capacity, dtype=np.float64)
        new_values = np.empty((new_capacity, self.dimension), dtype=np.float64)
        new_times[: self._size] = self._active_times()
        new_values[: self._size] = self._active_values()
        self._times = new_times
        self._values = new_values
        self._start = 0

    def _enforce_ring(self) -> None:
        if self.max_samples is not None and self._size > self.max_samples:
            overflow = self._size - self.max_samples
            self._start += overflow
            self._size = self.max_samples

    # ------------------------------------------------------------ mutation
    def append(self, timestamp_s: float, value) -> TimestampedValue:
        """Append a sample; timestamps must be non-decreasing."""
        value = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if value.shape != (self.dimension,):
            raise ValueError(
                f"expected a value of dimension {self.dimension}, got shape {value.shape}"
            )
        timestamp_s = float(timestamp_s)
        if self._size and timestamp_s < self._times[self._start + self._size - 1]:
            raise ValueError("timestamps must be non-decreasing")
        self._ensure_room(1)
        row = self._start + self._size
        self._times[row] = timestamp_s
        self._values[row] = value
        self._size += 1
        self._enforce_ring()
        return TimestampedValue(timestamp_s=timestamp_s, value=value)

    def append_batch(self, timestamps_s, values) -> int:
        """Append many samples at once (bulk copy into the buffers).

        ``timestamps_s`` must be non-decreasing and not precede the newest
        stored sample; ``values`` has shape ``(len(timestamps_s), dimension)``.
        Returns the number of samples appended.
        """
        timestamps = np.asarray(timestamps_s, dtype=np.float64).reshape(-1)
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.shape != (timestamps.shape[0], self.dimension):
            raise ValueError(
                f"expected values of shape ({timestamps.shape[0]}, {self.dimension}), "
                f"got {values.shape}"
            )
        count = int(timestamps.shape[0])
        if count == 0:
            return 0
        if count > 1 and np.any(timestamps[1:] < timestamps[:-1]):
            raise ValueError("timestamps must be non-decreasing")
        if self._size and timestamps[0] < self._times[self._start + self._size - 1]:
            raise ValueError("timestamps must be non-decreasing")
        self._ensure_room(count)
        row = self._start + self._size
        self._times[row : row + count] = timestamps
        self._values[row : row + count] = values
        self._size += count
        self._enforce_ring()
        return count

    def clear(self) -> None:
        self._start = 0
        self._size = 0

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self._size

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    def latest(self) -> TimestampedValue:
        if not self._size:
            raise ValueError("store is empty")
        row = self._start + self._size - 1
        return TimestampedValue(
            timestamp_s=float(self._times[row]), value=self._values[row].copy()
        )

    def latest_timestamp_s(self) -> float:
        """Timestamp of the newest sample (raises when the store is empty)."""
        if not self._size:
            raise ValueError("store is empty")
        return float(self._times[self._start + self._size - 1])

    def latest_value(self, default: Optional[np.ndarray] = None) -> np.ndarray:
        """Newest value, or ``default`` / zeros when the store is empty."""
        if self._size:
            return self._values[self._start + self._size - 1].copy()
        if default is not None:
            return np.atleast_1d(np.asarray(default, dtype=np.float64))
        return np.zeros(self.dimension)

    def staleness_s(self, now_s: float) -> float:
        """Age of the newest sample; ``inf`` when no sample exists."""
        if not self._size:
            return float("inf")
        return float(now_s - self._times[self._start + self._size - 1])

    def timestamps(self) -> np.ndarray:
        return self._active_times().copy()

    def time_view(self) -> np.ndarray:
        """No-copy view of the active timestamps — treat as read-only.

        Batch readers (the manager's cross-user resample) stack many stores'
        buffers into one array; handing them a copy per store per query
        would defeat the point.
        """
        return self._active_times()

    def value_view(self) -> np.ndarray:
        """No-copy ``(num_samples, dimension)`` view — treat as read-only."""
        return self._active_values()

    def values(self) -> np.ndarray:
        """All values stacked into shape ``(num_samples, dimension)``."""
        if not self._size:
            return np.zeros((0, self.dimension))
        return self._active_values().copy()

    # --------------------------------------------------------------- queries
    def _window_slice(self, start_s: float, end_s: float) -> slice:
        """Row slice (relative to the active region) of ``start_s <= t < end_s``."""
        times = self._active_times()
        lo = int(times.searchsorted(start_s, side="left"))
        hi = int(times.searchsorted(end_s, side="left"))
        return slice(lo, hi)

    def window(self, start_s: float, end_s: float) -> List[TimestampedValue]:
        """All samples with ``start_s <= timestamp < end_s``."""
        if end_s < start_s:
            raise ValueError("end_s must be >= start_s")
        rows = self._window_slice(start_s, end_s)
        times = self._active_times()[rows]
        values = self._active_values()[rows]
        return [
            TimestampedValue(timestamp_s=float(t), value=v.copy())
            for t, v in zip(times, values)
        ]

    def window_values(self, start_s: float, end_s: float) -> np.ndarray:
        if end_s < start_s:
            raise ValueError("end_s must be >= start_s")
        rows = self._window_slice(start_s, end_s)
        if rows.start == rows.stop:
            return np.zeros((0, self.dimension))
        return self._active_values()[rows].copy()

    def resample(self, times_s: Sequence[float]) -> np.ndarray:
        """Zero-order-hold resampling onto ``times_s`` (shape ``(len, dimension)``).

        Times before the first sample receive the first sample's value; an
        empty store resamples to zeros.
        """
        times = np.asarray(times_s, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("times_s must be one-dimensional")
        if not self._size:
            return np.zeros((times.shape[0], self.dimension))
        indices = self._active_times().searchsorted(times, side="right") - 1
        # searchsorted never exceeds _size, so only the lower bound needs
        # clamping; the in-place ufunc avoids np.clip's dispatch overhead
        # (this runs once per attribute per user per feature query).
        np.maximum(indices, 0, out=indices)
        return self._active_values()[indices]

    def resample_into(self, times_s: np.ndarray, out: np.ndarray) -> None:
        """:meth:`resample` writing into a preallocated ``out`` slice.

        A twin's feature matrix assembles directly into its stacked
        columns this way, skipping the
        input re-validation and the intermediate allocation of
        :meth:`resample`.  ``times_s`` must already be a sorted 1-D float
        array and ``out`` a ``(len(times_s), dimension)`` view.
        """
        if not self._size:
            out[:] = 0.0
            return
        indices = self._active_times().searchsorted(times_s, side="right") - 1
        np.maximum(indices, 0, out=indices)
        np.take(self._active_values(), indices, axis=0, out=out)

    def mean(self, start_s: Optional[float] = None, end_s: Optional[float] = None) -> np.ndarray:
        """Mean value over a window (whole history by default)."""
        if start_s is None and end_s is None:
            values = self._active_values()
        else:
            start = start_s if start_s is not None else -np.inf
            end = end_s if end_s is not None else np.inf
            if end < start:
                raise ValueError("end_s must be >= start_s")
            values = self._active_values()[self._window_slice(start, end)]
        if values.shape[0] == 0:
            return np.zeros(self.dimension)
        return values.mean(axis=0)
