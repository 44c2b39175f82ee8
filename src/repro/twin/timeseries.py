"""Time-series store for UDT attributes.

Each attribute of a user digital twin is an append-only sequence of
timestamped vectors.  The store supports window queries (everything
collected during a reservation interval), zero-order-hold resampling onto a
fixed grid (what the 1D-CNN compressor consumes) and staleness queries (how
old is the newest sample), all of which the prediction pipeline relies on.

Array-backed layout
-------------------
Samples live in two contiguous NumPy buffers — a ``(capacity,)`` float64
timestamp array and a ``(capacity, dimension)`` float64 value matrix — whose
first ``len(store)`` rows hold the samples.  :meth:`~TimeSeriesStore.append_batch`
writes into the next free rows and doubles the capacity when it runs out, so
appending is amortized O(batch).  Rows are never rewritten once filled, which
makes :meth:`~TimeSeriesStore.timestamps` and :meth:`~TimeSeriesStore.values`
safe to hand out as read-only views.  Because timestamps are kept sorted
(appends enforce non-decreasing time), every window query is a pair of
``np.searchsorted`` binary searches plus one contiguous slice: O(log n +
result size).
"""

from __future__ import annotations

import numpy as np

#: Initial physical capacity of a store's buffers.
_INITIAL_CAPACITY = 16


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class TimeSeriesStore:
    """Append-only store of timestamped vectors of a fixed dimension."""

    def __init__(self, dimension: int) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._values = np.empty((_INITIAL_CAPACITY, dimension), dtype=np.float64)
        self._size = 0

    # ------------------------------------------------------------ mutation
    def _ensure_room(self, count: int) -> None:
        """Make room for ``count`` more rows after the filled ones."""
        capacity = self._times.shape[0]
        if self._size + count <= capacity:
            return
        new_capacity = max(capacity * 2, self._size + count)
        new_times = np.empty(new_capacity, dtype=np.float64)
        new_values = np.empty((new_capacity, self.dimension), dtype=np.float64)
        new_times[: self._size] = self._times[: self._size]
        new_values[: self._size] = self._values[: self._size]
        self._times = new_times
        self._values = new_values

    def append_batch(self, timestamps_s, values) -> int:
        """Append samples (bulk copy into the buffers).

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
        if self._size and timestamps[0] < self._times[self._size - 1]:
            raise ValueError("timestamps must be non-decreasing")
        self._ensure_room(count)
        row = self._size
        self._times[row : row + count] = timestamps
        self._values[row : row + count] = values
        self._size += count
        return count

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self._size

    def latest_timestamp_s(self) -> float:
        """Timestamp of the newest sample (raises when the store is empty)."""
        if not self._size:
            raise ValueError("store is empty")
        return float(self._times[self._size - 1])

    def latest_value(self) -> np.ndarray:
        """Newest value, or zeros when the store is empty."""
        if self._size:
            return self._values[self._size - 1].copy()
        return np.zeros(self.dimension)

    def staleness_s(self, now_s: float) -> float:
        """Age of the newest sample; ``inf`` when no sample exists."""
        if not self._size:
            return float("inf")
        return float(now_s - self._times[self._size - 1])

    def timestamps(self) -> np.ndarray:
        """Read-only view of the sample timestamps, oldest first."""
        return _read_only(self._times[: self._size])

    def values(self) -> np.ndarray:
        """Read-only ``(num_samples, dimension)`` view of the sample values."""
        return _read_only(self._values[: self._size])

    # --------------------------------------------------------------- queries
    def window_values(self, start_s: float, end_s: float) -> np.ndarray:
        """Values of the samples with ``start_s <= timestamp < end_s`` (a copy)."""
        if end_s < start_s:
            raise ValueError("end_s must be >= start_s")
        times = self._times[: self._size]
        lo = int(times.searchsorted(start_s, side="left"))
        hi = int(times.searchsorted(end_s, side="left"))
        if lo == hi:
            return np.zeros((0, self.dimension))
        return self._values[lo:hi].copy()

    def resample_into(self, times_s: np.ndarray, out: np.ndarray) -> None:
        """Zero-order-hold resampling onto ``times_s``, written into ``out``.

        ``times_s`` must be a sorted 1-D float array and ``out`` a
        ``(len(times_s), dimension)`` view.  Times before the first sample
        receive the first sample's value; an empty store resamples to zeros.
        """
        if not self._size:
            out[:] = 0.0
            return
        indices = self._times[: self._size].searchsorted(times_s, side="right") - 1
        # searchsorted never exceeds the sample count, so only the lower
        # bound needs clamping; the in-place ufunc avoids np.clip's dispatch
        # overhead (this runs once per attribute per user per feature query).
        np.maximum(indices, 0, out=indices)
        np.take(self._values[: self._size], indices, axis=0, out=out)
