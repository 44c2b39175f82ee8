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
first ``len(store)`` rows hold the samples.  Appends write into the next
free rows and double the capacity when it runs out, so appending is
amortized O(batch).  Rows are never rewritten once filled, which makes
:meth:`~TimeSeriesStore.timestamps` and :meth:`~TimeSeriesStore.values`
safe to hand out as read-only views.  Because timestamps are kept sorted
(appends enforce non-decreasing time), every window query is a pair of
``np.searchsorted`` binary searches plus one contiguous slice: O(log n +
result size).

Every append goes through one check routine and one write routine over
*runs*: one run of samples per store, concatenated.
:meth:`~TimeSeriesStore.append_batch` appends a single run; a digital-twin
group append (:meth:`~repro.twin.manager.DigitalTwinManager.append_group`)
checks one run per member store with :func:`check_runs` for every
attribute before it writes any of them with :func:`write_runs`.
"""

from __future__ import annotations

from typing import Sequence

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
    def append_batch(self, timestamps_s, values) -> int:
        """Append samples (bulk copy into the buffers).

        ``timestamps_s`` must be non-decreasing and not precede the newest
        stored sample; ``values`` has shape ``(len(timestamps_s), dimension)``.
        Returns the number of samples appended.
        """
        timestamps = np.asarray(timestamps_s, dtype=np.float64).reshape(-1)
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        counts = np.array([timestamps.shape[0]])
        check_runs([self], counts, timestamps, values)
        write_runs([self], counts, timestamps, values)
        return int(timestamps.shape[0])

    def _write(self, timestamps: np.ndarray, values: np.ndarray) -> None:
        """Copy checked samples into the next free rows, doubling when full."""
        row = self._size
        end = row + timestamps.shape[0]
        capacity = self._times.shape[0]
        if end > capacity:
            capacity = max(capacity * 2, end)
            times = np.empty(capacity, dtype=np.float64)
            times[:row] = self._times[:row]
            grown = np.empty((capacity, self.dimension), dtype=np.float64)
            grown[:row] = self._values[:row]
            self._times, self._values = times, grown
        self._times[row:end] = timestamps
        self._values[row:end] = values
        self._size = end

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self._size

    def latest_timestamp_s(self) -> float:
        """Timestamp of the newest sample; ``-inf`` when the store is empty."""
        return float(self._times[self._size - 1]) if self._size else -np.inf

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


def check_runs(
    stores: Sequence[TimeSeriesStore],
    counts: np.ndarray,
    timestamps: np.ndarray,
    values: np.ndarray,
) -> None:
    """Raise ``ValueError`` unless one run per store can be appended.

    ``timestamps`` and ``values`` concatenate one run per store, store
    ``i``'s run ``counts[i]`` samples long; the stores share one dimension.
    Each run must be non-decreasing and must not precede its store's newest
    sample.  Nothing is written.
    """
    total = int(counts.sum())
    dimension = stores[0].dimension
    if counts.shape != (len(stores),) or timestamps.shape != (total,):
        raise ValueError(
            f"expected {len(stores)} run lengths summing to {timestamps.shape[0]} "
            f"timestamps, got {counts.tolist()}"
        )
    if values.shape != (total, dimension):
        raise ValueError(f"expected values of shape ({total}, {dimension}), got {values.shape}")
    if not total:
        return
    starts = np.cumsum(counts) - counts
    decreasing = timestamps[1:] < timestamps[:-1]
    # A run's first sample may precede the previous run's last one.
    decreasing[starts[(starts > 0) & (starts < total)] - 1] = False
    tails = np.array([store.latest_timestamp_s() for store in stores])
    nonempty = counts > 0
    if decreasing.any() or (timestamps[starts[nonempty]] < tails[nonempty]).any():
        raise ValueError("timestamps must be non-decreasing")


def write_runs(
    stores: Sequence[TimeSeriesStore],
    counts: np.ndarray,
    timestamps: np.ndarray,
    values: np.ndarray,
) -> None:
    """Append store ``i``'s run of ``counts[i]`` samples to it, unchecked.

    The layout is :func:`check_runs`'; call that first.
    """
    start = 0
    for store, count in zip(stores, counts.tolist()):
        if count:
            store._write(timestamps[start : start + count], values[start : start + count])
            start += count
