"""Time-series store for UDT attributes.

Each attribute of a user digital twin is an append-only sequence of
timestamped vectors.  The store supports window queries (everything
collected during a reservation interval) and zero-order-hold resampling
onto a fixed grid (what the 1D-CNN compressor consumes), both of which the
prediction pipeline relies on.

Array-backed layout
-------------------
Samples live in two contiguous NumPy buffers — a ``(capacity,)`` float64
timestamp array and a ``(capacity, dimension)`` float64 value matrix — whose
first rows hold the samples.  Rows are never rewritten once filled, which
makes :meth:`~TimeSeriesStore.timestamps` and
:meth:`~TimeSeriesStore.values` safe to hand out as read-only views.
Because timestamps are kept sorted (appends enforce non-decreasing time),
every window query is a pair of ``np.searchsorted`` binary searches plus one
contiguous slice: O(log n + result size).

Appends keep references; the first read copies
----------------------------------------------
Every append goes through one check routine and one write routine over
*runs*: one run of samples per store, concatenated in a
:class:`StatusBlock`.  :meth:`~TimeSeriesStore.append_batch` appends a
single run; a digital-twin group append
(:meth:`~repro.twin.manager.DigitalTwinManager.append_group`) checks one run
per member store with :func:`check_runs` for every attribute before it
writes any of them with :func:`write_runs`.  Writing copies nothing: each
store keeps one small pending record per run (the block and the run's
bounds) and the block's arrays are marked read-only.  The first read of a
store's samples (:meth:`~TimeSeriesStore.timestamps`,
:meth:`~TimeSeriesStore.values`, :meth:`~TimeSeriesStore.window_values`,
:meth:`~TimeSeriesStore.resample_into`,
:meth:`~TimeSeriesStore.latest_value`) copies its pending runs into the
buffers (allocated by its first copy), doubling the capacity when it runs
out, so copying stays amortized O(samples).  ``len()`` and
:meth:`~TimeSeriesStore.latest_timestamp_s` count pending runs without
copying them.  Playback never reads a twin during a run, so its group
appends copy nothing; the prediction scheme reads every store once per
interval and copies each interval's runs then.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

#: Physical capacity of a store's buffers when it first copies samples in.
_INITIAL_CAPACITY = 16


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class StatusBlock(NamedTuple):
    """One run of samples per store, concatenated: a group's attribute block.

    Store (member) ``m`` owns ``counts[m]`` consecutive samples, starting
    after the samples of the stores before it; ``values`` has one row per
    timestamp.
    """

    counts: np.ndarray
    timestamps: np.ndarray
    values: np.ndarray


class TimeSeriesStore:
    """Append-only store of timestamped vectors of a fixed dimension."""

    def __init__(self, dimension: int) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        # Allocated on the first copy: a store that is never read holds no
        # buffers beside the blocks its pending runs refer to.
        self._times = np.empty(0, dtype=np.float64)
        self._values = np.empty((0, dimension), dtype=np.float64)
        #: Samples in the store, pending ones included.
        self._size = 0
        #: Samples copied into the buffers: their first ``_filled`` rows.
        self._filled = 0
        #: Runs appended since the last read, oldest first, each ``(block,
        #: start, stop)``: rows ``start:stop`` of the block's arrays.
        self._pending: List[Tuple[StatusBlock, int, int]] = []

    # ------------------------------------------------------------ mutation
    def append_batch(self, timestamps_s, values) -> int:
        """Append samples (the store keeps its own copy).

        ``timestamps_s`` must be non-decreasing and not precede the newest
        stored sample; ``values`` has shape ``(len(timestamps_s), dimension)``.
        Returns the number of samples appended.
        """
        timestamps = np.array(timestamps_s, dtype=np.float64).reshape(-1)
        block = StatusBlock(
            np.array([timestamps.shape[0]]),
            timestamps,
            np.atleast_2d(np.array(values, dtype=np.float64)),
        )
        check_runs([self], block)
        write_runs([self], block)
        return int(timestamps.shape[0])

    def _settle(self) -> None:
        """Copy the pending runs into the buffers, doubling them when full."""
        if not self._pending:
            return
        row = self._filled
        end = self._size
        capacity = max(self._times.shape[0], _INITIAL_CAPACITY)
        if end > capacity:
            capacity = max(capacity * 2, end)
        if capacity > self._times.shape[0]:
            times = np.empty(capacity, dtype=np.float64)
            times[:row] = self._times[:row]
            grown = np.empty((capacity, self.dimension), dtype=np.float64)
            grown[:row] = self._values[:row]
            self._times, self._values = times, grown
        for block, start, stop in self._pending:
            filled = row + stop - start
            self._times[row:filled] = block.timestamps[start:stop]
            self._values[row:filled] = block.values[start:stop]
            row = filled
        self._pending.clear()
        self._filled = end

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self._size

    def latest_timestamp_s(self) -> float:
        """Timestamp of the newest sample; ``-inf`` when the store is empty."""
        if self._pending:
            block, _, stop = self._pending[-1]
            return float(block.timestamps[stop - 1])
        return float(self._times[self._size - 1]) if self._size else -np.inf

    def latest_value(self) -> np.ndarray:
        """Newest value, or zeros when the store is empty."""
        self._settle()
        if self._size:
            return self._values[self._size - 1].copy()
        return np.zeros(self.dimension)

    def timestamps(self) -> np.ndarray:
        """Read-only view of the sample timestamps, oldest first."""
        self._settle()
        return _read_only(self._times[: self._size])

    def values(self) -> np.ndarray:
        """Read-only ``(num_samples, dimension)`` view of the sample values."""
        self._settle()
        return _read_only(self._values[: self._size])

    # --------------------------------------------------------------- queries
    def window_values(self, start_s: float, end_s: float) -> np.ndarray:
        """Values of the samples with ``start_s <= timestamp < end_s`` (a copy)."""
        if end_s < start_s:
            raise ValueError("end_s must be >= start_s")
        self._settle()
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
        self._settle()
        indices = self._times[: self._size].searchsorted(times_s, side="right") - 1
        # searchsorted never exceeds the sample count, so only the lower
        # bound needs clamping; the in-place ufunc avoids np.clip's dispatch
        # overhead (this runs once per attribute per user per feature query).
        np.maximum(indices, 0, out=indices)
        np.take(self._values[: self._size], indices, axis=0, out=out)


def check_runs(stores: Sequence[TimeSeriesStore], block: StatusBlock) -> None:
    """Raise ``ValueError`` unless ``block`` holds one appendable run per store.

    Store ``i``'s run is ``block.counts[i]`` samples long; the stores share
    one dimension.  Each run must be non-decreasing and must not precede its
    store's newest sample.  Nothing is written.
    """
    counts, timestamps, values = block
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


def write_runs(stores: Sequence[TimeSeriesStore], block: StatusBlock) -> None:
    """Append store ``i``'s run of ``block.counts[i]`` samples to it, unchecked.

    The layout is :func:`check_runs`'; call that first.  Each store keeps a
    reference to ``block`` and copies its run on its next read, so the
    block's arrays are marked read-only here.
    """
    _read_only(block.timestamps)
    _read_only(block.values)
    start = 0
    for store, count in zip(stores, block.counts.tolist()):
        if count:
            stop = start + count
            store._pending.append((block, start, stop))
            store._size += count
            start = stop
