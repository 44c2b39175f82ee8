"""Population time-series tables for UDT attributes.

Each attribute of a user digital twin is an append-only sequence of
timestamped vectors.  An :class:`AttributeTable` keeps one attribute of the
whole population (the model is Elasecutor's resource usage depository: one
central store of every process's time series).  Twin ``r`` owns row ``r``;
the prediction scheme reads the table for many rows at once.

Column chunks
-------------
Samples live in a list of chunks.  A chunk is a ``(rows, width)`` float64
timestamp array padded with ``+inf`` and its ``(rows, width, dimension)``
values; each row fills its chunk slots left to right.  An append writes
each member's run into the newest chunk, after that row's filled slots; when
a run no longer fits (the row is full, or the chunk predates the row), a new
chunk opens, as wide as the widest run so far, with a row for every twin.
In practice one chunk opens per interval.  No chunk is ever copied to grow,
so the population's history is never held twice.  A row's samples are its
runs in chunk order, so its timestamps are non-decreasing across chunks
(every append is checked against the row's newest sample).

Every append goes through one check (:meth:`AttributeTable.check`) and one
write (:meth:`AttributeTable.write`) over a :class:`StatusBlock` that holds
one run per member; both are a few array operations per block, whatever the
number of members.  Reads are array gathers over rows:

* :meth:`AttributeTable.hold` -- zero-order hold of many rows onto one
  sorted grid, what the 1D-CNN compressor consumes.  Each row's samples are
  ranked among the grid times and counted per (row, time) in integers
  (:func:`repro.timegrid.counts_at`, as the walk table finds legs); chunks
  are visited from the newest back until every row has a sample at or
  before the grid's first time.
* :meth:`AttributeTable.window_means` -- each row's mean over a window.
* :meth:`AttributeTable.latest_values` -- each row's newest value.

:class:`StoreView` is one twin's row of one table: the per-user view that
:meth:`repro.twin.udt.UserDigitalTwin.store` hands out.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.timegrid import counts_at

#: Per-row bookkeeping arrays start with room for this many rows.
_INITIAL_ROWS = 16


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class StatusBlock(NamedTuple):
    """One run of samples per member, concatenated: a group's attribute block.

    Member ``m`` owns ``counts[m]`` consecutive samples, starting after the
    samples of the members before it; ``values`` has one row per timestamp.
    """

    counts: np.ndarray
    timestamps: np.ndarray
    values: np.ndarray


class _Chunk:
    """``(rows, width)`` sample slots of one attribute, filled left to right per row."""

    __slots__ = ("times", "values", "fill", "earliest", "latest")

    def __init__(self, rows: int, width: int, dimension: int) -> None:
        self.times = np.full((rows, width), np.inf)
        self.values = np.empty((rows, width, dimension))
        #: Filled slots per row.
        self.fill = np.zeros(rows, dtype=np.intp)
        #: Bounds of the timestamps written so far.
        self.earliest = np.inf
        self.latest = -np.inf


def _grown(array: np.ndarray, size: int, fill) -> np.ndarray:
    grown = np.full(size, fill, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


class AttributeTable:
    """One attribute's samples for a population of twins, a row per twin."""

    def __init__(self, dimension: int) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.num_rows = 0
        self._chunks: List[_Chunk] = []
        # Per row (the arrays hold spare rows past num_rows):
        #: samples in the row;
        self._sizes = np.zeros(0, dtype=np.intp)
        #: the newest timestamp, -inf while the row is empty;
        self._tails = np.zeros(0)
        #: the chunks holding the row's first and newest samples, -1 while empty.
        self._first = np.zeros(0, dtype=np.intp)
        self._last = np.zeros(0, dtype=np.intp)

    def add_rows(self, count: int) -> None:
        """Add ``count`` empty rows after the existing ones."""
        rows = self.num_rows + count
        if rows > self._sizes.shape[0]:
            capacity = max(rows, 2 * self._sizes.shape[0], _INITIAL_ROWS)
            self._sizes = _grown(self._sizes, capacity, 0)
            self._tails = _grown(self._tails, capacity, -np.inf)
            self._first = _grown(self._first, capacity, -1)
            self._last = _grown(self._last, capacity, -1)
        self.num_rows = rows

    # ------------------------------------------------------------ appends
    def check(self, rows: np.ndarray, block: StatusBlock) -> None:
        """Raise ``ValueError`` unless ``block`` holds one appendable run per row.

        Row ``rows[i]``'s run is ``block.counts[i]`` samples long.  Each run
        must be non-decreasing and must not precede its row's newest sample.
        Nothing is written.
        """
        counts, timestamps, values = block
        total = int(counts.sum())
        if counts.shape != rows.shape or timestamps.shape != (total,):
            raise ValueError(
                f"expected {rows.shape[0]} run lengths summing to {timestamps.shape[0]} "
                f"timestamps, got {counts.tolist()}"
            )
        if values.shape != (total, self.dimension):
            raise ValueError(
                f"expected values of shape ({total}, {self.dimension}), got {values.shape}"
            )
        if not total:
            return
        starts = np.cumsum(counts) - counts
        decreasing = timestamps[1:] < timestamps[:-1]
        # A run's first sample may precede the previous run's last one.
        decreasing[starts[(starts > 0) & (starts < total)] - 1] = False
        nonempty = counts > 0
        if decreasing.any() or (
            timestamps[starts[nonempty]] < self._tails[rows[nonempty]]
        ).any():
            raise ValueError("timestamps must be non-decreasing")

    def write(self, rows: np.ndarray, block: StatusBlock) -> None:
        """Append row ``rows[i]``'s run of ``block.counts[i]`` samples, unchecked.

        The layout is :meth:`check`'s; call that first.  The rows must be
        distinct.  The samples are copied into the newest chunk, or into a
        new one when a run does not fit.
        """
        counts, timestamps, values = block
        nonempty = counts > 0
        if not nonempty.any():
            return
        rows = rows[nonempty]
        runs = counts[nonempty]
        ends = np.cumsum(runs)
        starts = ends - runs
        chunk = self._chunks[-1] if self._chunks else None
        if (
            chunk is None
            or rows.max() >= chunk.fill.shape[0]
            or (chunk.fill[rows] + runs > chunk.times.shape[1]).any()
        ):
            width = int(runs.max()) if chunk is None else max(int(runs.max()), chunk.times.shape[1])
            chunk = _Chunk(self.num_rows, width, self.dimension)
            self._chunks.append(chunk)
        fill = chunk.fill[rows]
        run, first_fill = int(runs[0]), int(fill[0])
        if (runs == run).all() and (fill == first_fill).all():
            # Every run is as long and starts at the same slot: one rectangle.
            columns = slice(first_fill, first_fill + run)
            chunk.times[rows, columns] = timestamps.reshape(-1, run)
            chunk.values[rows, columns] = values.reshape(-1, run, self.dimension)
        else:
            owners = np.repeat(rows, runs)
            columns = np.arange(ends[-1]) - np.repeat(starts - fill, runs)
            chunk.times[owners, columns] = timestamps
            chunk.values[owners, columns] = values
        chunk.fill[rows] += runs
        # Each run is sorted, so the block's extremes are its runs' ends.
        chunk.earliest = min(chunk.earliest, float(timestamps.min()))
        chunk.latest = max(chunk.latest, float(timestamps.max()))
        index = len(self._chunks) - 1
        self._sizes[rows] += runs
        self._tails[rows] = timestamps[ends - 1]
        self._first[rows[self._first[rows] < 0]] = index
        self._last[rows] = index

    # -------------------------------------------------------------- reads
    def sizes(self, rows: np.ndarray) -> np.ndarray:
        return self._sizes[rows]

    def tails(self, rows: np.ndarray) -> np.ndarray:
        """Each row's newest timestamp; ``-inf`` for an empty row."""
        return self._tails[rows]

    def latest_values(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), dimension)``: each row's newest value, zeros for an empty row."""
        out = np.zeros((rows.shape[0], self.dimension))
        last = self._last[rows]
        for index in np.unique(last[last >= 0]).tolist():
            chunk = self._chunks[index]
            hit = last == index
            here = rows[hit]
            out[hit] = chunk.values[here, chunk.fill[here] - 1]
        return out

    def hold(self, rows: np.ndarray, grid: np.ndarray, out: np.ndarray) -> None:
        """Zero-order hold of each row onto the sorted ``grid``, written into ``out``.

        ``out`` is a ``(len(rows), len(grid), dimension)`` array or view.
        Each (row, time) takes the row's newest sample at or before the time;
        a time before the row's first sample takes that sample's value, and
        an empty row holds zeros.  Every value is a copy of a stored one.
        """
        num_rows, steps = rows.shape[0], grid.shape[0]
        if not num_rows or not steps:
            return
        chunk_of = np.full((num_rows, steps), -1, dtype=np.intp)
        column = np.zeros((num_rows, steps), dtype=np.intp)
        # Row positions still missing a sample at or before the first time.
        pending = np.flatnonzero(self._sizes[rows] > 0)
        used = set()
        for index in range(len(self._chunks) - 1, -1, -1):
            chunk = self._chunks[index]
            # Older chunks have no more rows than this one.
            pending = pending[rows[pending] < chunk.fill.shape[0]]
            if not pending.size:
                break
            if chunk.earliest > grid[-1]:
                continue
            here = rows[pending]
            width = int(chunk.fill[here].max())
            if not width:
                continue
            counts = counts_at(chunk.times[here, :width], grid)
            found = (counts > 0) & (chunk_of[pending] < 0)
            if found.any():
                used.add(index)
                chunks, columns = chunk_of[pending], column[pending]
                chunks[found] = index
                columns[found] = counts[found] - 1
                chunk_of[pending], column[pending] = chunks, columns
            pending = pending[counts[:, 0] == 0]
        # Times before a row's first sample take that sample.
        before = (chunk_of < 0) & (self._sizes[rows] > 0)[:, None]
        if before.any():
            firsts = np.broadcast_to(self._first[rows][:, None], before.shape)[before]
            chunk_of[before] = firsts
            column[before] = 0
            used.update(np.unique(firsts).tolist())
        if len(used) == 1 and (chunk_of >= 0).all():
            out[...] = self._chunks[used.pop()].values[rows[:, None], column]
            return
        out[...] = 0.0
        owners = np.broadcast_to(rows[:, None], chunk_of.shape)
        for index in used:
            hit = chunk_of == index
            out[hit] = self._chunks[index].values[owners[hit], column[hit]]

    def window_means(
        self, rows: np.ndarray, start_s: Optional[float], end_s: Optional[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(means, counts)``: each row's values with ``start_s <= t < end_s``.

        ``counts[i]`` is how many samples row ``rows[i]`` has in the window
        and ``means[i]`` the ``mean()`` of their ``(counts[i], dimension)``
        values, 0.0 where there are none.  ``None`` leaves that side open.
        A row's mean equals its own window's ``mean()`` bit for bit: rows with
        equally many values are stacked into one matrix, and numpy adds each
        row of a matrix in the same pairwise order as that row alone.
        """
        num_rows = rows.shape[0]
        counts = np.zeros(num_rows, dtype=np.intp)
        spans = []
        for chunk in self._chunks:
            if (start_s is not None and chunk.latest < start_s) or (
                end_s is not None and chunk.earliest >= end_s
            ):
                continue
            positions = np.flatnonzero(rows < chunk.fill.shape[0])
            here = rows[positions]
            fill = chunk.fill[here]
            width = int(fill.max()) if here.size else 0
            if not width:
                continue
            times = chunk.times[here, :width]
            lo = np.zeros_like(fill) if start_s is None else (times < start_s).sum(axis=1)
            hi = fill if end_s is None else np.minimum((times < end_s).sum(axis=1), fill)
            hi = np.maximum(hi, lo)
            spans.append((chunk, positions, lo, hi, counts[positions].copy()))
            counts[positions] += hi - lo
        means = np.zeros(num_rows)
        longest = int(counts.max()) if num_rows else 0
        if not longest:
            return means, counts
        window = np.empty((num_rows, longest, self.dimension))
        for chunk, positions, lo, hi, offsets in spans:
            slots = np.arange(hi.max() if hi.size else 0)
            inside = (slots >= lo[:, None]) & (slots < hi[:, None])
            owners, slot = np.nonzero(inside)
            window[positions[owners], offsets[owners] + slot - lo[owners]] = chunk.values[
                rows[positions[owners]], slot
            ]
        for length in np.unique(counts[counts > 0]).tolist():
            hit = counts == length
            stacked = np.ascontiguousarray(window[hit, :length]).reshape(
                -1, length * self.dimension
            )
            means[hit] = stacked.mean(axis=1)
        return means, counts

    def samples(
        self, row: int, start_s: Optional[float] = None, end_s: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One row's ``(timestamps, values)``, oldest first.

        With a window, only the samples with ``start_s <= t < end_s``.
        """
        times: List[np.ndarray] = []
        values: List[np.ndarray] = []
        first = int(self._first[row])
        if first >= 0:
            for chunk in self._chunks[first : int(self._last[row]) + 1]:
                if row >= chunk.fill.shape[0]:
                    continue
                stamps = chunk.times[row, : chunk.fill[row]]
                if start_s is None:
                    lo, hi = 0, stamps.shape[0]
                else:
                    lo, hi = stamps.searchsorted([start_s, end_s])
                times.append(stamps[lo:hi])
                values.append(chunk.values[row, lo:hi])
        if not times:
            return np.zeros(0), np.zeros((0, self.dimension))
        return np.concatenate(times), np.concatenate(values)


class StoreView:
    """One twin's samples of one attribute: its row of an :class:`AttributeTable`."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: AttributeTable, row: int) -> None:
        self._table = table
        self._row = row

    @property
    def dimension(self) -> int:
        return self._table.dimension

    # ------------------------------------------------------------ mutation
    def append_batch(self, timestamps_s, values) -> int:
        """Append samples (the table keeps its own copy).

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
        rows = np.array([self._row])
        self._table.check(rows, block)
        self._table.write(rows, block)
        return int(timestamps.shape[0])

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return int(self._table.sizes(np.array([self._row]))[0])

    def latest_timestamp_s(self) -> float:
        """Timestamp of the newest sample; ``-inf`` when the store is empty."""
        return float(self._table.tails(np.array([self._row]))[0])

    def latest_value(self) -> np.ndarray:
        """Newest value, or zeros when the store is empty."""
        return self._table.latest_values(np.array([self._row]))[0]

    def timestamps(self) -> np.ndarray:
        """Read-only copy of the sample timestamps, oldest first."""
        return _read_only(self._table.samples(self._row)[0])

    def values(self) -> np.ndarray:
        """Read-only ``(num_samples, dimension)`` copy of the sample values."""
        return _read_only(self._table.samples(self._row)[1])

    # --------------------------------------------------------------- queries
    def window_values(self, start_s: float, end_s: float) -> np.ndarray:
        """Values of the samples with ``start_s <= timestamp < end_s`` (a copy)."""
        if end_s < start_s:
            raise ValueError("end_s must be >= start_s")
        return self._table.samples(self._row, start_s, end_s)[1]

    def resample_into(self, times_s: np.ndarray, out: np.ndarray) -> None:
        """Zero-order-hold resampling onto ``times_s``, written into ``out``.

        ``times_s`` must be a sorted 1-D float array and ``out`` a
        ``(len(times_s), dimension)`` view.  Times before the first sample
        receive the first sample's value; an empty store resamples to zeros.
        """
        self._table.hold(np.array([self._row]), np.asarray(times_s), out[None])
