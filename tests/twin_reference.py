"""The per-user twin stores the population tables replaced: the bitwise reference.

:class:`TimeSeriesStore` keeps one user's samples of one attribute
(array buffers, copy-on-read runs), :class:`ReferenceTwin` one store per
attribute plus the user's watch records, and :class:`ReferenceTwinManager`
one twin per user, appending a group's status member by member.  The tests
feed the same appends to these and to
:class:`repro.twin.manager.DigitalTwinManager` and compare every read bit
for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.behavior.watching import WatchBlock, WatchRecord
from repro.twin.attributes import AttributeSpec, DEFAULT_ATTRIBUTES, WATCHING_DURATION
from repro.twin.collector import CollectedStatus
from repro.twin.timeseries import StatusBlock

#: Physical capacity of a store's buffers when it first copies samples in.
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


class ReferenceTwin:
    """One user's twin: a store per attribute and a watch-record list."""

    def __init__(
        self,
        user_id: int,
        attributes: Optional[Mapping[str, AttributeSpec]] = None,
    ) -> None:
        if user_id < 0:
            raise ValueError("user_id must be non-negative")
        self.user_id = user_id
        self.attributes: Dict[str, AttributeSpec] = dict(
            attributes if attributes is not None else DEFAULT_ATTRIBUTES
        )
        if not self.attributes:
            raise ValueError("a UDT needs at least one attribute")
        self._stores: Dict[str, TimeSeriesStore] = {
            name: TimeSeriesStore(spec.dimension) for name, spec in self.attributes.items()
        }
        #: Watch records built so far, oldest first.
        self._watch_records: List[WatchRecord] = []
        #: Watch runs appended since the last read, oldest first, each
        #: ``(block, row, keep row or None)``.
        self._pending_watches: List[Tuple[WatchBlock, int, Optional[np.ndarray]]] = []

    # ------------------------------------------------------------ collection
    def store(self, attribute: str) -> TimeSeriesStore:
        if attribute not in self._stores:
            raise KeyError(f"UDT of user {self.user_id} has no attribute {attribute!r}")
        return self._stores[attribute]

    def record_batch(self, attribute: str, timestamps_s, values) -> int:
        """Append samples of ``attribute`` (bulk buffer copy)."""
        return self.store(attribute).append_batch(timestamps_s, values)

    def record_watches(self, records: Sequence[WatchRecord]) -> None:
        """Store watch records and mirror their durations into the time series.

        The records go in as a one-member block, through the group append's
        routines.  A record older than the newest watching-duration sample
        is mirrored at that sample's time, so the series stays
        non-decreasing.
        """
        block = WatchBlock.from_records(self.user_id, records)
        check_watches([self.user_id], block, None)
        append_watches([self], block, None)

    # -------------------------------------------------------------- queries
    def watch_records(
        self,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> List[WatchRecord]:
        """Watch records whose timestamps fall in ``[start_s, end_s)``.

        Builds the records appended since the last call first.
        """
        for block, row, keep in self._pending_watches:
            self._watch_records.extend(block.records(row, keep))
        self._pending_watches.clear()
        records = self._watch_records
        if start_s is not None:
            records = [r for r in records if r.timestamp_s >= start_s]
        if end_s is not None:
            records = [r for r in records if r.timestamp_s < end_s]
        return list(records)

    # ------------------------------------------------------------- features
    def feature_matrix(self, start_s: float, end_s: float, num_steps: int = 32) -> np.ndarray:
        """Resample all attributes onto a common grid and stack channels.

        The result has shape ``(num_steps, total_dimension)``, channels in
        attribute insertion order (see :meth:`resample_into`).  This is the
        raw per-user input to the 1D-CNN compressor.
        """
        if end_s <= start_s:
            raise ValueError("end_s must be greater than start_s")
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        times = np.linspace(start_s, end_s, num_steps, endpoint=False)
        matrix = np.empty((num_steps, sum(spec.dimension for spec in self.attributes.values())))
        self.resample_into(times, matrix)
        return matrix

    def resample_into(self, times_s: np.ndarray, out: np.ndarray) -> None:
        """Zero-order hold of every attribute onto ``times_s``, written into ``out``.

        ``out`` is a ``(len(times_s), total_dimension)`` view; each
        attribute's store fills its own columns, in attribute insertion order.
        """
        column = 0
        for store in self._stores.values():
            store.resample_into(times_s, out[:, column : column + store.dimension])
            column += store.dimension

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        counts = {name: len(store) for name, store in self._stores.items()}
        return f"ReferenceTwin(user_id={self.user_id}, samples={counts})"


def check_watches(
    user_ids: Sequence[int], block: WatchBlock, kept: Optional[np.ndarray]
) -> None:
    """Raise ``ValueError`` unless row ``i`` of ``block`` is user ``user_ids[i]``'s.

    ``kept``, if given, must mask the block's ``(members, videos)`` grid.
    """
    if not np.array_equal(block.member_ids, user_ids):
        raise ValueError(
            f"watch records of users {block.member_ids.tolist()} pushed to the UDTs "
            f"of users {list(user_ids)}"
        )
    if kept is not None and kept.shape != block.swiped.shape:
        raise ValueError(f"expected a keep mask of shape {block.swiped.shape}, got {kept.shape}")


def append_watches(
    twins: Sequence[ReferenceTwin], block: WatchBlock, kept: Optional[np.ndarray]
) -> None:
    """Keep row ``i`` of ``block`` in ``twins[i]`` and mirror its durations, unchecked.

    Only the records ``kept`` marks are kept (all when it is ``None``).  The
    block's arrays are marked read-only: each twin keeps a reference and
    builds its records on its next :meth:`~ReferenceTwin.watch_records`
    call.  The twins share their attributes.  Each twin's watching-duration
    run starts no earlier than its newest sample: the first kept record's
    time is clamped to it, and a running maximum keeps the run
    non-decreasing.
    """
    for array in block:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    members, videos = block.swiped.shape
    counts = np.full(members, videos) if kept is None else kept.sum(axis=1)
    for row, (twin, count) in enumerate(zip(twins, counts.tolist())):
        if count:
            twin._pending_watches.append((block, row, None if kept is None else kept[row]))
    if not counts.any() or WATCHING_DURATION not in twins[0]._stores:
        return
    stores = [twin._stores[WATCHING_DURATION] for twin in twins]
    # One row per twin, its dropped records at -inf: clamp the row's first
    # time to the twin's newest sample, then take the running maximum along
    # the row, which carries that clamp to the first kept record.
    times = np.tile(block.start_times_s, (members, 1))
    if kept is not None:
        times[~kept] = -np.inf
    tails = [store.latest_timestamp_s() for store in stores]
    np.maximum(times[:, 0], tails, out=times[:, 0])
    np.maximum.accumulate(times, axis=1, out=times)
    if kept is None:
        run = StatusBlock(counts, times.ravel(), block.watch_durations_s.reshape(-1, 1))
    else:
        run = StatusBlock(counts, times[kept], block.watch_durations_s[kept][:, None])
    write_runs(stores, run)


class ReferenceTwinManager:
    """One reference twin per user."""

    def __init__(self, attributes: Optional[Mapping[str, AttributeSpec]] = None) -> None:
        self.attributes: Dict[str, AttributeSpec] = dict(
            attributes if attributes is not None else DEFAULT_ATTRIBUTES
        )
        self._twins: Dict[int, ReferenceTwin] = {}

    # ------------------------------------------------------------ registry
    def __len__(self) -> int:
        return len(self._twins)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._twins

    def user_ids(self) -> List[int]:
        return sorted(self._twins.keys())

    def register_user(self, user_id: int) -> ReferenceTwin:
        """Create (or return the existing) twin for ``user_id``."""
        if user_id not in self._twins:
            self._twins[user_id] = ReferenceTwin(user_id, attributes=self.attributes)
        return self._twins[user_id]

    def register_users(self, user_ids: Iterable[int]) -> None:
        for uid in user_ids:
            self.register_user(uid)

    def twin(self, user_id: int) -> ReferenceTwin:
        if user_id not in self._twins:
            raise KeyError(f"no digital twin registered for user {user_id}")
        return self._twins[user_id]

    def remove_user(self, user_id: int) -> None:
        self._twins.pop(user_id, None)

    # ----------------------------------------------------------- appends
    def append_group(self, user_ids: Sequence[int], status: CollectedStatus) -> None:
        """Append one group's collected status to its members' twins.

        ``user_ids[m]`` owns member ``m``'s samples of every block and row
        ``m`` of ``status.watches``.  Each attribute's block is checked once
        for all members (shapes, time order within each member's samples, no
        sample before the member's newest stored one), and so are the watch
        block's members (they must be ``user_ids``) and the keep mask's
        shape, before anything is kept: a rejected group leaves every twin
        as it was.  Then each member's stores keep a reference to their run
        of each block, whose arrays become read-only (a store copies its
        runs in on its next read, see :class:`TimeSeriesStore`); each
        twin likewise keeps a reference to its row of the watch block and
        builds the records on its next read, and the kept durations are
        mirrored into the watching-duration series from the arrays.
        """
        twins = [self.twin(uid) for uid in user_ids]
        blocks = []
        for name, block in status.samples.items():
            stores = [twin.store(name) for twin in twins]
            check_runs(stores, block)
            blocks.append((stores, block))
        check_watches(user_ids, status.watches, status.kept)
        for stores, block in blocks:
            write_runs(stores, block)
        append_watches(twins, status.watches, status.kept)

    # --------------------------------------------------------- aggregation
    def feature_tensor(
        self,
        start_s: float,
        end_s: float,
        num_steps: int = 32,
        user_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Stacked per-user feature matrices, shape ``(users, num_steps, channels)``.

        Users are ordered by ``user_ids`` (default: sorted registry order),
        which is also the row order of everything derived downstream
        (compressed features, cluster labels, multicast groups).  Row ``u``
        is twin ``u``'s own zero-order hold on one shared grid, so it equals
        ``twin(u).feature_matrix(...)``.
        """
        ids = list(user_ids) if user_ids is not None else self.user_ids()
        if not ids:
            raise ValueError("no users registered")
        if end_s <= start_s:
            raise ValueError("end_s must be greater than start_s")
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        times = np.linspace(start_s, end_s, num_steps, endpoint=False)
        twins = [self.twin(uid) for uid in ids]
        channels = sum(spec.dimension for spec in twins[0].attributes.values())
        tensor = np.empty((len(twins), num_steps, channels))
        for twin, rows in zip(twins, tensor):
            twin.resample_into(times, rows)
        return tensor

    def watch_records(
        self,
        user_ids: Optional[Sequence[int]] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> List[WatchRecord]:
        """All watch records of the given users over a window."""
        ids = list(user_ids) if user_ids is not None else self.user_ids()
        records: List[WatchRecord] = []
        for uid in ids:
            records.extend(self.twin(uid).watch_records(start_s, end_s))
        return records
