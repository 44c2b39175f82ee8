"""User digital twin.

A :class:`UserDigitalTwin` bundles one time-series store per attribute for a
single user.  The simulator appends a whole multicast group's status at
once through :meth:`~repro.twin.manager.DigitalTwinManager.append_group`;
:meth:`UserDigitalTwin.record_batch` and
:meth:`UserDigitalTwin.record_watches` append one twin's samples through
the same check and write routines.  Besides raw collection, it exposes the
two views the prediction scheme needs:

* :meth:`feature_matrix` -- the attribute time series resampled onto a
  common grid and stacked into a ``(time, channels)`` matrix, the direct
  input of the 1D-CNN compressor, and
* :meth:`watch_records` -- the watch records collected during a window,
  which feed the swiping-probability abstraction.

Watch records are kept the way the stores keep samples (see
:mod:`repro.twin.timeseries`): an append keeps a reference to the group's
:class:`~repro.behavior.watching.WatchBlock` with the twin's row and keep
row, marks the block's arrays read-only and mirrors the kept durations into
the watching-duration series from the arrays.  The first
:meth:`~UserDigitalTwin.watch_records` call after an append builds the
appended :class:`~repro.behavior.watching.WatchRecord` objects, once; a
twin that is never asked for its records builds none.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.behavior.watching import WatchBlock, WatchRecord
from repro.twin.attributes import AttributeSpec, DEFAULT_ATTRIBUTES, WATCHING_DURATION
from repro.twin.timeseries import StatusBlock, TimeSeriesStore, write_runs


class UserDigitalTwin:
    """Edge-side digital twin of one user."""

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
        return f"UserDigitalTwin(user_id={self.user_id}, samples={counts})"


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
    twins: Sequence[UserDigitalTwin], block: WatchBlock, kept: Optional[np.ndarray]
) -> None:
    """Keep row ``i`` of ``block`` in ``twins[i]`` and mirror its durations, unchecked.

    Only the records ``kept`` marks are kept (all when it is ``None``).  The
    block's arrays are marked read-only: each twin keeps a reference and
    builds its records on its next :meth:`~UserDigitalTwin.watch_records`
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
