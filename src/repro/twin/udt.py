"""User digital twin: one user's view of the population's twin tables.

The twins' data lives in :class:`~repro.twin.manager.DigitalTwinManager`'s
population tables, a row per twin: one
:class:`~repro.twin.timeseries.AttributeTable` per attribute and one
:class:`WatchTable` of watch records.  The simulator appends a whole
multicast group's status at once through
:meth:`~repro.twin.manager.DigitalTwinManager.append_group`, and the
prediction scheme reads the tables for whole groups as arrays.

A :class:`UserDigitalTwin` is a thin view of one twin's rows, for tests and
per-user readers: :meth:`~UserDigitalTwin.store` gives one attribute's
samples, :meth:`~UserDigitalTwin.record_batch` and
:meth:`~UserDigitalTwin.record_watches` append through the group append's
checks and writes, and it exposes the two views the prediction scheme
needs, per user:

* :meth:`~UserDigitalTwin.feature_matrix` -- the attribute time series
  resampled onto a common grid and stacked into a ``(time, channels)``
  matrix, the direct input of the 1D-CNN compressor, and
* :meth:`~UserDigitalTwin.watch_records` -- the watch records collected
  during a window, which feed the swiping-probability abstraction.

Watch records stay in the groups'
:class:`~repro.behavior.watching.WatchBlock`\\ s, which the simulator's
interval history holds anyway: the :class:`WatchTable` keeps a reference to
each appended block (its arrays become read-only) with its keep mask, and a
per-interval index that gives each row its block and block row.  Reads
gather the records as columns (:class:`WatchColumns`); a
:class:`~repro.behavior.watching.WatchRecord` is built only by
:meth:`UserDigitalTwin.watch_records`.  An append also mirrors the kept
durations into the watching-duration series (:func:`watching_run`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.behavior.watching import WatchBlock, WatchRecord
from repro.twin.attributes import AttributeSpec
from repro.twin.timeseries import StatusBlock, StoreView

if TYPE_CHECKING:
    from repro.twin.manager import DigitalTwinManager


class WatchColumns(NamedTuple):
    """Watch records as columns, one entry per record, in record order."""

    user_ids: np.ndarray
    video_ids: np.ndarray
    #: The category names ``category_codes`` index.
    categories: Tuple[str, ...]
    category_codes: np.ndarray
    watch_durations_s: np.ndarray
    video_durations_s: np.ndarray
    swiped: np.ndarray
    timestamps_s: np.ndarray

    def records(self) -> List[WatchRecord]:
        """The records as :class:`~repro.behavior.watching.WatchRecord` objects."""
        return [
            WatchRecord(user_id, video_id, self.categories[code], *viewing)
            for user_id, video_id, code, *viewing in zip(
                self.user_ids.tolist(),
                self.video_ids.tolist(),
                self.category_codes.tolist(),
                self.watch_durations_s.tolist(),
                self.video_durations_s.tolist(),
                self.swiped.tolist(),
                self.timestamps_s.tolist(),
            )
        ]


class _WatchChunk:
    """Which appended block, and which of its rows, holds each twin's records."""

    __slots__ = ("block_of", "row_in_block", "earliest", "latest")

    def __init__(self, rows: int) -> None:
        #: Index of the row's block among the appended ones, -1 for none.
        self.block_of = np.full(rows, -1, dtype=np.int32)
        self.row_in_block = np.zeros(rows, dtype=np.int32)
        #: Bounds of the indexed records' timestamps.
        self.earliest = np.inf
        self.latest = -np.inf


class WatchTable:
    """The population's watch records: the appended blocks, indexed by row.

    Each append indexes one block for its members' rows in the newest
    chunk; a new chunk opens when a member's row already has a block there
    (in practice once per interval) or the chunk predates the row.  A row's
    records are its blocks' records in chunk order.
    """

    def __init__(self) -> None:
        self.num_rows = 0
        #: Every appended ``(block, keep mask or None)``, oldest first.
        self._blocks: List[Tuple[WatchBlock, Optional[np.ndarray]]] = []
        #: Each block's category codes, made on its first read.
        self._codes: List[Optional[np.ndarray]] = []
        #: Category name -> code, in the order the names were first read.
        self._vocabulary: Dict[str, int] = {}
        self._chunks: List[_WatchChunk] = []

    def add_rows(self, count: int) -> None:
        self.num_rows += count

    def append(self, rows: np.ndarray, block: WatchBlock, kept: Optional[np.ndarray]) -> None:
        """Index row ``i`` of ``block`` (its records ``kept`` marks) for ``rows[i]``, unchecked."""
        if not rows.size:
            return
        chunk = self._chunks[-1] if self._chunks else None
        if (
            chunk is None
            or rows.max() >= chunk.block_of.shape[0]
            or (chunk.block_of[rows] >= 0).any()
        ):
            chunk = _WatchChunk(self.num_rows)
            self._chunks.append(chunk)
        chunk.block_of[rows] = len(self._blocks)
        chunk.row_in_block[rows] = np.arange(rows.shape[0])
        if block.start_times_s.size:
            chunk.earliest = min(chunk.earliest, float(block.start_times_s.min()))
            chunk.latest = max(chunk.latest, float(block.start_times_s.max()))
        self._blocks.append((block, kept))
        self._codes.append(None)

    def _block_codes(self, index: int) -> np.ndarray:
        codes = self._codes[index]
        if codes is None:
            vocabulary = self._vocabulary
            names = self._blocks[index][0].categories
            codes = np.array(
                [vocabulary.setdefault(name, len(vocabulary)) for name in names], dtype=np.intp
            )
            self._codes[index] = codes
        return codes

    def columns(
        self, rows: np.ndarray, start_s: Optional[float] = None, end_s: Optional[float] = None
    ) -> WatchColumns:
        """The records of ``rows`` with ``start_s <= timestamp < end_s``, as columns.

        Row by row in ``rows``' order, each row's records in the order they
        were appended; ``None`` leaves that side of the window open.
        """
        pieces = []
        for ordinal, chunk in enumerate(self._chunks):
            if (start_s is not None and chunk.latest < start_s) or (
                end_s is not None and chunk.earliest >= end_s
            ):
                continue
            positions = np.flatnonzero(rows < chunk.block_of.shape[0])
            blocks = chunk.block_of[rows[positions]]
            indexed = blocks >= 0
            positions, blocks = positions[indexed], blocks[indexed]
            for index in np.unique(blocks).tolist():
                members = positions[blocks == index]
                block, kept = self._blocks[index]
                block_rows = chunk.row_in_block[rows[members]]
                times = block.start_times_s
                if kept is None:
                    mask = np.ones((members.shape[0], times.shape[0]), dtype=bool)
                else:
                    mask = kept[block_rows]
                if start_s is not None:
                    mask &= times >= start_s
                if end_s is not None:
                    mask &= times < end_s
                owners, videos = np.nonzero(mask)
                viewers = block_rows[owners]
                pieces.append(
                    (
                        members[owners] * len(self._chunks) + ordinal,
                        block.member_ids[viewers],
                        block.video_ids[videos],
                        self._block_codes(index)[videos],
                        block.watch_durations_s[viewers, videos],
                        block.video_durations_s[videos],
                        block.swiped[viewers, videos],
                        times[videos],
                    )
                )
        categories = tuple(self._vocabulary)
        if not pieces:
            return WatchColumns(
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                categories,
                np.zeros(0, dtype=np.intp),
                np.zeros(0),
                np.zeros(0),
                np.zeros(0, dtype=bool),
                np.zeros(0),
            )
        fields = [np.concatenate(field) for field in zip(*pieces)]
        # A row has one block per chunk: ordering by (row position, chunk)
        # keeps each block's records in playback order.
        order = np.argsort(fields[0], kind="stable")
        user_ids, video_ids, codes, durations, lengths, swiped, times = (
            field[order] for field in fields[1:]
        )
        return WatchColumns(
            user_ids, video_ids, categories, codes, durations, lengths, swiped, times
        )


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


def watching_run(
    block: WatchBlock, kept: Optional[np.ndarray], tails: np.ndarray
) -> Optional[StatusBlock]:
    """The watching-duration samples that mirror ``block``'s kept records.

    Member ``m``'s run holds the durations of their kept records, in
    playback order, each at its video's start time; ``tails[m]`` is the
    member's newest watching-duration sample.  The run starts no earlier
    than that sample: the first kept record's time is clamped to it, and a
    running maximum keeps the run non-decreasing.  ``None`` when no record
    is kept.
    """
    members, videos = block.swiped.shape
    counts = np.full(members, videos) if kept is None else kept.sum(axis=1)
    if not counts.any():
        return None
    # One row per member, its dropped records at -inf: clamp the row's first
    # time to the member's newest sample, then take the running maximum along
    # the row, which carries that clamp to the first kept record.
    times = np.tile(block.start_times_s, (members, 1))
    if kept is not None:
        times[~kept] = -np.inf
    np.maximum(times[:, 0], tails, out=times[:, 0])
    np.maximum.accumulate(times, axis=1, out=times)
    if kept is None:
        return StatusBlock(counts, times.ravel(), block.watch_durations_s.reshape(-1, 1))
    return StatusBlock(counts, times[kept], block.watch_durations_s[kept][:, None])


class UserDigitalTwin:
    """Edge-side digital twin of one user: a view of its rows in the population tables."""

    __slots__ = ("user_id", "_manager", "_row", "__weakref__")

    def __init__(
        self,
        user_id: int,
        attributes: Optional[Dict[str, AttributeSpec]] = None,
    ) -> None:
        """A twin of its own: the one user of a fresh manager with ``attributes``."""
        # The manager module imports this one.
        from repro.twin.manager import DigitalTwinManager

        self.user_id = user_id
        self._manager = DigitalTwinManager(attributes)
        self._row = self._manager._adopt(self)

    @classmethod
    def _view(cls, manager: "DigitalTwinManager", user_id: int, row: int) -> "UserDigitalTwin":
        twin = cls.__new__(cls)
        twin.user_id = user_id
        twin._manager = manager
        twin._row = row
        return twin

    @property
    def attributes(self) -> Dict[str, AttributeSpec]:
        return self._manager.attributes

    # ------------------------------------------------------------ collection
    def store(self, attribute: str) -> StoreView:
        tables = self._manager._tables
        if attribute not in tables:
            raise KeyError(f"UDT of user {self.user_id} has no attribute {attribute!r}")
        return StoreView(tables[attribute], self._row)

    def record_batch(self, attribute: str, timestamps_s, values) -> int:
        """Append samples of ``attribute``."""
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
        self._manager._append_watches(np.array([self._row]), block, None)

    # -------------------------------------------------------------- queries
    def watch_records(
        self,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> List[WatchRecord]:
        """Watch records whose timestamps fall in ``[start_s, end_s)``."""
        return self._manager._watches.columns(np.array([self._row]), start_s, end_s).records()

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
        attribute fills its own columns, in attribute insertion order.
        """
        self._manager._hold(np.array([self._row]), np.asarray(times_s), out[None])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        counts = {name: len(self.store(name)) for name in self.attributes}
        return f"UserDigitalTwin(user_id={self.user_id}, samples={counts})"
