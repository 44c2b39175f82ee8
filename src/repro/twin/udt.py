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
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.behavior.watching import WatchRecord
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
        self._watch_records: List[WatchRecord] = []

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

        A record older than the newest watching-duration sample is mirrored
        at that sample's time, so the series stays non-decreasing.
        """
        check_watches([self.user_id], [records])
        append_watches([self], [records])

    # -------------------------------------------------------------- queries
    def watch_records(
        self,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> List[WatchRecord]:
        """Watch records whose timestamps fall in ``[start_s, end_s)``."""
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
    user_ids: Sequence[int], records: Sequence[Sequence[WatchRecord]]
) -> None:
    """Raise ``ValueError`` unless every record of ``records[i]`` is user ``user_ids[i]``'s."""
    for user_id, kept in zip(user_ids, records):
        for record in kept:
            if record.user_id != user_id:
                raise ValueError(
                    f"watch record of user {record.user_id} pushed to UDT of user {user_id}"
                )


def append_watches(
    twins: Sequence[UserDigitalTwin], records: Sequence[Sequence[WatchRecord]]
) -> None:
    """Store ``records[i]`` in ``twins[i]`` and mirror the durations, unchecked.

    The twins share their attributes.  Each twin's watching-duration run
    starts no earlier than its newest sample: the first record's time is
    clamped to it, and a running maximum keeps the run non-decreasing.
    """
    counts = np.array([len(kept) for kept in records])
    for twin, kept in zip(twins, records):
        twin._watch_records.extend(kept)
    total = int(counts.sum())
    if not total or WATCHING_DURATION not in twins[0]._stores:
        return
    stores = [twin._stores[WATCHING_DURATION] for twin in twins]
    flat = [record for kept in records for record in kept]
    # One padded row per twin: clamp each run's first time to the twin's
    # newest sample, then take the running maximum along the row.
    mask = np.arange(int(counts.max())) < counts[:, None]
    padded = np.full(mask.shape, -np.inf)
    padded[mask] = [record.timestamp_s for record in flat]
    tails = [store.latest_timestamp_s() for store in stores]
    np.maximum(padded[:, 0], tails, out=padded[:, 0])
    np.maximum.accumulate(padded, axis=1, out=padded)
    durations = np.array([[record.watch_duration_s] for record in flat])
    write_runs(stores, StatusBlock(counts, padded[mask], durations))
