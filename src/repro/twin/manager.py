"""Digital-twin manager: the edge-side registry of all user digital twins.

The manager owns one :class:`~repro.twin.udt.UserDigitalTwin` per user.  It
appends each multicast group's collected status to the members' twins in
one call per group (:meth:`DigitalTwinManager.append_group`), and provides
the population-level views the prediction pipeline consumes: the feature
tensor over all users for a reservation interval (each twin's own feature
matrix, stacked) and group-level watch-record collections.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.behavior.watching import WatchRecord
from repro.twin.attributes import AttributeSpec, DEFAULT_ATTRIBUTES
from repro.twin.collector import CollectedStatus
from repro.twin.timeseries import check_runs, write_runs
from repro.twin.udt import UserDigitalTwin, append_watches, check_watches


class DigitalTwinManager:
    """Registry and aggregator of user digital twins."""

    def __init__(self, attributes: Optional[Mapping[str, AttributeSpec]] = None) -> None:
        self.attributes: Dict[str, AttributeSpec] = dict(
            attributes if attributes is not None else DEFAULT_ATTRIBUTES
        )
        self._twins: Dict[int, UserDigitalTwin] = {}

    # ------------------------------------------------------------ registry
    def __len__(self) -> int:
        return len(self._twins)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._twins

    def user_ids(self) -> List[int]:
        return sorted(self._twins.keys())

    def register_user(self, user_id: int) -> UserDigitalTwin:
        """Create (or return the existing) twin for ``user_id``."""
        if user_id not in self._twins:
            self._twins[user_id] = UserDigitalTwin(user_id, attributes=self.attributes)
        return self._twins[user_id]

    def register_users(self, user_ids: Iterable[int]) -> List[UserDigitalTwin]:
        return [self.register_user(uid) for uid in user_ids]

    def twin(self, user_id: int) -> UserDigitalTwin:
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
        runs in on its next read, see :mod:`repro.twin.timeseries`); each
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
