"""Digital-twin manager: the edge-side registry of all user digital twins.

The manager owns one :class:`~repro.twin.udt.UserDigitalTwin` per user and
provides the population-level views the prediction pipeline consumes: the
stacked feature tensor over all users for a reservation interval, group-level
watch-record collections, and staleness reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.behavior.watching import WatchRecord
from repro.twin.attributes import AttributeSpec, DEFAULT_ATTRIBUTES
from repro.twin.udt import UserDigitalTwin


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

    # --------------------------------------------------------- aggregation
    def feature_tensor(
        self,
        start_s: float,
        end_s: float,
        num_steps: int = 32,
        attribute_order: Optional[Sequence[str]] = None,
        user_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Stacked per-user feature matrices, shape ``(users, num_steps, channels)``.

        Users are ordered by ``user_ids`` (default: sorted registry order),
        which is also the row order of everything derived downstream
        (compressed features, cluster labels, multicast groups).  Row ``u``
        equals ``twin(u).feature_matrix(...)`` bit for bit.

        Zero-order-hold resampling is two ``searchsorted`` lookups plus a
        gather per store; dispatching that pair once per ``(user,
        attribute)`` would make NumPy call overhead — not the resampling
        arithmetic — dominate at population scale.  Instead every user's
        timestamps of an attribute are concatenated into one ascending array
        (each user's block shifted by a constant offset larger than the
        global time span, so blocks cannot interleave), *all* users' grid
        rows are resolved with a single ``searchsorted`` over it, and the
        values are gathered with one ``take``: one NumPy dispatch sequence
        per attribute for the entire population.

        Caveat: the shift arithmetic compares timestamps at a magnitude of
        roughly ``population x time span``, so two *distinct* timestamps
        closer than the float64 rounding granularity there (sub-microsecond
        at millions of user-hours) could collapse; simulation timestamps
        are multiples of collection periods, far above that.
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
        order = (
            tuple(attribute_order)
            if attribute_order is not None
            else tuple(twins[0].attributes)
        )
        num_users = len(twins)
        dims = [twins[0].store(name).dimension for name in order]
        tensor = np.empty((num_users, num_steps, int(sum(dims))))
        column = 0
        for name, dim in zip(order, dims):
            stores = [twin.store(name) for twin in twins]
            out = tensor[:, :, column : column + dim]
            sizes = np.array([len(store) for store in stores])
            filled = sizes > 0
            if not filled.any():
                out[:] = 0.0
                column += dim
                continue
            time_blocks = [store.timestamps() for store, keep in zip(stores, filled) if keep]
            value_blocks = [store.values() for store, keep in zip(stores, filled) if keep]
            # Offset that strictly separates consecutive users' blocks: any
            # value exceeding the global [min(sample, grid), max] span works,
            # because block u's shifted queries then stay below block u+1's
            # shifted first timestamp.
            low = min(float(times[0]), min(float(block[0]) for block in time_blocks))
            high = max(float(times[-1]), max(float(block[-1]) for block in time_blocks))
            offset = (high - low) + 1.0
            shifts = offset * np.arange(filled.sum())
            stacked_times = np.concatenate(
                [block + shift for block, shift in zip(time_blocks, shifts)]
            )
            queries = (times[None, :] + shifts[:, None]).reshape(-1)
            rows = stacked_times.searchsorted(queries, side="right") - 1
            # Per-user clamp to the block's first row (the zero-order-hold
            # "times before the first sample take the first value" rule).
            starts = np.concatenate(([0], np.cumsum(sizes[filled])))[:-1]
            np.maximum(rows, np.repeat(starts, num_steps), out=rows)
            gathered = np.concatenate(value_blocks, axis=0)[rows]
            out[filled] = gathered.reshape(int(filled.sum()), num_steps, dim)
            if not filled.all():
                out[~filled] = 0.0
            column += dim
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

    # ------------------------------------------------------------ staleness
    def staleness_report(self, now_s: float) -> Dict[int, float]:
        """Worst-attribute staleness per user."""
        return {uid: twin.max_staleness_s(now_s) for uid, twin in self._twins.items()}

    def stale_users(self, now_s: float, threshold_s: float) -> List[int]:
        """Users whose twins are older than ``threshold_s`` on any attribute."""
        if threshold_s < 0:
            raise ValueError("threshold_s must be non-negative")
        return [uid for uid, age in self.staleness_report(now_s).items() if age > threshold_s]
