"""Digital-twin manager: the edge-side registry and tables of all user digital twins.

The manager owns every twin's data as population tables with one row per
twin: an :class:`~repro.twin.timeseries.AttributeTable` per attribute and a
:class:`~repro.twin.udt.WatchTable` of watch records.  It appends each
multicast group's collected status to the members' rows in one call per
group (:meth:`DigitalTwinManager.append_group`), and reads the tables for
whole groups as arrays: the feature tensor over all users for a reservation
interval (:meth:`~DigitalTwinManager.feature_tensor`), a group's watch
records (:meth:`~DigitalTwinManager.watch_columns`), window means
(:meth:`~DigitalTwinManager.window_means`) and newest values
(:meth:`~DigitalTwinManager.latest_values`).
:meth:`~DigitalTwinManager.twin` gives one user's view of its rows.

A row belongs to one twin for good: a user registered again after
:meth:`~DigitalTwinManager.remove_user` gets a new, empty row.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.behavior.watching import WatchBlock
from repro.twin.attributes import AttributeSpec, DEFAULT_ATTRIBUTES, WATCHING_DURATION
from repro.twin.collector import CollectedStatus
from repro.twin.timeseries import AttributeTable
from repro.twin.udt import (
    UserDigitalTwin,
    WatchColumns,
    WatchTable,
    check_watches,
    watching_run,
)


class DigitalTwinManager:
    """Registry, tables and aggregator of user digital twins."""

    def __init__(self, attributes: Optional[Mapping[str, AttributeSpec]] = None) -> None:
        self.attributes: Dict[str, AttributeSpec] = dict(
            attributes if attributes is not None else DEFAULT_ATTRIBUTES
        )
        if not self.attributes:
            raise ValueError("a UDT needs at least one attribute")
        self._tables: Dict[str, AttributeTable] = {
            name: AttributeTable(spec.dimension) for name, spec in self.attributes.items()
        }
        self._watches = WatchTable()
        self._num_rows = 0
        #: Each registered user's row.
        self._row_of: Dict[int, int] = {}
        #: The registered ids, sorted, and their rows: the group lookups'
        #: index, rebuilt on first use after the registry changes.
        self._index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: The views handed out and still referenced, by user id.
        self._views: "weakref.WeakValueDictionary[int, UserDigitalTwin]" = (
            weakref.WeakValueDictionary()
        )

    # ------------------------------------------------------------ registry
    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._row_of

    def user_ids(self) -> List[int]:
        return self._sorted_index()[0].tolist()

    def _sorted_index(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._index is None:
            count = len(self._row_of)
            ids = np.fromiter(self._row_of.keys(), dtype=np.int64, count=count)
            rows = np.fromiter(self._row_of.values(), dtype=np.intp, count=count)
            order = np.argsort(ids)
            self._index = (ids[order], rows[order])
        return self._index

    def _rows(self, user_ids: Sequence[int]) -> np.ndarray:
        """The rows of ``user_ids``; ``KeyError`` names the first unregistered one."""
        ids = np.asarray(user_ids, dtype=np.int64).reshape(-1)
        known, rows = self._sorted_index()
        positions = known.searchsorted(ids)
        np.minimum(positions, max(known.shape[0] - 1, 0), out=positions)
        found = known[positions] == ids if known.shape[0] else np.zeros(ids.shape, dtype=bool)
        if not found.all():
            missing = int(ids[np.argmin(found)])
            raise KeyError(f"no digital twin registered for user {missing}")
        return rows[positions]

    def _register(self, user_ids: Sequence[int]) -> List[int]:
        """Give every new id of ``user_ids`` the next free row; return each id's row."""
        if any(user_id < 0 for user_id in user_ids):
            raise ValueError("user_id must be non-negative")
        added = self._num_rows
        rows = []
        for user_id in user_ids:
            row = self._row_of.get(user_id)
            if row is None:
                row = self._row_of[user_id] = self._num_rows
                self._num_rows += 1
            rows.append(row)
        added = self._num_rows - added
        if added:
            for table in self._tables.values():
                table.add_rows(added)
            self._watches.add_rows(added)
            self._index = None
        return rows

    def _adopt(self, twin: UserDigitalTwin) -> int:
        """Register ``twin.user_id`` with ``twin`` as its view; return its row."""
        row = self._register([twin.user_id])[0]
        self._views[twin.user_id] = twin
        return row

    def register_user(self, user_id: int) -> UserDigitalTwin:
        """Create (or return the existing) twin for ``user_id``."""
        return self._twin(user_id, self._register([user_id])[0])

    def register_users(self, user_ids: Iterable[int]) -> None:
        """Give every new id of ``user_ids`` a row; :meth:`twin` makes views on demand."""
        self._register(list(user_ids))

    def twin(self, user_id: int) -> UserDigitalTwin:
        """``user_id``'s view of its rows."""
        row = self._row_of.get(user_id)
        if row is None:
            raise KeyError(f"no digital twin registered for user {user_id}")
        return self._twin(user_id, row)

    def _twin(self, user_id: int, row: int) -> UserDigitalTwin:
        twin = self._views.get(user_id)
        if twin is None:
            twin = UserDigitalTwin._view(self, user_id, row)
            self._views[user_id] = twin
        return twin

    def remove_user(self, user_id: int) -> None:
        """Unregister ``user_id``; its row keeps its data, and no later twin reads it."""
        if self._row_of.pop(user_id, None) is not None:
            self._index = None
            self._views.pop(user_id, None)

    def _table(self, name: str) -> AttributeTable:
        if name not in self._tables:
            raise KeyError(f"the UDTs have no attribute {name!r}")
        return self._tables[name]

    # ----------------------------------------------------------- appends
    def append_group(self, user_ids: Sequence[int], status: CollectedStatus) -> None:
        """Append one group's collected status to its members' rows.

        ``user_ids[m]`` owns member ``m``'s samples of every block and row
        ``m`` of ``status.watches``.  Each attribute's block is checked once
        for all members (shapes, time order within each member's samples, no
        sample before the member's newest stored one), and so are the watch
        block's members (they must be ``user_ids``) and the keep mask's
        shape, before anything is kept: a rejected group leaves every row,
        chunk and watch index as it was.  Then each block's runs are copied
        into its table, the watch block is indexed for the members' rows
        (its arrays become read-only) and the kept durations are mirrored
        into the watching-duration series.
        """
        rows = self._rows(user_ids)
        ordered = np.sort(rows)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError(f"a group's members must be distinct, got {list(user_ids)}")
        for name, block in status.samples.items():
            self._table(name).check(rows, block)
        check_watches(user_ids, status.watches, status.kept)
        for name, block in status.samples.items():
            self._tables[name].write(rows, block)
        self._append_watches(rows, status.watches, status.kept)

    def _append_watches(
        self, rows: np.ndarray, block: WatchBlock, kept: Optional[np.ndarray]
    ) -> None:
        """Index ``block`` for ``rows`` and mirror its kept durations, unchecked."""
        for array in block:
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        self._watches.append(rows, block, kept)
        table = self._tables.get(WATCHING_DURATION)
        if table is not None:
            run = watching_run(block, kept, table.tails(rows))
            if run is not None:
                table.write(rows, run)

    # --------------------------------------------------------------- reads
    def _hold(self, rows: np.ndarray, times: np.ndarray, out: np.ndarray) -> None:
        column = 0
        for table in self._tables.values():
            table.hold(rows, times, out[:, :, column : column + table.dimension])
            column += table.dimension

    def feature_tensor(
        self,
        start_s: float,
        end_s: float,
        num_steps: int = 32,
        user_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Zero-order hold of every user's attributes, shape ``(users, num_steps, channels)``.

        Users are ordered by ``user_ids`` (default: sorted registry order),
        which is also the row order of everything derived downstream
        (compressed features, cluster labels, multicast groups).  Channels
        are the attributes in insertion order, each its own table's hold on
        one shared grid, so row ``u`` equals ``twin(u).feature_matrix(...)``.
        """
        ids = list(user_ids) if user_ids is not None else self.user_ids()
        if not ids:
            raise ValueError("no users registered")
        if end_s <= start_s:
            raise ValueError("end_s must be greater than start_s")
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        times = np.linspace(start_s, end_s, num_steps, endpoint=False)
        rows = self._rows(ids)
        channels = sum(table.dimension for table in self._tables.values())
        tensor = np.empty((len(ids), num_steps, channels))
        self._hold(rows, times, tensor)
        return tensor

    def watch_columns(
        self,
        user_ids: Sequence[int],
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> WatchColumns:
        """The users' watch records with ``start_s <= timestamp < end_s``, as columns.

        User by user in ``user_ids``' order, each user's records in the
        order they were appended; ``None`` leaves that side of the window
        open.
        """
        return self._watches.columns(self._rows(user_ids), start_s, end_s)

    def window_means(
        self,
        name: str,
        user_ids: Sequence[int],
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(means, counts)`` of each user's ``name`` samples in ``[start_s, end_s)``.

        ``means[i]`` equals ``twin(user_ids[i]).store(name)``'s window values'
        ``mean()`` bit for bit (0.0 when ``counts[i]`` is 0); ``None`` leaves
        that side of the window open.
        """
        return self._table(name).window_means(self._rows(user_ids), start_s, end_s)

    def latest_values(self, name: str, user_ids: Sequence[int]) -> np.ndarray:
        """``(users, dimension)``: each user's newest ``name`` value, zeros if none."""
        return self._table(name).latest_values(self._rows(user_ids))

