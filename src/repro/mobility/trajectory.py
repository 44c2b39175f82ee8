"""The population's campus walks, held in one table.

Every user walks the campus graph: they start at a random node, repeatedly
pick a random destination node, walk the shortest path to it at a per-trip
speed sampled from ``[min_speed_mps, max_speed_mps]``, pause, and repeat.
:class:`WalkTable` keeps every user's walk as one row of piecewise-linear
legs, so one :meth:`WalkTable.positions` call evaluates a whole group (or
the whole population) on a grid of times: one rank of every member's leg
starts among the query times, one count per (member, time) and one
vectorized interpolation, instead of one call per user.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.campus import CampusMap
from repro.timegrid import counts_at

#: Leg columns (and user rows) a new table makes room for.
_INITIAL_CAPACITY = 16


class WalkTable:
    """Every user's shortest-path walk between campus buildings, a row each.

    A user's row is created on first touch from ``seed_of(user_id)``
    (anything :func:`numpy.random.default_rng` accepts; the simulator passes
    :meth:`repro.sim.rng.RngRegistry.mobility_seed`, the collision-free
    ``SeedSequence((seed, user_id))``) and extended one trip at a time, only
    as far as a query asks.  A walk is a pure function of the campus, the
    walk settings and its seed, so a row's positions do not depend on when
    the row was made, which rows share the table or in what order times are
    asked for.

    Row ``r`` holds ``sizes[r]`` legs: leg ``i`` starts at
    ``start_times[r, i]`` from ``starts[r, i]`` and moves by ``deltas[r, i]``
    over ``durations[r, i]`` seconds.  Unused slots hold a start time of
    ``+inf`` and zeros elsewhere.  Rows and columns grow by doubling (rows at
    least to what a batch of newcomers needs); a freed row is reset to that
    padding and reused.
    """

    def __init__(
        self,
        campus: CampusMap,
        seed_of: Callable[[int], object],
        min_speed_mps: float = 0.8,
        max_speed_mps: float = 2.0,
        pause_time_s: float = 30.0,
    ) -> None:
        if min_speed_mps <= 0 or max_speed_mps < min_speed_mps:
            raise ValueError("invalid speed range")
        if pause_time_s < 0:
            raise ValueError("pause_time_s must be non-negative")
        # Imported lazily: repro.sim.shard imports this module at load time.
        from repro.sim.rng import legacy_stream

        self._stream = legacy_stream
        self.campus = campus
        self._seed_of = seed_of
        self.min_speed_mps = min_speed_mps
        self.max_speed_mps = max_speed_mps
        self.pause_time_s = pause_time_s
        self._row_of: Dict[int, int] = {}
        self._free: List[int] = []
        self._used = 0
        rows = columns = _INITIAL_CAPACITY
        self._start_times = np.full((rows, columns), np.inf)
        self._durations = np.zeros((rows, columns))
        self._starts = np.zeros((rows, columns, 2))
        self._deltas = np.zeros((rows, columns, 2))
        self._sizes = np.zeros(rows, dtype=np.intp)
        #: Each row's generated-until time and last position.
        self._until = np.zeros(rows)
        self._last = np.zeros((rows, 2))
        #: Each row's trip generator and current node.
        self._rngs: List[Any] = [None] * rows
        self._nodes: List[Any] = [None] * rows

    # ------------------------------------------------------------------ rows
    def user_ids(self) -> List[int]:
        """The users that hold a row, sorted."""
        return sorted(self._row_of)

    def free(self, user_ids: Sequence[int]) -> None:
        """Free the rows of ``user_ids`` (users without a row are skipped)."""
        for uid in user_ids:
            row = self._row_of.pop(uid, None)
            if row is None:
                continue
            self._start_times[row] = np.inf
            self._durations[row] = 0.0
            self._starts[row] = 0.0
            self._deltas[row] = 0.0
            self._sizes[row] = 0
            self._rngs[row] = self._nodes[row] = None
            self._free.append(row)

    def _rows_for(self, user_ids: Sequence[int]) -> np.ndarray:
        row_of = self._row_of
        rows = [row_of.get(uid) for uid in user_ids]
        if None in rows:
            new = dict.fromkeys(uid for uid, row in zip(user_ids, rows) if row is None)
            # One growth for a whole batch of newcomers (the population at
            # set-up), to exactly the rows it needs.
            needed = self._used + len(new) - len(self._free)
            if needed > len(self._sizes):
                self._grow(max(2 * len(self._sizes), needed), self._start_times.shape[1])
            for uid in new:
                self._new_row(uid)
            rows = [row_of[uid] for uid in user_ids]
        return np.array(rows, dtype=np.intp)

    def _new_row(self, user_id: int) -> None:
        if self._free:
            row = self._free.pop()
        else:
            row = self._used
            self._used += 1
        rng = self._stream(self._seed_of(user_id))
        node = self.campus.random_node(rng)
        self._rngs[row] = rng
        self._nodes[row] = node
        self._last[row] = self.campus.position(node)
        self._until[row] = 0.0
        self._row_of[user_id] = row

    def _grow(self, rows: int, columns: int) -> None:
        """Enlarge the table to ``rows`` rows of ``columns`` leg slots each."""
        added = rows - len(self._sizes)
        self._start_times = _grown(self._start_times, (rows, columns), np.inf)
        self._durations = _grown(self._durations, (rows, columns), 0.0)
        self._starts = _grown(self._starts, (rows, columns, 2), 0.0)
        self._deltas = _grown(self._deltas, (rows, columns, 2), 0.0)
        self._sizes = _grown(self._sizes, (rows,), 0)
        self._until = _grown(self._until, (rows,), 0.0)
        self._last = _grown(self._last, (rows, 2), 0.0)
        self._rngs.extend([None] * added)
        self._nodes.extend([None] * added)

    # ------------------------------------------------------------- extension
    def _extend_row(self, row: int, time_s: float) -> None:
        """Append trips to ``row`` until it is generated past ``time_s``."""
        campus = self.campus
        rng = self._rngs[row]
        node = self._nodes[row]
        until = float(self._until[row])
        while until <= time_s:
            destination = campus.random_node(rng)
            if destination == node:
                # A pause in place still advances time.
                until = self._append_trip(row, until, self._last[row : row + 1], None, (), 0.0)
                continue
            speed = float(rng.uniform(self.min_speed_mps, self.max_speed_mps))
            points, deltas, lengths = campus.route_legs(node, destination)
            until = self._append_trip(row, until, points, deltas, lengths, speed)
            node = destination
        self._nodes[row] = node
        self._until[row] = until

    def _append_trip(
        self,
        row: int,
        until: float,
        points: np.ndarray,
        deltas: Optional[np.ndarray],
        lengths: Tuple[float, ...],
        speed: float,
    ) -> float:
        """Append one trip's legs along ``points`` at ``speed``, then the pause.

        Returns the row's new generated-until time.  A one-point route, a
        pause in place, has no legs.  With no pause time the walk still
        advances one second, so a pause in place cannot loop forever.
        """
        # Leg boundaries summed left to right.
        times = [until]
        for length in lengths:
            times.append(times[-1] + length / speed)
        if self.pause_time_s > 0:
            times.append(times[-1] + self.pause_time_s)
            until = times[-1]
        else:
            until = times[-1] + 1.0
        self._last[row] = points[-1]
        size, count, legs = int(self._sizes[row]), len(times) - 1, len(lengths)
        if not count:
            return until
        rows, columns = self._start_times.shape
        if size + count > columns:
            self._grow(rows, max(2 * columns, size + count))
        stamps = np.array(times)
        self._start_times[row, size : size + count] = stamps[:-1]
        # End minus start, which can differ from the step in the last bit.
        self._durations[row, size : size + count] = stamps[1:] - stamps[:-1]
        self._starts[row, size : size + count] = points[:count]
        if legs:
            self._deltas[row, size : size + legs] = deltas
        # The pause, if any, stands still.
        self._deltas[row, size + legs : size + count] = 0.0
        self._sizes[row] = size + count
        return until

    # --------------------------------------------------------------- queries
    def positions(self, user_ids: Sequence[int], times_s: Sequence[float]) -> np.ndarray:
        """Positions of ``user_ids`` at ``times_s``, shape ``(users, times, 2)``.

        Times may come in any order and repeat; they must be finite and
        non-negative.  Rows are made for users without one, and each row is
        extended until it is generated past the latest time.
        """
        times = np.asarray(times_s, dtype=np.float64).reshape(-1)
        if times.size:
            # NaN fails the comparison too.
            earliest, latest = float(times.min()), float(times.max())
            if not (earliest >= 0 and latest < np.inf):
                raise ValueError("time_s must be finite and non-negative")
        rows = self._rows_for(user_ids)
        if not rows.size or not times.size:
            return np.zeros((rows.size, times.size, 2))
        for row in rows[self._until[rows] <= latest].tolist():
            self._extend_row(row, latest)

        ordered = bool(np.all(times[1:] >= times[:-1]))
        order = None if ordered else np.argsort(times, kind="stable")
        grid = times if order is None else times[order]
        sizes = self._sizes[rows]
        width = int(sizes.max())
        num_rows, num_times = rows.size, grid.size
        if width:
            # Leg index = number of the row's leg starts at or before t,
            # minus one, clamped at 0, counted in integers.
            indices = counts_at(self._start_times[rows, :width], grid) - 1
            np.maximum(indices, 0, out=indices)
        else:
            indices = np.zeros((num_rows, num_times), dtype=np.intp)
        flat = indices + (rows * self._start_times.shape[1])[:, None]
        start_times = np.take(self._start_times, flat)
        durations = np.take(self._durations, flat)
        # Zero-duration legs snap to fraction 1, their end point.
        positive = durations > 0
        fractions = (grid - start_times) / np.where(positive, durations, 1.0)
        fractions = np.where(positive, fractions, 1.0)
        np.minimum(fractions, 1.0, out=fractions)
        np.maximum(fractions, 0.0, out=fractions)
        starts = np.take(self._starts.reshape(-1, 2), flat, axis=0)
        deltas = np.take(self._deltas.reshape(-1, 2), flat, axis=0)
        block = starts + fractions[..., None] * deltas
        empty = sizes == 0
        if empty.any():
            # A walk with no legs yet stands at its last position.
            block[empty] = self._last[rows[empty]][:, None, :]
        if order is None:
            return block
        restored = np.empty_like(block)
        restored[:, order] = block
        return restored


def _grown(array: np.ndarray, shape: Tuple[int, ...], fill: float) -> np.ndarray:
    """A copy of ``array`` enlarged to ``shape``, new slots set to ``fill``."""
    grown = np.full(shape, fill, dtype=array.dtype)
    grown[tuple(slice(0, extent) for extent in array.shape)] = array
    return grown
