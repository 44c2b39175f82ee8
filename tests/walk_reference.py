"""Per-walk mobility reference for the walk-table tests.

:class:`repro.mobility.trajectory.WalkTable` keeps every user's walk as one
row of a population table and evaluates many users at once.  This module is
the per-user walk it replaced, one object per user with its own leg table,
plus the small mobility interface and the static fake that the collector
reference and twin tests use.  The table must match
:class:`GraphTrajectoryMobility` bit for bit, walk by walk, for any query
order.

All mobility models share a small interface: :meth:`MobilityModel.position`
returns a user's 2-D coordinates at a given simulation time and
:meth:`MobilityModel.positions` evaluates a whole batch of query times at
once.  The walker keeps its piecewise-linear legs in one table of
contiguous NumPy arrays, so a batch of ``n`` query times costs one
``np.searchsorted`` over the leg start times plus one vectorized
interpolation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mobility.campus import CampusMap
from repro.sim.rng import legacy_stream


class MobilityModel:
    """Interface: deterministic position as a function of time."""

    def position(self, time_s: float) -> np.ndarray:
        """2-D position (metres) at ``time_s``."""
        raise NotImplementedError

    def positions(self, times_s: Sequence[float]) -> np.ndarray:
        """2-D positions at several times, shape ``(len(times_s), 2)``."""
        raise NotImplementedError


class StaticMobility(MobilityModel):
    """A user that never moves (useful baseline and for unit tests)."""

    def __init__(self, position: Sequence[float]) -> None:
        self._position = np.asarray(position, dtype=np.float64)
        if self._position.shape != (2,):
            raise ValueError("position must be a 2-D coordinate")

    def position(self, time_s: float) -> np.ndarray:
        return self._position.copy()

    def positions(self, times_s: Sequence[float]) -> np.ndarray:
        times = np.asarray(times_s, dtype=np.float64)
        return np.tile(self._position, (times.shape[0], 1))


class GraphTrajectoryMobility(MobilityModel):
    """Shortest-path walks between random buildings on a campus graph.

    The user starts at a random node, repeatedly picks a random destination
    node, walks the shortest path to it at a per-trip speed sampled from
    ``[min_speed_mps, max_speed_mps]``, pauses, and repeats.  Trips are
    generated lazily up to the queried time, so positions are deterministic
    for a given seed regardless of query order.

    The walk is one leg table: leg ``i`` starts at ``_start_times[i]`` from
    ``_starts[i]`` and moves by ``_deltas[i]`` over ``_durations[i]``
    seconds.  The arrays grow by doubling and hold ``_size`` legs.

    ``seed`` is anything :func:`numpy.random.default_rng` accepts -- in
    particular a :class:`numpy.random.SeedSequence`, which is how the
    simulator derives collision-free per-user trajectory streams
    (``SeedSequence((seed, user_id))`` via :mod:`repro.sim.rng`) instead of
    ad-hoc integer arithmetic like ``seed * 1000 + user_id`` (which makes
    user 1000 under seed ``s`` replay user 0's walk under seed ``s + 1``).
    """

    def __init__(
        self,
        campus: CampusMap,
        seed: "int | np.random.SeedSequence | np.random.Generator" = 0,
        min_speed_mps: float = 0.8,
        max_speed_mps: float = 2.0,
        pause_time_s: float = 30.0,
    ) -> None:
        if min_speed_mps <= 0 or max_speed_mps < min_speed_mps:
            raise ValueError("invalid speed range")
        if pause_time_s < 0:
            raise ValueError("pause_time_s must be non-negative")
        self.campus = campus
        self.min_speed_mps = min_speed_mps
        self.max_speed_mps = max_speed_mps
        self.pause_time_s = pause_time_s
        self._rng = legacy_stream(seed)
        self._current_node = campus.random_node(self._rng)
        self._last_position = campus.position(self._current_node)
        self._generated_until_s = 0.0
        self._size = 0
        self._start_times = np.empty(16)
        self._durations = np.empty(16)
        self._starts = np.empty((16, 2))
        self._deltas = np.empty((16, 2))

    # ------------------------------------------------------------ extension
    def _extend_until(self, time_s: float) -> None:
        while self._generated_until_s <= time_s:
            destination = self.campus.random_node(self._rng)
            if destination == self._current_node:
                # A pause in place still advances time.
                self._append_trip(self._last_position[None, :], 0.0)
                continue
            speed = float(self._rng.uniform(self.min_speed_mps, self.max_speed_mps))
            route = self.campus.route_legs(self._current_node, destination)[0]
            self._append_trip(route, speed)
            self._current_node = destination

    def _append_trip(self, route: np.ndarray, speed: float) -> None:
        """Append the legs along ``route`` at ``speed``, then the pause.

        A one-point route, a pause in place, has no legs.  With no pause
        time the walk still advances one second, so a pause in place cannot
        loop forever.
        """
        deltas = route[1:] - route[:-1]
        # Leg boundaries summed left to right, from one 1-D norm per leg
        # (the batched ``axis=1`` norm can differ in the last bit).
        times = [self._generated_until_s]
        for delta in deltas:
            times.append(times[-1] + float(np.linalg.norm(delta)) / speed)
        if self.pause_time_s > 0:
            times.append(times[-1] + self.pause_time_s)
            self._generated_until_s = times[-1]
        else:
            self._generated_until_s = times[-1] + 1.0
        self._last_position = route[-1]
        size, count = self._size, len(times) - 1
        if size + count > len(self._start_times):
            capacity = max(2 * len(self._start_times), size + count)
            self._start_times = _grown(self._start_times, capacity)
            self._durations = _grown(self._durations, capacity)
            self._starts = _grown(self._starts, capacity)
            self._deltas = _grown(self._deltas, capacity)
        stamps = np.array(times)
        self._start_times[size : size + count] = stamps[:-1]
        # End minus start, which can differ from the step in the last bit.
        self._durations[size : size + count] = stamps[1:] - stamps[:-1]
        self._starts[size : size + count] = route[:count]
        self._deltas[size : size + len(deltas)] = deltas
        # The pause, if any, stands still.
        self._deltas[size + len(deltas) : size + count] = 0.0
        self._size = size + count

    # -------------------------------------------------------------- queries
    def position(self, time_s: float) -> np.ndarray:
        return self.positions([time_s])[0]

    def positions(self, times_s: Sequence[float]) -> np.ndarray:
        times = np.asarray(times_s, dtype=np.float64).reshape(-1)
        if times.size == 0:
            return np.zeros((0, 2))
        if float(times.min()) < 0:
            raise ValueError("time_s must be non-negative")
        self._extend_until(float(times.max()))
        if not self._size:
            return np.tile(self._last_position, (times.shape[0], 1))
        start_times = self._start_times[: self._size]
        indices = start_times.searchsorted(times, side="right") - 1
        np.maximum(indices, 0, out=indices)
        durations = self._durations[indices]
        # Zero-duration legs snap to fraction 1, their end point.
        positive = durations > 0
        fractions = (times - start_times[indices]) / np.where(positive, durations, 1.0)
        fractions = np.where(positive, fractions, 1.0)
        np.minimum(fractions, 1.0, out=fractions)
        np.maximum(fractions, 0.0, out=fractions)
        return self._starts[indices] + fractions[:, None] * self._deltas[indices]


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    """A copy of ``array`` with room for ``capacity`` rows."""
    grown = np.empty((capacity,) + array.shape[1:])
    grown[: len(array)] = array
    return grown
