"""Mobility models and position traces.

All mobility models share a small interface: :meth:`MobilityModel.position`
returns a user's 2-D coordinates at a given simulation time and
:meth:`MobilityModel.positions` evaluates a whole batch of query times at
once (the simulation hot path).  Two concrete models are provided -- a
static user and a graph-constrained trajectory walker that repeatedly picks
a destination building on the campus graph and walks the shortest path to it
at a (per-leg) random pedestrian speed.

The graph walker builds on :class:`LegMobility`, which keeps the
piecewise-linear legs mirrored into contiguous NumPy arrays so a batch of
``n`` query times costs one ``np.searchsorted`` over the leg boundaries plus
one vectorized interpolation -- O(n log legs) instead of the O(n × legs)
per-query linear scan of a naive implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.mobility.campus import CampusMap


class MobilityModel:
    """Interface: deterministic position as a function of time."""

    def position(self, time_s: float) -> np.ndarray:
        """2-D position (metres) at ``time_s``."""
        raise NotImplementedError

    def positions(self, times_s: Sequence[float]) -> np.ndarray:
        """2-D positions at several times, shape ``(len(times_s), 2)``.

        The default implementation loops over :meth:`position`; leg-based
        models override it with a vectorized evaluation.
        """
        times = np.asarray(times_s, dtype=np.float64)
        return np.array([self.position(float(t)) for t in times]).reshape(-1, 2)

    def trace(self, times_s: Sequence[float]) -> "PositionTrace":
        """Sample the model at several times and return a trace."""
        times = np.asarray(times_s, dtype=np.float64)
        return PositionTrace(times=times, positions=self.positions(times))


@dataclass
class PositionTrace:
    """A sampled trajectory: ``positions[i]`` is the location at ``times[i]``."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        if self.positions.shape[0] != self.times.shape[0]:
            raise ValueError("times and positions must have the same length")
        if self.positions.shape[1] != 2:
            raise ValueError("positions must be 2-D coordinates")

    def __len__(self) -> int:
        return len(self.times)

    def distance_travelled(self) -> float:
        if len(self) < 2:
            return 0.0
        return float(np.linalg.norm(np.diff(self.positions, axis=0), axis=1).sum())

    def distances_to(self, point: Sequence[float]) -> np.ndarray:
        """Euclidean distance from every trace sample to ``point``."""
        point = np.asarray(point, dtype=np.float64)
        return np.linalg.norm(self.positions - point[None, :], axis=1)


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


@dataclass
class _Leg:
    """One straight-line leg of a piecewise-linear trajectory."""

    start_time_s: float
    end_time_s: float
    start: np.ndarray
    end: np.ndarray

    def position(self, time_s: float) -> np.ndarray:
        if self.end_time_s <= self.start_time_s:
            return self.end.copy()
        fraction = (time_s - self.start_time_s) / (self.end_time_s - self.start_time_s)
        fraction = min(max(fraction, 0.0), 1.0)
        return self.start + fraction * (self.end - self.start)


class LegMobility(MobilityModel):
    """Base class for models made of consecutive piecewise-linear legs.

    Subclasses lazily generate legs via :meth:`_extend_until` (appending with
    :meth:`_push_leg`) and inherit scalar and vectorized position queries.
    The leg list is mirrored into contiguous arrays (start times, start and
    end points, inverse durations) that are rebuilt lazily after extension,
    so batched queries are a binary search plus arithmetic on the arrays.
    """

    def __init__(self) -> None:
        self._legs: List[_Leg] = []
        self._generated_until_s = 0.0
        self._last_position = np.zeros(2)
        # Mirrored leg arrays, rebuilt lazily when legs were appended.
        self._leg_arrays_size = 0
        self._leg_start_times = np.empty(0)
        self._leg_starts = np.empty((0, 2))
        self._leg_deltas = np.empty((0, 2))
        self._leg_durations = np.empty(0)

    # ------------------------------------------------------------ extension
    def _extend_until(self, time_s: float) -> None:
        raise NotImplementedError

    def _push_leg(self, leg: _Leg) -> None:
        self._legs.append(leg)
        self._generated_until_s = leg.end_time_s
        self._last_position = leg.end

    def _refresh_leg_arrays(self) -> None:
        count = len(self._legs)
        if count == self._leg_arrays_size:
            return
        self._leg_start_times = np.array([leg.start_time_s for leg in self._legs])
        end_times = np.array([leg.end_time_s for leg in self._legs])
        self._leg_starts = np.array([leg.start for leg in self._legs]).reshape(count, 2)
        ends = np.array([leg.end for leg in self._legs]).reshape(count, 2)
        self._leg_deltas = ends - self._leg_starts
        self._leg_durations = end_times - self._leg_start_times
        self._leg_arrays_size = count

    # -------------------------------------------------------------- queries
    def position(self, time_s: float) -> np.ndarray:
        return self.positions([time_s])[0]

    def positions(self, times_s: Sequence[float]) -> np.ndarray:
        times = np.asarray(times_s, dtype=np.float64).reshape(-1)
        if times.size and float(times.min()) < 0:
            raise ValueError("time_s must be non-negative")
        if times.size == 0:
            return np.zeros((0, 2))
        self._extend_until(float(times.max()))
        self._refresh_leg_arrays()
        if not self._legs:
            return np.tile(self._last_position, (times.shape[0], 1))
        indices = self._leg_start_times.searchsorted(times, side="right") - 1
        np.maximum(indices, 0, out=indices)
        durations = self._leg_durations[indices]
        # Same `(t - start) / duration` arithmetic as _Leg.position so scalar
        # and batched queries agree bitwise; degenerate (zero-duration) legs
        # snap to fraction 1, reproducing _Leg.position's "return end" rule.
        positive = durations > 0
        fractions = (times - self._leg_start_times[indices]) / np.where(
            positive, durations, 1.0
        )
        fractions = np.where(positive, fractions, 1.0)
        np.minimum(fractions, 1.0, out=fractions)
        np.maximum(fractions, 0.0, out=fractions)
        return self._leg_starts[indices] + fractions[:, None] * self._leg_deltas[indices]


class GraphTrajectoryMobility(LegMobility):
    """Shortest-path walks between random buildings on a campus graph.

    The user starts at a random node, repeatedly picks a random destination
    node, walks the shortest path to it at a per-trip speed sampled from
    ``[min_speed_mps, max_speed_mps]``, pauses, and repeats.  Legs are
    pre-generated lazily up to the queried time, so positions are
    deterministic for a given seed regardless of query order.

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
        start_node=None,
    ) -> None:
        if min_speed_mps <= 0 or max_speed_mps < min_speed_mps:
            raise ValueError("invalid speed range")
        if pause_time_s < 0:
            raise ValueError("pause_time_s must be non-negative")
        super().__init__()
        self.campus = campus
        self.min_speed_mps = min_speed_mps
        self.max_speed_mps = max_speed_mps
        self.pause_time_s = pause_time_s
        # Imported lazily: repro.sim.shard imports this module at load time.
        from repro.sim.rng import legacy_stream

        self._rng = legacy_stream(seed)
        self._current_node = start_node if start_node is not None else campus.random_node(self._rng)
        self._last_position = campus.position(self._current_node)

    # ------------------------------------------------------------ extension
    def _extend_until(self, time_s: float) -> None:
        while self._generated_until_s <= time_s:
            destination = self.campus.random_node(self._rng)
            if destination == self._current_node:
                # A pause in place still advances time.
                self._append_pause()
                continue
            speed = float(self._rng.uniform(self.min_speed_mps, self.max_speed_mps))
            # Read-only rows of the campus's cached route: every leg's end
            # points are views, shared with every other walk of the route.
            positions = self.campus.route_positions(self._current_node, destination)
            for start, end in zip(positions[:-1], positions[1:]):
                length = float(np.linalg.norm(end - start))
                duration = length / speed if speed > 0 else 0.0
                self._push_leg(
                    _Leg(
                        start_time_s=self._generated_until_s,
                        end_time_s=self._generated_until_s + duration,
                        start=start,
                        end=end,
                    )
                )
            self._current_node = destination
            self._append_pause()

    def _append_pause(self) -> None:
        if self.pause_time_s <= 0:
            # Avoid an infinite loop when the destination equals the source.
            self._generated_until_s += 1.0
            return
        self._push_leg(
            _Leg(
                start_time_s=self._generated_until_s,
                end_time_s=self._generated_until_s + self.pause_time_s,
                start=self._last_position.copy(),
                end=self._last_position.copy(),
            )
        )
