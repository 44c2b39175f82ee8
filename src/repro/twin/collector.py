"""Status collection from live users into their digital twins.

Base stations collect user status and push it to the UDTs on the edge
server, each attribute at its own frequency.  The collector models that
process against simulation entities:

* channel condition and location are sampled at their attribute periods
  from the user's trajectory and serving base station,
* watch records are pushed as playback produces them: the group's
  :class:`~repro.behavior.watching.WatchBlock`, of which a lossy uplink
  keeps a random subset, and
* preference snapshots are written once per collection period.

Collection is a pure function: :meth:`StatusCollector.collect_interval`
collects a whole multicast group in one call and returns one
:class:`CollectedStatus` for the group, one :class:`StatusBlock` per
attribute with the members' samples concatenated in member order, plus the
group's watch block and a ``(members, videos)`` keep mask over it (``None``
when nothing is dropped), and
:meth:`~repro.twin.manager.DigitalTwinManager.append_group` appends it to
the members' twins in one call.  No record object is built on the way.  A
shard worker can therefore collect for users whose twins live in another
process.

The :class:`CollectionPolicy` adds the imperfections the DT-staleness
ablation varies: a collection-period multiplier (slower twins), a sample
drop probability (lossy uplink) and a reporting delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.behavior.watching import WatchBlock
from repro.net.basestation import BaseStation
from repro.net.channel import fading_db
from repro.timegrid import time_grid
from repro.twin.attributes import (
    CHANNEL_CONDITION,
    LOCATION,
    PREFERENCE,
    SERVING_CELL,
    AttributeSpec,
)
from repro.twin.timeseries import StatusBlock


@dataclass
class CollectionPolicy:
    """Imperfections applied while collecting user status.

    ``period_multiplier`` scales every attribute's collection period (2.0
    means twice as stale; an infinite multiplier samples once per interval),
    ``drop_probability`` silently discards samples, and ``delay_s`` shifts
    the recorded timestamps backwards (the twin only learns about a sample
    that much later).  The delay must be finite: an infinite one would stamp
    every sample at ``+inf``.
    """

    period_multiplier: float = 1.0
    drop_probability: float = 0.0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.period_multiplier <= 0:
            raise ValueError("period_multiplier must be positive")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if not 0.0 <= self.delay_s < np.inf:
            raise ValueError("delay_s must be non-negative and finite")

    @classmethod
    def perfect(cls) -> "CollectionPolicy":
        return cls()


class CollectedStatus(NamedTuple):
    """A group's status collected over one interval, not yet in the twins."""

    #: One block per collected attribute: channel condition, location,
    #: preference and serving cell, in that order.  Member ``m``'s run of
    #: each block is their samples of that attribute.
    samples: Dict[str, StatusBlock]
    #: The group's watch records; row ``m`` is member ``m``'s.
    watches: WatchBlock
    #: ``(members, videos)`` mask of the watch records that survived the
    #: drop policy; ``None`` when the policy drops nothing.
    kept: Optional[np.ndarray]


class StatusCollector:
    """Collects user status for UDTs over a reservation interval."""

    #: The attributes collected from a user's position.
    POSITION_ATTRIBUTES = (CHANNEL_CONDITION, LOCATION)

    def __init__(self, policy: Optional[CollectionPolicy] = None) -> None:
        self.policy = policy if policy is not None else CollectionPolicy.perfect()

    # ------------------------------------------------------------ sampling
    def _attribute_times(
        self, spec: AttributeSpec, start_s: float, end_s: float
    ) -> np.ndarray:
        """The sample times of one attribute over ``[start_s, end_s)``.

        One sample per collection period, scaled by the policy's period
        multiplier; a period at or beyond the interval samples once, at
        ``start_s``.
        """
        effective_period = spec.collection_period_s * self.policy.period_multiplier
        if effective_period >= end_s - start_s:
            return np.array([start_s])
        # Integer-step grid: at long horizons a float-step arange can gain
        # or drop a sample, which would silently change how much randomness
        # the channel collection consumes for this user.
        return time_grid(start_s, end_s, effective_period)

    def position_times(
        self, attributes: Mapping[str, AttributeSpec], start_s: float, end_s: float
    ) -> List[np.ndarray]:
        """The sample grids of the attributes read from a user's position.

        One grid per attribute of :attr:`POSITION_ATTRIBUTES` in
        ``attributes``; :meth:`collect_interval` reads every member's
        position at each of these times.
        """
        return [
            self._attribute_times(attributes[name], start_s, end_s)
            for name in self.POSITION_ATTRIBUTES
            if name in attributes
        ]

    def collect_interval(
        self,
        attributes: Mapping[str, AttributeSpec],
        times: np.ndarray,
        positions: np.ndarray,
        base_stations: Sequence[BaseStation],
        preferences: np.ndarray,
        watches: WatchBlock,
        start_s: float,
        end_s: float,
        rngs: Iterable[np.random.Generator],
        serving_cells: Optional[Sequence[int]] = None,
    ) -> CollectedStatus:
        """Collect one reservation interval's status for a group of users.

        Every per-member argument has one entry per member, in the same
        order, which is also the member order of the returned blocks:

        * ``positions[m]`` is member ``m``'s trajectory at ``times``, a
          ``(members, len(times), 2)`` block.  ``times`` is sorted and holds
          every grid of :meth:`position_times`;
        * ``base_stations[m]`` is the member's serving station;
        * ``preferences[m]`` is their preference weight row, in the twin's
          category order;
        * row ``m`` of ``watches`` holds their watch records, in playback
          order;
        * ``rngs`` yields the one stream every draw for member ``m``
          consumes, as its ``m``-th item.  The members' draws are taken
          strictly in member order, each member's before the next item is
          taken, so one generator re-pointed at each member in turn (what
          :meth:`repro.sim.rng.RngRegistry.collection_streams` yields) serves;
        * ``serving_cells[m]`` is the cell reported as their serving-cell
          attribute; ``None`` collects no serving cell.

        ``attributes`` are the specs of the members' twins; only attributes
        they have are collected, each into one :class:`StatusBlock`.  Each
        member's draws come from their own stream only, in this order:
        channel keep mask, shadowing, fading, location keep mask, record
        keep row (one uniform per record), preference keep mask,
        serving-cell keep mask.  The simulator passes the members' ``(seed,
        interval, user)`` collection streams (see
        :class:`repro.sim.rng.RngRegistry`), so each member's status is
        independent of every other member's and a deterministic walk a shard
        worker can replay exactly.  With ``drop_probability == 0`` no keep
        decision is drawn.  Only the draws
        run member by member: the mean SNR under the channel-condition
        samples is one evaluation per serving station over its members'
        rows, and the fading terms and every block are computed once for the
        whole group.
        """
        if end_s <= start_s:
            raise ValueError("end_s must be greater than start_s")
        members = len(base_stations)
        if watches.member_ids.shape != (members,):
            raise ValueError(
                f"expected watch records of {members} members, "
                f"got {watches.member_ids.shape[0]}"
            )
        policy = self.policy
        drop = policy.drop_probability
        preferences = np.asarray(preferences, dtype=np.float64)
        if PREFERENCE in attributes:
            expected_dim = attributes[PREFERENCE].dimension
            if preferences.shape[1] != expected_dim:
                raise ValueError(
                    f"preference dimension {preferences.shape[1]} does not match "
                    f"the UDT attribute dimension {expected_dim}"
                )
        names = (CHANNEL_CONDITION, LOCATION, PREFERENCE) + (
            (SERVING_CELL,) if serving_cells is not None else ()
        )
        grids = {
            name: self._attribute_times(attributes[name], start_s, end_s)
            for name in names
            if name in attributes
        }
        columns = {
            name: _grid_columns(times, grids[name])
            for name in self.POSITION_ATTRIBUTES
            if name in grids
        }

        # One keep row per member and attribute; drawn only when lossy.
        keeps = {
            name: np.ones((members, grid.shape[0]), dtype=bool) for name, grid in grids.items()
        }
        channel_keep = keeps.get(CHANNEL_CONDITION)
        # The keep masks drawn after the records, in draw order.
        late_keeps = [keeps[name] for name in (PREFERENCE, SERVING_CELL) if name in keeps]
        kept = np.ones(watches.swiped.shape, dtype=bool) if drop else None
        shadowing: List[np.ndarray] = []
        gains: List[np.ndarray] = []
        for row, rng in zip(range(members), rngs, strict=True):
            if channel_keep is not None:
                count = channel_keep.shape[1]
                if drop:
                    keep = channel_keep[row]
                    keep[:] = rng.random(count) >= drop
                    count = int(np.count_nonzero(keep))
                if count:
                    channel = base_stations[row].channel
                    assert channel is not None
                    fades = channel.draw_fades(count, rng)
                    if fades.shadowing_db is not None:
                        shadowing.append(fades.shadowing_db)
                    if fades.fading_gains is not None:
                        gains.append(fades.fading_gains)
            if kept is None:
                continue
            if LOCATION in keeps:
                keeps[LOCATION][row] = rng.random(keeps[LOCATION].shape[1]) >= drop
            # Watch records (the twin mirrors them into the watching-duration
            # series): one uniform per record, in record order.
            kept[row] = rng.random(kept.shape[1]) >= drop
            for late_keep in late_keeps:
                late_keep[row] = rng.random(late_keep.shape[1]) >= drop

        counts = {name: keep.sum(axis=1) for name, keep in keeps.items()}
        values: Dict[str, np.ndarray] = {}
        if channel_keep is not None:
            # Mean SNRs: one evaluation per station, over its members' rows.
            channel_positions = positions[:, columns[CHANNEL_CONDITION]]
            station_ids = np.array([station.bs_id for station in base_stations])
            snr = np.empty(channel_keep.shape)
            for bs_id in set(station_ids.tolist()):
                rows = station_ids == bs_id
                station = base_stations[int(rows.argmax())]
                snr[rows] = station.mean_snr_db_batch(
                    channel_positions[rows].reshape(-1, 2)
                ).reshape(-1, channel_keep.shape[1])
            snr = snr[channel_keep]
            # Each member's terms, where their station's channel has them.
            channels = [station.channel for station in base_stations]
            if shadowing:
                shadowed = [channel.config.shadowing_std_db > 0 for channel in channels]
                snr[np.repeat(shadowed, counts[CHANNEL_CONDITION])] += np.concatenate(shadowing)
            if gains:
                faded = [channel.config.rayleigh_fading for channel in channels]
                snr[np.repeat(faded, counts[CHANNEL_CONDITION])] += fading_db(
                    np.concatenate(gains)
                )
            values[CHANNEL_CONDITION] = snr[:, None]
        if LOCATION in keeps:
            values[LOCATION] = positions[:, columns[LOCATION]][keeps[LOCATION]]
        if PREFERENCE in keeps:
            values[PREFERENCE] = np.repeat(preferences, counts[PREFERENCE], axis=0)
        if SERVING_CELL in keeps:
            assert serving_cells is not None
            cells = np.asarray(serving_cells, dtype=np.float64)
            values[SERVING_CELL] = np.repeat(cells, counts[SERVING_CELL])[:, None]
        samples = {
            name: StatusBlock(
                counts[name],
                np.broadcast_to(grids[name], keep.shape)[keep] + policy.delay_s,
                values[name],
            )
            for name, keep in keeps.items()
        }
        return CollectedStatus(samples=samples, watches=watches, kept=kept)


def _grid_columns(times: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The column of ``times`` that holds each time of ``grid``."""
    columns = times.searchsorted(grid)
    if (columns >= times.shape[0]).any() or not np.array_equal(times[columns], grid):
        raise ValueError("times must hold every position attribute's sample times")
    return columns
