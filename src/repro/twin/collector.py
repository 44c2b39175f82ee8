"""Status collection from live users into their digital twins.

Base stations collect user status and push it to the UDTs on the edge
server, each attribute at its own frequency.  The collector models that
process against simulation entities:

* channel condition and location are sampled at their attribute periods
  from the user's trajectory and serving base station,
* watch records are pushed as sessions produce them, and
* preference snapshots are written once per collection period.

Collection is a pure function: :meth:`StatusCollector.collect_interval`
collects a whole multicast group in one call and returns one
:class:`CollectedStatus` for the group, one :class:`StatusBlock` per
attribute with the members' samples concatenated in member order, and
:meth:`~repro.twin.manager.DigitalTwinManager.append_group` appends it to
the members' twins in one call.  A shard worker can therefore collect for
users whose twins live in another process.

The :class:`CollectionPolicy` adds the imperfections the DT-staleness
ablation varies: a collection-period multiplier (slower twins), a sample
drop probability (lossy uplink) and a reporting delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.behavior.watching import WatchRecord
from repro.net.basestation import BaseStation
from repro.net.channel import SnrFades
from repro.timegrid import time_grid
from repro.twin.attributes import (
    CHANNEL_CONDITION,
    LOCATION,
    PREFERENCE,
    SERVING_CELL,
    AttributeSpec,
)


@dataclass
class CollectionPolicy:
    """Imperfections applied while collecting user status.

    ``period_multiplier`` scales every attribute's collection period (2.0
    means twice as stale), ``drop_probability`` silently discards samples,
    and ``delay_s`` shifts the recorded timestamps backwards (the twin only
    learns about a sample that much later).
    """

    period_multiplier: float = 1.0
    drop_probability: float = 0.0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.period_multiplier <= 0:
            raise ValueError("period_multiplier must be positive")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    @classmethod
    def perfect(cls) -> "CollectionPolicy":
        return cls()


class StatusBlock(NamedTuple):
    """One attribute's samples of a group, concatenated in member order.

    Member ``m`` owns ``counts[m]`` consecutive samples, starting after the
    samples of the members before it; ``values`` has one row per timestamp.
    """

    counts: np.ndarray
    timestamps: np.ndarray
    values: np.ndarray


class CollectedStatus(NamedTuple):
    """A group's status collected over one interval, not yet in the twins."""

    #: One block per collected attribute: channel condition, location,
    #: preference and serving cell, in that order.
    samples: Dict[str, StatusBlock]
    #: Each member's watch records that survived the drop policy, in
    #: playback order.
    records: List[List[WatchRecord]]


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
        records: Sequence[Sequence[WatchRecord]],
        start_s: float,
        end_s: float,
        rngs: Sequence[np.random.Generator],
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
        * ``records[m]`` are their watch records, in playback order;
        * ``rngs[m]`` is the one stream every draw for the member consumes;
        * ``serving_cells[m]`` is the cell reported as their serving-cell
          attribute; ``None`` collects no serving cell.

        ``attributes`` are the specs of the members' twins; only attributes
        they have are collected, each into one :class:`StatusBlock`.  Each
        member's draws come from their own stream only, in this order:
        channel keep mask, shadowing, fading, location keep mask, record
        drops, preference keep mask, serving-cell keep mask.  The simulator
        passes the member's ``(seed, interval, user)`` collection stream
        (see :class:`repro.sim.rng.RngRegistry`), so each member's status is
        independent of every other member's and a deterministic walk a shard
        worker can replay exactly.  With ``drop_probability == 0`` no keep
        decision is drawn.  The mean SNR under the channel-condition samples
        is one batched evaluation per serving station.
        """
        if end_s <= start_s:
            raise ValueError("end_s must be greater than start_s")
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
        members = len(rngs)
        keeps = {
            name: np.ones((members, grid.shape[0]), dtype=bool) for name, grid in grids.items()
        }
        kept_records: List[List[WatchRecord]] = []
        # Per member with kept channel samples: their fades.
        fades: Dict[int, SnrFades] = {}
        for row, rng in enumerate(rngs):
            if CHANNEL_CONDITION in keeps:
                keep = keeps[CHANNEL_CONDITION][row]
                if drop:
                    keep[:] = rng.random(keep.shape[0]) >= drop
                count = int(np.count_nonzero(keep))
                if count:
                    channel = base_stations[row].channel
                    assert channel is not None
                    fades[row] = channel.draw_fades(count, rng)
            if drop and LOCATION in keeps:
                keeps[LOCATION][row] = rng.random(keeps[LOCATION].shape[1]) >= drop
            # Watch records (the twin mirrors them into the watching-duration
            # series); one scalar draw per record, in record order.
            if drop:
                kept_records.append([r for r in records[row] if rng.random() >= drop])
            else:
                kept_records.append(list(records[row]))
            for name in (PREFERENCE, SERVING_CELL):
                if drop and name in keeps:
                    keeps[name][row] = rng.random(keeps[name].shape[1]) >= drop

        counts = {name: keep.sum(axis=1) for name, keep in keeps.items()}
        values: Dict[str, np.ndarray] = {}
        if CHANNEL_CONDITION in keeps:
            values[CHANNEL_CONDITION] = self._channel_values(
                positions,
                base_stations,
                keeps[CHANNEL_CONDITION],
                columns[CHANNEL_CONDITION],
                fades,
            )
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
        return CollectedStatus(samples=samples, records=kept_records)

    @staticmethod
    def _channel_values(
        positions: np.ndarray,
        base_stations: Sequence[BaseStation],
        keep: np.ndarray,
        columns: np.ndarray,
        fades: Mapping[int, SnrFades],
    ) -> np.ndarray:
        """The kept channel samples' SNRs, ``(kept, 1)`` in member order.

        One mean-SNR evaluation per serving station over its members' kept
        samples, then each member's own fades.
        """
        by_station: Dict[int, List[int]] = {}
        for row in fades:
            by_station.setdefault(base_stations[row].bs_id, []).append(row)
        snrs: Dict[int, np.ndarray] = {}
        for rows in by_station.values():
            kept_columns = [columns[keep[row]] for row in rows]
            means = base_stations[rows[0]].mean_snr_db_batch(
                positions[
                    np.repeat(rows, [kept.shape[0] for kept in kept_columns]),
                    np.concatenate(kept_columns),
                ]
            )
            offset = 0
            for row, kept in zip(rows, kept_columns):
                snrs[row] = fades[row].added_to(means[offset : offset + kept.shape[0]])
                offset += kept.shape[0]
        if not snrs:
            return np.empty((0, 1))
        return np.concatenate([snrs[row] for row in sorted(snrs)])[:, None]


def _grid_columns(times: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The column of ``times`` that holds each time of ``grid``."""
    columns = times.searchsorted(grid)
    if (columns >= times.shape[0]).any() or not np.array_equal(times[columns], grid):
        raise ValueError("times must hold every position attribute's sample times")
    return columns
