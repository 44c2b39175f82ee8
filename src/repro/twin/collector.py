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
:class:`CollectedStatus` per member, and each twin appends its own with
:meth:`~repro.twin.udt.UserDigitalTwin.record_status`.  A shard worker can
therefore collect for users whose twins live in another process.

The :class:`CollectionPolicy` adds the imperfections the DT-staleness
ablation varies: a collection-period multiplier (slower twins), a sample
drop probability (lossy uplink) and a reporting delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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


class CollectedStatus(NamedTuple):
    """One user's status collected over one interval, not yet in their twin."""

    #: ``{attribute: (timestamps, values)}`` for every attribute with at
    #: least one kept sample; ``values`` has one row per timestamp.
    samples: Dict[str, Tuple[np.ndarray, np.ndarray]]
    #: The watch records that survived the drop policy, in playback order.
    records: List[WatchRecord]


class StatusCollector:
    """Collects user status for UDTs over a reservation interval."""

    #: The attributes collected from a user's position.
    POSITION_ATTRIBUTES = (CHANNEL_CONDITION, LOCATION)

    def __init__(self, policy: Optional[CollectionPolicy] = None) -> None:
        self.policy = policy if policy is not None else CollectionPolicy.perfect()

    # ------------------------------------------------------------ sampling
    def _keep_mask(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """One keep decision per sample; draws nothing when nothing is dropped."""
        if self.policy.drop_probability == 0.0:
            return np.ones(count, dtype=bool)
        return rng.random(count) >= self.policy.drop_probability

    def _kept_times(self, grid: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return grid[self._keep_mask(grid.shape[0], rng)]

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
    ) -> List[CollectedStatus]:
        """Collect one reservation interval's status for a group of users.

        Every per-member argument has one entry per member, in the same
        order, and so has the returned list:

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
        they have are collected.  Each member's draws come from their own
        stream only, in this order: channel keep mask, shadowing, fading,
        location keep mask, record drops, preference keep mask, serving-cell
        keep mask.  The simulator passes the member's ``(seed, interval,
        user)`` collection stream (see :class:`repro.sim.rng.RngRegistry`),
        so each member's status is independent of every other member's and
        a deterministic walk a shard worker can replay exactly.  With
        ``drop_probability == 0`` no keep decision is drawn.  The mean SNR
        under the channel-condition samples is one batched evaluation per
        serving station.
        """
        if end_s <= start_s:
            raise ValueError("end_s must be greater than start_s")
        policy = self.policy
        delay = policy.delay_s
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

        samples: List[Dict[str, Tuple[np.ndarray, np.ndarray]]] = []
        kept_records: List[List[WatchRecord]] = []
        # Per member with kept channel samples: their keep mask and fades.
        channel_draws: Dict[int, Tuple[np.ndarray, SnrFades]] = {}
        for row, rng in enumerate(rngs):
            member: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
            if CHANNEL_CONDITION in grids:
                keep = self._keep_mask(grids[CHANNEL_CONDITION].shape[0], rng)
                count = int(np.count_nonzero(keep))
                if count:
                    channel = base_stations[row].channel
                    assert channel is not None
                    channel_draws[row] = (keep, channel.draw_fades(count, rng))
            if LOCATION in grids:
                keep = self._keep_mask(grids[LOCATION].shape[0], rng)
                if keep.any():
                    member[LOCATION] = (
                        grids[LOCATION][keep] + delay,
                        positions[row, columns[LOCATION][keep]],
                    )
            # Watch records (the twin mirrors them into the watching-duration
            # series).
            if policy.drop_probability == 0.0:
                kept_records.append(list(records[row]))
            else:
                # One scalar draw per record, in record order.
                kept_records.append(
                    [
                        record
                        for record in records[row]
                        if rng.random() >= policy.drop_probability
                    ]
                )
            if PREFERENCE in grids:
                kept = self._kept_times(grids[PREFERENCE], rng)
                if kept.size:
                    member[PREFERENCE] = (
                        kept + delay,
                        np.tile(preferences[row], (kept.shape[0], 1)),
                    )
            if SERVING_CELL in grids:
                assert serving_cells is not None
                kept = self._kept_times(grids[SERVING_CELL], rng)
                if kept.size:
                    member[SERVING_CELL] = (
                        kept + delay,
                        np.full((kept.shape[0], 1), float(serving_cells[row])),
                    )
            samples.append(member)

        # Channel condition: one mean-SNR evaluation per serving station
        # over its members' kept samples, then each member's own fades.
        by_station: Dict[int, List[int]] = {}
        for row in channel_draws:
            by_station.setdefault(base_stations[row].bs_id, []).append(row)
        for rows in by_station.values():
            kept_columns = [
                columns[CHANNEL_CONDITION][channel_draws[row][0]] for row in rows
            ]
            means = base_stations[rows[0]].mean_snr_db_batch(
                positions[
                    np.repeat(rows, [kept.shape[0] for kept in kept_columns]),
                    np.concatenate(kept_columns),
                ]
            )
            offset = 0
            for row, kept in zip(rows, kept_columns):
                keep, fades = channel_draws[row]
                snrs = fades.added_to(means[offset : offset + kept.shape[0]])
                offset += kept.shape[0]
                # First, so the samples follow the twins' attribute order.
                samples[row] = {
                    CHANNEL_CONDITION: (
                        grids[CHANNEL_CONDITION][keep] + delay,
                        snrs[:, None],
                    ),
                    **samples[row],
                }
        return [
            CollectedStatus(samples=member, records=records_kept)
            for member, records_kept in zip(samples, kept_records)
        ]


def _grid_columns(times: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The column of ``times`` that holds each time of ``grid``."""
    columns = times.searchsorted(grid)
    if (columns >= times.shape[0]).any() or not np.array_equal(times[columns], grid):
        raise ValueError("times must hold every position attribute's sample times")
    return columns
