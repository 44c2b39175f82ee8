"""Status collection from live users into their digital twins.

Base stations collect user status and push it to the UDTs on the edge
server, each attribute at its own frequency.  The collector models that
process against simulation entities:

* channel condition and location are sampled at their attribute periods
  from the user's mobility model and serving base station,
* watch records are pushed as sessions produce them, and
* preference snapshots are written once per collection period.

Collection is a pure function: :meth:`StatusCollector.collect_interval`
returns what it collected as a :class:`CollectedStatus`, and the twin
appends it with :meth:`~repro.twin.udt.UserDigitalTwin.record_status`.  A
shard worker can therefore collect for a user whose twin lives in another
process.

The :class:`CollectionPolicy` adds the imperfections the DT-staleness
ablation varies: a collection-period multiplier (slower twins), a sample
drop probability (lossy uplink) and a reporting delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.behavior.watching import WatchRecord
from repro.mobility.trajectory import MobilityModel
from repro.net.basestation import BaseStation
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

    def __init__(self, policy: Optional[CollectionPolicy] = None) -> None:
        self.policy = policy if policy is not None else CollectionPolicy.perfect()

    # ------------------------------------------------------------ sampling
    def _keep_mask(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """One keep decision per sample; draws nothing when nothing is dropped."""
        if self.policy.drop_probability == 0.0:
            return np.ones(count, dtype=bool)
        return rng.random(count) >= self.policy.drop_probability

    def _sample_times(self, start_s: float, end_s: float, period_s: float) -> np.ndarray:
        effective_period = period_s * self.policy.period_multiplier
        if effective_period >= end_s - start_s:
            return np.array([start_s])
        # Integer-step grid: at long horizons a float-step arange can gain
        # or drop a sample, which would silently change how much randomness
        # the channel collection consumes for this user.
        return time_grid(start_s, end_s, effective_period)

    def _kept_times(
        self,
        spec: AttributeSpec,
        start_s: float,
        end_s: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        times = self._sample_times(start_s, end_s, spec.collection_period_s)
        return times[self._keep_mask(times.shape[0], rng)]

    def collect_interval(
        self,
        attributes: Mapping[str, AttributeSpec],
        mobility: MobilityModel,
        base_station: BaseStation,
        preference: np.ndarray,
        records: Sequence[WatchRecord],
        start_s: float,
        end_s: float,
        rng: np.random.Generator,
        serving_cell: Optional[int] = None,
    ) -> CollectedStatus:
        """Collect one reservation interval's worth of status for one user.

        ``attributes`` are the specs of the user's twin; only attributes it
        has are collected.  Each attribute is collected as one batched
        position/SNR evaluation, not a Python loop over individual samples.
        ``preference`` is the user's preference weight row, in the twin's
        category order.

        ``rng`` is the one stream every draw consumes: the keep decisions
        and the channel-condition samples, attribute by attribute in the
        order below.  The simulator passes the user's ``(seed, interval,
        user)`` collection stream (see :class:`repro.sim.rng.RngRegistry`),
        which makes each user's collected status independent of every other
        user's and a deterministic per-user walk a shard worker can replay
        exactly.  With ``drop_probability == 0`` no keep decision is drawn.
        """
        if end_s <= start_s:
            raise ValueError("end_s must be greater than start_s")
        delay = self.policy.delay_s
        samples: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

        # Channel condition: sample SNR at the attribute's own frequency.
        if CHANNEL_CONDITION in attributes:
            times = self._kept_times(attributes[CHANNEL_CONDITION], start_s, end_s, rng)
            if times.size:
                positions = mobility.positions(times)
                snrs = base_station.sample_snr_db_batch(positions, rng=rng)
                samples[CHANNEL_CONDITION] = (times + delay, snrs[:, None])

        # Location.
        if LOCATION in attributes:
            times = self._kept_times(attributes[LOCATION], start_s, end_s, rng)
            if times.size:
                samples[LOCATION] = (times + delay, mobility.positions(times))

        # Watch records (the twin mirrors them into the watching-duration
        # series).
        if self.policy.drop_probability == 0.0:
            kept_records = list(records)
        else:
            # One scalar draw per record, in record order.
            kept_records = [
                record
                for record in records
                if rng.random() >= self.policy.drop_probability
            ]

        # Preference snapshots.
        if PREFERENCE in attributes:
            vector = np.asarray(preference, dtype=np.float64)
            expected_dim = attributes[PREFERENCE].dimension
            if vector.shape[0] != expected_dim:
                raise ValueError(
                    f"preference dimension {vector.shape[0]} does not match the UDT "
                    f"attribute dimension {expected_dim}"
                )
            times = self._kept_times(attributes[PREFERENCE], start_s, end_s, rng)
            if times.size:
                samples[PREFERENCE] = (
                    times + delay,
                    np.tile(vector, (times.shape[0], 1)),
                )

        # Serving cell (only collected when the RAN controller reports it).
        if serving_cell is not None and SERVING_CELL in attributes:
            times = self._kept_times(attributes[SERVING_CELL], start_s, end_s, rng)
            if times.size:
                samples[SERVING_CELL] = (
                    times + delay,
                    np.full((times.shape[0], 1), float(serving_cell)),
                )
        return CollectedStatus(samples=samples, records=kept_records)
