"""Per-member status-collection reference for the collector tests.

:meth:`repro.twin.collector.StatusCollector.collect_interval` collects a
whole group in one call: it reads each member's positions from one
trajectory block and evaluates the mean SNR once per serving station.  This
module is the per-member collector it replaced, which queries the member's
own mobility model at each attribute's kept times and keeps watch records
from a list, one draw per record.  The group call must match it exactly,
member by member: split per member, each of its blocks holds what this
reference collects, and the rows of its watch block, masked by its keep
mask, hold the records this reference keeps.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.behavior.watching import WatchRecord
from repro.net.basestation import BaseStation
from repro.timegrid import time_grid
from repro.twin.attributes import (
    CHANNEL_CONDITION,
    LOCATION,
    PREFERENCE,
    SERVING_CELL,
    AttributeSpec,
)
from repro.twin.collector import CollectedStatus, CollectionPolicy
from walk_reference import MobilityModel


class MemberStatus(NamedTuple):
    """One member's status collected over one interval."""

    #: ``{attribute: (timestamps, values)}`` for every attribute with at
    #: least one kept sample; ``values`` has one row per timestamp.
    samples: Dict[str, Tuple[np.ndarray, np.ndarray]]
    #: The watch records that survived the drop policy, in playback order.
    records: List[WatchRecord]


def reference_collect(
    policy: CollectionPolicy,
    attributes: Dict[str, AttributeSpec],
    mobility: MobilityModel,
    base_station: BaseStation,
    preference: np.ndarray,
    records: Sequence[WatchRecord],
    start_s: float,
    end_s: float,
    rng: np.random.Generator,
    serving_cell: Optional[int] = None,
) -> MemberStatus:
    """One member's interval of status, attribute by attribute from ``rng``."""

    def kept_times(spec: AttributeSpec) -> np.ndarray:
        period = spec.collection_period_s * policy.period_multiplier
        if period >= end_s - start_s:
            times = np.array([start_s])
        else:
            times = time_grid(start_s, end_s, period)
        if policy.drop_probability == 0.0:
            return times
        return times[rng.random(times.shape[0]) >= policy.drop_probability]

    delay = policy.delay_s
    samples: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    if CHANNEL_CONDITION in attributes:
        times = kept_times(attributes[CHANNEL_CONDITION])
        if times.size:
            snrs = base_station.sample_snr_db_batch(mobility.positions(times), rng=rng)
            samples[CHANNEL_CONDITION] = (times + delay, snrs[:, None])
    if LOCATION in attributes:
        times = kept_times(attributes[LOCATION])
        if times.size:
            samples[LOCATION] = (times + delay, mobility.positions(times))
    if policy.drop_probability == 0.0:
        kept_records = list(records)
    else:
        kept_records = [
            record for record in records if rng.random() >= policy.drop_probability
        ]
    if PREFERENCE in attributes:
        vector = np.asarray(preference, dtype=np.float64)
        times = kept_times(attributes[PREFERENCE])
        if times.size:
            samples[PREFERENCE] = (times + delay, np.tile(vector, (times.shape[0], 1)))
    if serving_cell is not None and SERVING_CELL in attributes:
        times = kept_times(attributes[SERVING_CELL])
        if times.size:
            samples[SERVING_CELL] = (
                times + delay,
                np.full((times.shape[0], 1), float(serving_cell)),
            )
    return MemberStatus(samples=samples, records=kept_records)


def member_records(status: CollectedStatus, member: int) -> List[WatchRecord]:
    """Member ``member``'s kept watch records of a group status, in playback order."""
    keep = None if status.kept is None else status.kept[member]
    return status.watches.records(member, keep)


def member_samples(
    status: CollectedStatus, member: int
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Member ``member``'s ``{attribute: (timestamps, values)}`` of a group status.

    Holds the attributes with at least one of the member's samples, in block
    order: what :func:`reference_collect` returns for the member.
    """
    samples = {}
    for name, block in status.samples.items():
        start = int(block.counts[:member].sum())
        stop = start + int(block.counts[member])
        if stop > start:
            samples[name] = (block.timestamps[start:stop], block.values[start:stop])
    return samples
