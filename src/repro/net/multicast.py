"""Multicast channels and the traffic-to-resource-block conversion.

Multicast delivery sends one copy of each segment to the whole group, but
the modulation-and-coding scheme must be decodable by *every* member, so the
group's spectral efficiency is the minimum over its members.  Radio resource
demand then follows directly: the bits a group needs in a reservation
interval divided by what one resource block can carry at the group's
efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.net.basestation import BaseStation
from repro.net.mcs import spectral_efficiency


def group_spectral_efficiency(
    member_snrs_db: Sequence[float],
    implementation_loss: float = 0.9,
) -> float:
    """Spectral efficiency of a multicast group (worst-member rule)."""
    snrs = np.asarray(member_snrs_db, dtype=np.float64)
    if snrs.size == 0:
        raise ValueError("a multicast group needs at least one member SNR")
    return spectral_efficiency(float(snrs.min()), implementation_loss=implementation_loss)


def resource_blocks_for_traffic(
    traffic_bits: float,
    efficiency_bps_hz: float,
    rb_bandwidth_hz: float = 180e3,
    interval_s: float = 300.0,
) -> float:
    """Average number of resource blocks needed to move ``traffic_bits`` in ``interval_s``.

    One resource block carries ``efficiency * rb_bandwidth * interval`` bits
    over the interval; the demand is therefore traffic divided by that
    capacity.  Returns ``inf`` when the group is in outage (zero efficiency)
    but has non-zero traffic.
    """
    if traffic_bits < 0:
        raise ValueError("traffic_bits must be non-negative")
    if rb_bandwidth_hz <= 0 or interval_s <= 0:
        raise ValueError("rb_bandwidth_hz and interval_s must be positive")
    if efficiency_bps_hz < 0:
        raise ValueError("efficiency_bps_hz must be non-negative")
    if traffic_bits == 0:
        return 0.0
    if efficiency_bps_hz == 0:
        return float("inf")
    bits_per_rb = efficiency_bps_hz * rb_bandwidth_hz * interval_s
    return float(traffic_bits / bits_per_rb)


@dataclass
class MulticastChannel:
    """One multicast channel: a base station serving one multicast group."""

    group_id: int
    base_station: BaseStation
    member_user_ids: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.group_id < 0:
            raise ValueError("group_id must be non-negative")

    @property
    def size(self) -> int:
        return len(self.member_user_ids)

    def efficiency(
        self,
        member_snrs_db: Mapping[int, float],
        implementation_loss: float = 0.9,
    ) -> float:
        """Group spectral efficiency given each member's current SNR."""
        missing = [uid for uid in self.member_user_ids if uid not in member_snrs_db]
        if missing:
            raise KeyError(f"missing SNR for members {missing}")
        snrs = [member_snrs_db[uid] for uid in self.member_user_ids]
        return group_spectral_efficiency(snrs, implementation_loss=implementation_loss)


@dataclass
class GroupRadioUsage:
    """Radio usage of one group during one reservation interval."""

    group_id: int
    traffic_bits: float
    efficiency_bps_hz: float
    resource_blocks: float


class MulticastScheduler:
    """Converts per-group traffic into per-group resource-block usage.

    This is the "actual" resource consumption the simulator records and the
    prediction scheme is evaluated against.
    """

    def __init__(
        self,
        rb_bandwidth_hz: float = 180e3,
        interval_s: float = 300.0,
        implementation_loss: float = 0.9,
    ) -> None:
        if rb_bandwidth_hz <= 0 or interval_s <= 0:
            raise ValueError("rb_bandwidth_hz and interval_s must be positive")
        self.rb_bandwidth_hz = rb_bandwidth_hz
        self.interval_s = interval_s
        self.implementation_loss = implementation_loss

    def schedule(
        self,
        group_traffic_bits: Mapping[int, float],
        group_member_snrs_db: Mapping[int, Sequence[float]],
    ) -> Dict[int, GroupRadioUsage]:
        """Compute per-group resource-block usage.

        Parameters
        ----------
        group_traffic_bits:
            Bits each group must receive during the interval.
        group_member_snrs_db:
            Per-group list of member SNRs (dB) used for the worst-member rule.
        """
        usage: Dict[int, GroupRadioUsage] = {}
        for group_id, traffic in group_traffic_bits.items():
            snrs = group_member_snrs_db.get(group_id)
            if snrs is None or len(snrs) == 0:
                raise ValueError(f"no member SNRs provided for group {group_id}")
            efficiency = group_spectral_efficiency(
                snrs, implementation_loss=self.implementation_loss
            )
            blocks = resource_blocks_for_traffic(
                traffic,
                efficiency,
                rb_bandwidth_hz=self.rb_bandwidth_hz,
                interval_s=self.interval_s,
            )
            usage[group_id] = GroupRadioUsage(
                group_id=group_id,
                traffic_bits=float(traffic),
                efficiency_bps_hz=float(efficiency),
                resource_blocks=float(blocks),
            )
        return usage

    def total_resource_blocks(self, usage: Mapping[int, GroupRadioUsage]) -> float:
        """Sum of per-group resource blocks (ignoring infinite outage entries)."""
        finite = [u.resource_blocks for u in usage.values() if np.isfinite(u.resource_blocks)]
        return float(sum(finite))
