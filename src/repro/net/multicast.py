"""Multicast pricing: the worst-member rule and the traffic-to-resource-block conversion.

Multicast delivery sends one copy of each segment to the whole group, but
the modulation-and-coding scheme must be decodable by *every* member, so the
group's spectral efficiency is the minimum over its members
(:func:`group_spectral_efficiency`).  Radio resource demand then follows
directly: the bits a group needs in a reservation interval divided by what
one resource block can carry at the group's efficiency
(:func:`resource_blocks_for_traffic`).  The interval engine
(:func:`repro.sim.shard.run_group_interval`) prices every group with these
two functions; the demand predictors convert their forecast traffic with
the second.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.net.mcs import spectral_efficiency


def group_spectral_efficiency(
    member_snrs_db: Sequence[float],
    implementation_loss: float,
) -> float:
    """Spectral efficiency of a multicast group (worst-member rule)."""
    snrs = np.asarray(member_snrs_db, dtype=np.float64)
    if snrs.size == 0:
        raise ValueError("a multicast group needs at least one member SNR")
    return spectral_efficiency(float(snrs.min()), implementation_loss=implementation_loss)


def resource_blocks_for_traffic(
    traffic_bits: float,
    efficiency_bps_hz: float,
    rb_bandwidth_hz: float,
    interval_s: float,
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
