"""Resource-block accounting.

Radio resources are reserved in units of resource blocks (RBs).
:class:`ResourceGrid` is the one reserved-versus-used audit: it keeps a
per-interval history so over- and under-provisioning can be audited after
the fact.  The reservation planner of :mod:`repro.core.reservation` returns
one per run, and the horizon planner of :mod:`repro.placement.horizon`
audits its per-cell bookings in one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

import numpy as np


@dataclass
class IntervalUsage:
    """Reserved versus actually used blocks for one reservation interval."""

    interval_index: int
    reserved: Dict[int, float] = field(default_factory=dict)
    used: Dict[int, float] = field(default_factory=dict)

    def over_provisioned_blocks(self) -> float:
        """Blocks reserved but not used (summed over groups, floored at zero)."""
        total = 0.0
        for group_id, reserved in self.reserved.items():
            total += max(reserved - self.used.get(group_id, 0.0), 0.0)
        return total

    def under_provisioned_blocks(self) -> float:
        """Blocks used beyond the reservation (summed over groups)."""
        total = 0.0
        for group_id, used in self.used.items():
            total += max(used - self.reserved.get(group_id, 0.0), 0.0)
        return total


class ResourceGrid:
    """Per-interval history of reservations and actual usage."""

    def __init__(self) -> None:
        self.history: List[IntervalUsage] = []

    def record_interval(
        self,
        interval_index: int,
        reserved: Mapping[int, float],
        used: Mapping[int, float],
    ) -> IntervalUsage:
        """Append one interval's reservation-versus-usage record."""
        usage = IntervalUsage(
            interval_index=interval_index,
            reserved={k: float(v) for k, v in reserved.items()},
            used={k: float(v) for k, v in used.items()},
        )
        self.history.append(usage)
        return usage

    def mean_over_provisioning(self) -> float:
        if not self.history:
            return 0.0
        return float(np.mean([entry.over_provisioned_blocks() for entry in self.history]))

    def mean_under_provisioning(self) -> float:
        if not self.history:
            return 0.0
        return float(np.mean([entry.under_provisioned_blocks() for entry in self.history]))

    def under_provisioned_fraction(self) -> float:
        """Fraction of intervals with any under-provisioned group."""
        if not self.history:
            return 0.0
        return float(np.mean([entry.under_provisioned_blocks() > 1e-9 for entry in self.history]))
