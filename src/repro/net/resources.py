"""Resource-block accounting.

Radio resources are reserved in units of resource blocks (RBs).  The budget
tracks how many RBs a base station has, how many have been reserved for each
multicast group, and whether a reservation request can be admitted.
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

from repro.numeric import ordered_sum


class ResourceBlockBudget:
    """Tracks reservations against a fixed number of resource blocks."""

    def __init__(self, total_blocks: float) -> None:
        if total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        self.total_blocks = float(total_blocks)
        self._reservations: Dict[int, float] = {}

    # ------------------------------------------------------------ accessors
    @property
    def reserved_blocks(self) -> float:
        return float(ordered_sum(self._reservations.values()))

    @property
    def available_blocks(self) -> float:
        return self.total_blocks - self.reserved_blocks

    def reservation_for(self, group_id: int) -> float:
        return self._reservations.get(group_id, 0.0)

    def utilization(self) -> float:
        """Fraction of the budget currently reserved (0..1)."""
        return self.reserved_blocks / self.total_blocks

    # ------------------------------------------------------------ mutations
    def can_reserve(self, blocks: float) -> bool:
        if blocks < 0:
            raise ValueError("blocks must be non-negative")
        return blocks <= self.available_blocks + 1e-9

    def reserve(self, group_id: int, blocks: float) -> bool:
        """Reserve ``blocks`` for ``group_id``; returns False when it does not fit."""
        if blocks < 0:
            raise ValueError("blocks must be non-negative")
        current = self._reservations.get(group_id, 0.0)
        extra = blocks - current
        if extra > self.available_blocks + 1e-9:
            return False
        self._reservations[group_id] = blocks
        return True

    def release(self, group_id: int) -> float:
        """Release a group's reservation and return how many blocks were freed."""
        return self._reservations.pop(group_id, 0.0)

    def clear(self) -> None:
        self._reservations.clear()


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
