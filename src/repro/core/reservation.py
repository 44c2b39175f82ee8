"""Resource reservation from predicted demand.

The paper closes with: "For future work, we will investigate how to
effectively reserve radio and computing resources based on the predicted
multicast groups' resource demand."  This module implements that step so the
prediction scheme can actually drive a reservation loop:

* a :class:`ReservationPolicy` turns a per-group demand prediction into a
  reservation request (head-room margins, quantisation to whole resource
  blocks, per-group floors),
* an :class:`AdmissionController` fits the requests into the base station's
  resource-block budget (proportional scale-down when oversubscribed), and
* a :class:`ReservationPlanner` runs the loop through the prediction
  scheme's own ``step`` and audits granted against used blocks in a
  :class:`~repro.net.resources.ResourceGrid`, the one reserved-versus-used
  audit (the horizon planner of :mod:`repro.placement.horizon` keeps one
  too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.demand import GroupDemandPrediction
from repro.net.resources import ResourceGrid
from repro.numeric import ordered_sum


@dataclass
class ReservationPolicy:
    """Turns predicted demand into reservation requests.

    ``margin`` is multiplicative head-room above the prediction (1.1 = +10 %),
    ``floor_blocks`` is the minimum reservation per active multicast group
    (a group always needs a control channel), and ``quantise`` rounds the
    request up to whole resource blocks, matching how schedulers allocate.
    """

    margin: float = 1.1
    floor_blocks: float = 1.0
    quantise: bool = True

    def __post_init__(self) -> None:
        if self.margin < 1.0:
            raise ValueError("margin must be at least 1.0 (no negative head-room)")
        if self.floor_blocks < 0.0:
            raise ValueError("floor_blocks must be non-negative")

    def blocks_request(self, blocks: float) -> float:
        """Apply margin / floor / quantisation to a raw block demand.

        Shared by :meth:`radio_request` (per-group predictions) and the
        horizon reservation planner (per-cell aggregate demand).
        """
        if not np.isfinite(blocks):
            # Predicted outage: reserve the floor and let the scheduler
            # fall back to the lowest representation.
            blocks = self.floor_blocks
        request = max(blocks * self.margin, self.floor_blocks)
        if self.quantise:
            request = float(math.ceil(request))
        return request

    def radio_request(self, prediction: GroupDemandPrediction) -> float:
        """Resource blocks to reserve for one group."""
        return self.blocks_request(prediction.radio_resource_blocks)

    def compute_request(self, prediction: GroupDemandPrediction) -> float:
        """CPU cycles to reserve for one group's transcoding."""
        return prediction.computing_cycles * self.margin

    def radio_requests(
        self, predictions: Mapping[int, GroupDemandPrediction]
    ) -> Dict[int, float]:
        return {gid: self.radio_request(p) for gid, p in predictions.items()}


@dataclass
class AdmissionResult:
    """Outcome of fitting reservation requests into a budget."""

    granted: Dict[int, float]
    requested: Dict[int, float]
    scaled_down: bool

    @property
    def total_granted(self) -> float:
        return float(ordered_sum(self.granted.values()))

    @property
    def total_requested(self) -> float:
        return float(ordered_sum(self.requested.values()))


class AdmissionController:
    """Fits per-group reservation requests into a fixed resource-block budget.

    When the total request exceeds the budget, every group is scaled down
    proportionally (never below zero); otherwise requests are granted as-is.
    """

    def __init__(self, total_blocks: float) -> None:
        if total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        self.total_blocks = float(total_blocks)

    def admit(self, requests: Mapping[int, float]) -> AdmissionResult:
        requests = {gid: max(float(blocks), 0.0) for gid, blocks in requests.items()}
        total = ordered_sum(requests.values())
        if total <= self.total_blocks or total == 0.0:
            return AdmissionResult(granted=dict(requests), requested=dict(requests), scaled_down=False)
        scale = self.total_blocks / total
        granted = {gid: blocks * scale for gid, blocks in requests.items()}
        return AdmissionResult(granted=granted, requested=dict(requests), scaled_down=True)


class ReservationPlanner:
    """Runs the predict → reserve → observe → audit loop against the simulator.

    The planner drives a
    :class:`~repro.core.pipeline.DTResourcePredictionScheme` through its own
    ``warm_up`` and ``step``: each step predicts per-group demand, hands it
    to predictive placement, and plays the interval out under the predicted
    grouping.  The planner then applies the reservation policy to the
    predictions, admits the requests against the base-station budget, and
    records reserved-versus-used resource blocks.
    """

    def __init__(
        self,
        scheme,
        policy: Optional[ReservationPolicy] = None,
        total_blocks: Optional[float] = None,
    ) -> None:
        self.scheme = scheme
        self.policy = policy if policy is not None else ReservationPolicy()
        budget = (
            total_blocks
            if total_blocks is not None
            else float(scheme.simulator.config.num_resource_blocks)
        )
        self.admission = AdmissionController(budget)

    def run(self, num_intervals: int) -> ResourceGrid:
        """Run the reservation loop for ``num_intervals`` reservation intervals.

        Returns a fresh :class:`~repro.net.resources.ResourceGrid` holding
        one granted-versus-used record per interval.
        """
        if num_intervals <= 0:
            raise ValueError("num_intervals must be positive")
        self.scheme.warm_up()
        grid = ResourceGrid()
        for _ in range(num_intervals):
            evaluation = self.scheme.step()
            admitted = self.admission.admit(self.policy.radio_requests(evaluation.predictions))
            used = {
                gid: usage.resource_blocks
                for gid, usage in evaluation.actual.usage_by_group.items()
                if np.isfinite(usage.resource_blocks)
            }
            grid.record_interval(evaluation.interval_index, admitted.granted, used)
        return grid
