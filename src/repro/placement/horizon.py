"""Horizon reservation: book per-cell radio blocks ahead of scripted events.

A scenario timeline is *known in advance* (a flash crowd at interval 3, an
outage at interval 4, ...), so a reservation planner does not have to wait
for demand to materialise: :class:`HorizonReservationPlanner` books
per-cell resource blocks ``lead_intervals`` ahead, scaling its smoothed
demand estimate by the scripted :class:`DemandShock`\\ s it can see coming
and fitting the requests into each cell's scripted budget with the
existing :mod:`repro.core.reservation` machinery
(:class:`~repro.core.reservation.ReservationPolicy` margins +
:class:`~repro.core.reservation.AdmissionController` proportional
scale-down).  Booked versus realised demand is audited per interval in a
:class:`~repro.net.resources.ResourceGrid` (:attr:`HorizonReservationPlanner.audit`),
the same reserved-versus-used audit the in-interval reservation loop
returns.

The planner is deliberately ignorant of :mod:`repro.scenario` (placement
sits below the scenario layer): the scenario runner translates its
timeline events into :class:`DemandShock` descriptors via
``timeline_demand_shocks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.reservation import AdmissionController, ReservationPolicy
from repro.net.resources import ResourceGrid
from repro.numeric import ordered_sum


@dataclass(frozen=True)
class DemandShock:
    """A scripted, foreseeable demand or budget change at one interval.

    ``kind`` is one of ``"flash_crowd"`` / ``"mass_departure"``
    (population shocks: ``magnitude`` users join/leave) or
    ``"cell_outage"`` / ``"budget_change"`` (budget shocks: ``cell``'s
    budget becomes ``budget_blocks``; ``cell=None`` marks a target the
    spec cannot resolve ahead of time, e.g. ``"busiest"`` — the demand
    displacement is still anticipated, the budget change is not).
    """

    interval: int
    kind: str
    magnitude: float = 0.0
    cell: Optional[int] = None
    budget_blocks: Optional[float] = None

    _KINDS = ("flash_crowd", "mass_departure", "cell_outage", "budget_change")

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ValueError("shock interval must be non-negative")
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown shock kind {self.kind!r} (known: {', '.join(self._KINDS)})"
            )


@dataclass(frozen=True)
class ReservationBooking:
    """One advance booking: blocks for ``cell`` at interval ``for_interval``."""

    made_at_interval: int
    for_interval: int
    cell: int
    requested_blocks: float
    granted_blocks: float
    scaled_down: bool
    #: Shock kinds that shaped the request ("flash_crowd", ...); empty for
    #: a pure baseline booking.
    reasons: Tuple[str, ...] = ()

    def to_record(self) -> dict:
        """JSON-canonical tagged record (``controller_events`` style)."""
        return {
            "type": "reservation_booking",
            "made_at_interval": int(self.made_at_interval),
            "for_interval": int(self.for_interval),
            "cell": int(self.cell),
            "requested_blocks": float(self.requested_blocks),
            "granted_blocks": float(self.granted_blocks),
            "scaled_down": bool(self.scaled_down),
            "reasons": list(self.reasons),
        }


class HorizonReservationPlanner:
    """Books per-cell radio blocks several intervals ahead of the timeline."""

    def __init__(
        self,
        shocks: Sequence[DemandShock],
        num_cells: int,
        budget_blocks: float,
        num_users: int,
        lead_intervals: int = 2,
        policy: Optional[ReservationPolicy] = None,
        alpha: float = 0.5,
    ) -> None:
        if num_cells < 1:
            raise ValueError("num_cells must be at least 1")
        if budget_blocks <= 0:
            raise ValueError("budget_blocks must be positive")
        if lead_intervals < 1:
            raise ValueError("lead_intervals must be at least 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.shocks = tuple(shocks)
        self.num_cells = int(num_cells)
        self.base_budget = float(budget_blocks)
        self.lead_intervals = int(lead_intervals)
        self.policy = policy if policy is not None else ReservationPolicy()
        self.alpha = alpha
        self.num_users = max(int(num_users), 1)
        self._demand: Dict[int, float] = {cell: 0.0 for cell in range(num_cells)}
        self._seen_intervals = 0
        #: bookings[for_interval][cell] -> granted blocks (latest wins: the
        #: booking made closest to the interval refines earlier ones).
        self._booked: Dict[int, Dict[int, float]] = {}
        self.bookings: List[ReservationBooking] = []
        #: Booked-versus-realised blocks, one record per audited interval.
        self.audit = ResourceGrid()

    # -------------------------------------------------------------- scripted
    def scripted_budget(self, cell: int, interval: int) -> float:
        """The cell's budget at ``interval`` after all scripted changes."""
        budget = self.base_budget
        for shock in sorted(self.shocks, key=lambda s: s.interval):
            if shock.interval > interval:
                break
            if (
                shock.kind in ("cell_outage", "budget_change")
                and shock.cell == cell
                and shock.budget_blocks is not None
            ):
                budget = float(shock.budget_blocks)
        return budget

    def _demand_scale(self, interval: int) -> Tuple[float, Tuple[str, ...]]:
        """Demand multiplier from the shocks scripted *at* ``interval``."""
        scale = 1.0
        reasons: List[str] = []
        for shock in self.shocks:
            if shock.interval != interval:
                continue
            if shock.kind == "flash_crowd":
                scale *= 1.0 + shock.magnitude / self.num_users
            elif shock.kind == "mass_departure":
                scale *= max(1.0 - shock.magnitude / self.num_users, 0.0)
            elif shock.kind == "cell_outage":
                # Displaced load lands on the surviving cells.
                if self.num_cells > 1:
                    scale *= 1.0 + 1.0 / (self.num_cells - 1)
            else:
                continue
            reasons.append(shock.kind)
        return scale, tuple(reasons)

    # --------------------------------------------------------------- observe
    def observe(self, interval: int, demand_by_cell: Mapping[int, float]) -> None:
        """Audit this interval's bookings and fold demand into the smoother."""
        demand = {
            cell: float(demand_by_cell.get(cell, 0.0))
            for cell in range(self.num_cells)
        }
        booked = self._booked.pop(interval, None)
        if booked is not None:
            self.audit.record_interval(interval, booked, demand)
        if self._seen_intervals == 0:
            self._demand = dict(demand)
        else:
            self._demand = {
                cell: self.alpha * demand[cell]
                + (1.0 - self.alpha) * self._demand[cell]
                for cell in range(self.num_cells)
            }
        self._seen_intervals += 1

    def update_population(self, num_users: int) -> None:
        self.num_users = max(int(num_users), 1)

    # ------------------------------------------------------------------ plan
    def plan(self, interval: int) -> List[ReservationBooking]:
        """Book the next ``lead_intervals`` intervals' per-cell blocks.

        Called after :meth:`observe` for ``interval``; re-booking a future
        interval on later calls refines the earlier booking (latest wins).
        """
        made: List[ReservationBooking] = []
        for future in range(interval + 1, interval + 1 + self.lead_intervals):
            scale, reasons = self._demand_scale(future)
            for cell in range(self.num_cells):
                baseline = self._demand.get(cell, 0.0)
                surge = baseline * (scale - 1.0)
                requests = {"baseline": self.policy.blocks_request(baseline)}
                if abs(surge) > 1e-12:
                    # Shock uplift is a separate request line so proportional
                    # admission scales baseline and surge together.
                    requests["surge"] = max(
                        self.policy.blocks_request(max(baseline + surge, 0.0))
                        - requests["baseline"],
                        0.0,
                    )
                budget = self.scripted_budget(cell, future)
                if budget <= 0.0:
                    granted_total = 0.0
                    requested_total = float(ordered_sum(requests.values()))
                    scaled = True
                else:
                    admitted = AdmissionController(budget).admit(requests)
                    granted_total = admitted.total_granted
                    requested_total = admitted.total_requested
                    scaled = admitted.scaled_down
                booking = ReservationBooking(
                    made_at_interval=int(interval),
                    for_interval=int(future),
                    cell=int(cell),
                    requested_blocks=float(requested_total),
                    granted_blocks=float(granted_total),
                    scaled_down=bool(scaled),
                    reasons=reasons,
                )
                self._booked.setdefault(future, {})[cell] = booking.granted_blocks
                self.bookings.append(booking)
                made.append(booking)
        return made

    # ------------------------------------------------------------- reporting
    def summary(self) -> Dict[str, object]:
        return {
            "lead_intervals": int(self.lead_intervals),
            "total_bookings": int(len(self.bookings)),
            "scaled_down_bookings": int(
                sum(1 for b in self.bookings if b.scaled_down)
            ),
            "event_driven_bookings": int(
                sum(1 for b in self.bookings if b.reasons)
            ),
            "mean_over_booking_blocks": self.audit.mean_over_provisioning(),
            "mean_under_booking_blocks": self.audit.mean_under_provisioning(),
        }
