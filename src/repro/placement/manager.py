"""Placement lifecycle: forecast → pack → observe → reprovision.

:class:`PlacementManager` owns the planner, the demand forecaster and the
mispredict machinery, and is driven by the simulator once per interval:

* :meth:`begin_interval` forecasts every active group's demand series and
  packs the groups onto the fleet (groups keep their current server —
  sticky placement — unless they are new or were just reprovisioned);
* :meth:`observe_interval` folds the observed usage into the forecaster
  and compares it against the prediction the placement was packed with.
  When the relative error exceeds the mispredict threshold (Elasecutor's
  trigger), a :class:`ReprovisionEvent` is scheduled on the manager's
  :class:`~repro.sim.events.EventQueue` bus and the group is migrated to
  the planner's best server for its *corrected* demand, effective next
  interval.

Everything here is deterministic and RNG-free: placement reads demand,
never the simulator's random streams, so enabling it cannot perturb
playback draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.placement.demand import DemandForecaster, DemandSeries
from repro.placement.planner import PLACEMENT_STRATEGIES, PlacementPlanner, ServerCapacity
from repro.sim.events import EventQueue


@dataclass(frozen=True)
class ReprovisionEvent:
    """A mispredict-triggered migration/repack decision for one group."""

    time_s: float
    interval_index: int
    group_id: int
    source_server: int
    target_server: int
    predicted_cycles: float
    observed_cycles: float
    relative_error: float

    @property
    def migrated(self) -> bool:
        return self.source_server != self.target_server

    def to_record(self) -> dict:
        """JSON-canonical tagged record (``controller_events`` style)."""
        return {
            "type": "reprovision",
            "time_s": float(self.time_s),
            "interval_index": int(self.interval_index),
            "group": int(self.group_id),
            "source_server": int(self.source_server),
            "target_server": int(self.target_server),
            "predicted_cycles": float(self.predicted_cycles),
            "observed_cycles": float(self.observed_cycles),
            "relative_error": float(self.relative_error),
            "migrated": bool(self.migrated),
        }


@dataclass
class PlacementConfig:
    """Knobs of the placement manager.

    ``strategy`` names the packing rule: ``"drr"`` packs by dominant
    remaining resource, ``"first_fit"`` is the naive A/B baseline, and
    ``None`` (the default) disables placement, so the simulator builds no
    manager.  ``horizon_intervals`` is how far ahead demand is forecast;
    a group whose observed cycles miss the forecast by more than
    ``mispredict_threshold`` (relative error) is reprovisioned when
    ``reprovision`` is on.  Every field is checked, enabled or not.
    """

    strategy: Optional[str] = None
    horizon_intervals: int = 3
    mispredict_threshold: float = 0.5
    reprovision: bool = True

    def __post_init__(self) -> None:
        if self.strategy is not None and self.strategy not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"strategy must be one of {', '.join(PLACEMENT_STRATEGIES)} "
                f"(or None to disable), got {self.strategy!r}"
            )
        if self.horizon_intervals < 1:
            raise ValueError("horizon_intervals must be at least 1")
        if self.mispredict_threshold <= 0:
            raise ValueError("mispredict_threshold must be positive")


class PlacementManager:
    """Drives predictive placement of group jobs over an edge fleet."""

    def __init__(
        self, capacities: Sequence[ServerCapacity], config: PlacementConfig
    ) -> None:
        self.config = config
        self.planner = PlacementPlanner(capacities, strategy=config.strategy)
        self.forecaster = DemandForecaster()
        #: The ``repro.sim.events`` bus reprovision events fire on; consumers
        #: may attach callbacks before :meth:`observe_interval` runs it.
        self.events = EventQueue()
        self.assignment: Dict[int, int] = {}
        self.event_log: List[ReprovisionEvent] = []
        self._placed_forecast: Dict[int, DemandSeries] = {}
        self._placed_with_history: set = set()

    @property
    def num_servers(self) -> int:
        return self.planner.num_servers

    # -------------------------------------------------------------- forecast
    def set_forecast(self, cycles_by_group: Mapping[int, float]) -> None:
        """Feed the twin's predicted per-group cycles for the next interval."""
        self.forecaster.set_external(cycles_by_group)

    # ----------------------------------------------------------------- begin
    def begin_interval(
        self, interval_index: int, group_ids: Sequence[int], time_s: float = 0.0
    ) -> Dict[int, int]:
        """Forecast and pack the interval's groups; returns group → server."""
        group_ids = sorted(int(gid) for gid in group_ids)
        demands = {
            gid: self.forecaster.forecast(gid, self.config.horizon_intervals)
            for gid in group_ids
        }
        pinned = {
            gid: server
            for gid, server in self.assignment.items()
            if gid in demands
        }
        self.assignment = self.planner.pack(demands, pinned=pinned)
        self._placed_forecast = demands
        # Groups placed from the cold-start prior (no history yet) are not
        # mispredict candidates: their first observation *always* disagrees
        # with the prior, and reprovisioning on first contact is noise.
        self._placed_with_history = {
            gid for gid in group_ids if self.forecaster.observations(gid) > 0
        }
        return dict(self.assignment)

    # --------------------------------------------------------------- observe
    def observe_interval(
        self,
        interval_index: int,
        cycles_by_group: Mapping[int, float],
        cache_bytes_by_group: Mapping[int, float],
        time_s: float,
    ) -> List[ReprovisionEvent]:
        """Fold observations in and fire mispredict reprovision events."""
        events: List[ReprovisionEvent] = []
        for gid in sorted(cycles_by_group):
            observed = float(cycles_by_group[gid])
            placed = self._placed_forecast.get(gid)
            predicted = placed.cpu_cycles[0] if placed is not None else None
            self.forecaster.observe(
                gid, observed, float(cache_bytes_by_group.get(gid, 0.0))
            )
            if (
                not self.config.reprovision
                or predicted is None
                or gid not in self._placed_with_history
            ):
                continue
            error = self.forecaster.relative_error(predicted, observed)
            if error <= self.config.mispredict_threshold:
                continue
            source = self.assignment.get(gid, 0)
            # Repack the mispredicted group against its corrected forecast;
            # the remaining fleet keeps its (sticky) layout.
            corrected = self.forecaster.forecast(gid, self.config.horizon_intervals)
            remaining = {
                other: series
                for other, series in self._placed_forecast.items()
                if other != gid
            }
            remaining[gid] = corrected
            target = self.planner.place_one(
                corrected, remaining, self.assignment, exclude=gid
            )
            event = ReprovisionEvent(
                time_s=float(time_s),
                interval_index=int(interval_index),
                group_id=int(gid),
                source_server=int(source),
                target_server=int(target),
                predicted_cycles=float(predicted),
                observed_cycles=observed,
                relative_error=float(error),
            )
            self.events.schedule(
                max(event.time_s, self.events.now_s),
                name="reprovision",
                payload=event,
            )
            self.assignment[gid] = target
            events.append(event)
        if events:
            self.events.run_until(max(e.time_s for e in events))
        self.event_log.extend(events)
        # Drop assignments for groups that vanished this interval so churned
        # ids never pin future packing.
        live = set(cycles_by_group)
        self.assignment = {
            gid: server for gid, server in self.assignment.items() if gid in live
        }
        return events

    # ------------------------------------------------------------- reporting
    def total_reprovisions(self) -> int:
        return len(self.event_log)

    def total_migrations(self) -> int:
        return sum(1 for event in self.event_log if event.migrated)
