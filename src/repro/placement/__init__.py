"""Predictive edge placement and horizon reservation.

The subsystem between the digital twin's demand predictions and the edge/
reservation substrate (the Elasecutor-shaped loop: predict each job's
time-varying resource demand, pack jobs by dominant remaining resource,
reprovision when prediction error grows):

* :mod:`repro.placement.demand` — per-job :class:`DemandSeries` and the
  deterministic :class:`DemandForecaster` (twin predictions feed in as
  external forecasts);
* :mod:`repro.placement.planner` — :class:`PlacementPlanner` packing jobs
  onto servers (``"drr"`` dominant-remaining-resource, ``"first_fit"``
  baseline) and the :func:`fragmentation_index` stranded-capacity metric;
* :mod:`repro.placement.fleet` — :class:`EdgeFleet`, N edge servers with
  per-group routing (one server, no assignment = the historical path);
* :mod:`repro.placement.manager` — :class:`PlacementManager` driving
  forecast → pack → observe, firing :class:`ReprovisionEvent`\\ s on the
  :class:`~repro.sim.events.EventQueue` bus on mispredicts;
* :mod:`repro.placement.horizon` — :class:`HorizonReservationPlanner`
  booking per-cell radio blocks ahead of scripted timeline events via
  :mod:`repro.core.reservation` and auditing them in a
  :class:`~repro.net.resources.ResourceGrid`.
"""

from repro.placement.demand import DemandForecaster, DemandSeries
from repro.placement.fleet import EdgeFleet, FleetComputeUsage
from repro.placement.manager import (
    PlacementConfig,
    PlacementManager,
    ReprovisionEvent,
)
from repro.placement.planner import (
    PLACEMENT_STRATEGIES,
    PlacementPlanner,
    ServerCapacity,
    fragmentation_index,
)

#: Horizon names resolved lazily (PEP 562): :mod:`repro.placement.horizon`
#: pulls in :mod:`repro.core.reservation`, whose package __init__ imports
#: the simulator — which imports this package for the fleet.  Deferring the
#: horizon import keeps that chain acyclic.
_HORIZON_NAMES = (
    "DemandShock",
    "HorizonReservationPlanner",
    "ReservationBooking",
)


def __getattr__(name: str):
    if name in _HORIZON_NAMES:
        from repro.placement import horizon

        return getattr(horizon, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DemandForecaster",
    "DemandSeries",
    "DemandShock",
    "EdgeFleet",
    "FleetComputeUsage",
    "HorizonReservationPlanner",
    "PLACEMENT_STRATEGIES",
    "PlacementConfig",
    "PlacementManager",
    "PlacementPlanner",
    "ReprovisionEvent",
    "ReservationBooking",
    "ServerCapacity",
    "fragmentation_index",
]
