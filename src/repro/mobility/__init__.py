"""Mobility substrate: campus map and trajectories.

In the paper users are "initially randomly generated in the University of
Waterloo campus and then move along different trajectories"; their movement
changes the distance to the serving base station and therefore the channel
condition the UDTs record.  This subpackage provides:

* :mod:`repro.mobility.campus` -- a networkx waypoint graph laid out like a
  campus (buildings connected by paths), each route computed once.
* :mod:`repro.mobility.trajectory` -- graph-constrained trajectories
  (shortest-path walks between buildings), each walk held in one leg table.
"""

from repro.mobility.campus import CampusConfig, CampusMap
from repro.mobility.trajectory import (
    GraphTrajectoryMobility,
    MobilityModel,
    StaticMobility,
)

__all__ = [
    "CampusConfig",
    "CampusMap",
    "GraphTrajectoryMobility",
    "MobilityModel",
    "StaticMobility",
]
