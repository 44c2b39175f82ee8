"""Mobility substrate: campus map and the population's walks.

In the paper users are "initially randomly generated in the University of
Waterloo campus and then move along different trajectories"; their movement
changes the distance to the serving base station and therefore the channel
condition the UDTs record.  This subpackage provides:

* :mod:`repro.mobility.campus` -- a networkx waypoint graph laid out like a
  campus (buildings connected by paths), each route and its leg lengths
  computed once.
* :mod:`repro.mobility.trajectory` -- graph-constrained walks
  (shortest-path trips between buildings), every user's walk one row of a
  population walk table, evaluated for many users and times in one call.
"""

from repro.mobility.campus import CampusConfig, CampusMap
from repro.mobility.trajectory import WalkTable

__all__ = [
    "CampusConfig",
    "CampusMap",
    "WalkTable",
]
