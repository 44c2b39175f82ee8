"""Digital-twin substrate: user digital twins (UDTs) and their management.

UDTs live on the edge server and store each user's status -- channel
condition, location, watching duration and preference -- with a different
collection frequency per attribute.  Everything the prediction scheme knows
about users it learns from these twins, so the twin layer also controls how
*stale* that knowledge can get (the DT-staleness ablation).

* :mod:`repro.twin.attributes` -- attribute specifications (name, dimension,
  collection period).
* :mod:`repro.twin.timeseries` -- the population's time-series tables, one
  per attribute with a row per twin, kept as column chunks that are never
  copied to grow; each append is one check and one write of a group's block,
  and reads gather many rows at once (zero-order hold, window means, newest
  values).
* :mod:`repro.twin.udt` -- the watch-record table (the groups' watch blocks,
  indexed per interval by row) and :class:`UserDigitalTwin`, one user's view
  of the tables.
* :mod:`repro.twin.collector` -- samples live user state for UDTs at each
  attribute's own frequency, with optional loss and delay, and returns a
  multicast group's status as one block per attribute, plus the group's
  watch block and the records a lossy uplink keeps of it.
* :mod:`repro.twin.manager` -- the edge-side registry that owns the tables:
  appends each group's collected status to its members' rows in one call
  (:meth:`DigitalTwinManager.append_group`) and reads them for whole groups
  as arrays.
"""

from repro.twin.attributes import (
    AttributeSpec,
    DEFAULT_ATTRIBUTES,
    standard_attributes,
)
from repro.twin.timeseries import StatusBlock, StoreView
from repro.twin.udt import UserDigitalTwin, WatchColumns
from repro.twin.collector import (
    CollectedStatus,
    CollectionPolicy,
    StatusCollector,
)
from repro.twin.manager import DigitalTwinManager

__all__ = [
    "AttributeSpec",
    "CollectedStatus",
    "CollectionPolicy",
    "DEFAULT_ATTRIBUTES",
    "DigitalTwinManager",
    "StatusBlock",
    "StatusCollector",
    "StoreView",
    "UserDigitalTwin",
    "WatchColumns",
    "standard_attributes",
]
