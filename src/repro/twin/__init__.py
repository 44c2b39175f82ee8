"""Digital-twin substrate: user digital twins (UDTs) and their management.

UDTs live on the edge server and store each user's status -- channel
condition, location, watching duration and preference -- with a different
collection frequency per attribute.  Everything the prediction scheme knows
about users it learns from these twins, so the twin layer also controls how
*stale* that knowledge can get (the DT-staleness ablation).

* :mod:`repro.twin.attributes` -- attribute specifications (name, dimension,
  collection period).
* :mod:`repro.twin.timeseries` -- per-attribute time-series stores with
  window queries and zero-order-hold resampling, and the one check and one
  write routine every append goes through (writes keep references to the
  appended blocks; a store's first read copies them in).
* :mod:`repro.twin.udt` -- :class:`UserDigitalTwin`, which keeps its
  watch records as references into the appended watch blocks and builds
  the record objects on its first read.
* :mod:`repro.twin.collector` -- samples live user state for UDTs at each
  attribute's own frequency, with optional loss and delay, and returns a
  multicast group's status as one block per attribute, plus the group's
  watch block and the records a lossy uplink keeps of it.
* :mod:`repro.twin.manager` -- the edge-side registry of all UDTs: appends
  each group's collected status to its members' twins in one call
  (:meth:`DigitalTwinManager.append_group`), plus group-level aggregation
  helpers.
"""

from repro.twin.attributes import (
    AttributeSpec,
    DEFAULT_ATTRIBUTES,
    standard_attributes,
)
from repro.twin.timeseries import StatusBlock, TimeSeriesStore
from repro.twin.udt import UserDigitalTwin
from repro.twin.collector import (
    CollectedStatus,
    CollectionPolicy,
    StatusCollector,
)
from repro.twin.manager import DigitalTwinManager
from repro.twin.persistence import (
    load_manager,
    manager_from_dict,
    manager_to_dict,
    save_manager,
    twin_from_dict,
    twin_to_dict,
)

__all__ = [
    "AttributeSpec",
    "CollectedStatus",
    "CollectionPolicy",
    "DEFAULT_ATTRIBUTES",
    "DigitalTwinManager",
    "StatusBlock",
    "StatusCollector",
    "TimeSeriesStore",
    "UserDigitalTwin",
    "load_manager",
    "manager_from_dict",
    "manager_to_dict",
    "save_manager",
    "standard_attributes",
    "twin_from_dict",
    "twin_to_dict",
]
