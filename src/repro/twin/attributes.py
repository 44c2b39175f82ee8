"""User-status attribute specifications.

The paper lists four attributes collected into the UDTs -- channel
condition, location, watching duration and preference -- and notes that
"different data attributes are collected with different frequencies".  An
:class:`AttributeSpec` captures an attribute's name, dimensionality and
collection period; the standard set below fixes sensible periods (channel
state changes fastest, preferences slowest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class AttributeSpec:
    """Specification of one UDT attribute."""

    name: str
    dimension: int
    collection_period_s: float
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.collection_period_s <= 0:
            raise ValueError("collection_period_s must be positive")

    def samples_per_interval(self, interval_s: float) -> int:
        """How many samples one reservation interval yields for this attribute."""
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        return max(int(interval_s // self.collection_period_s), 1)


#: Canonical attribute names used across the code base.
CHANNEL_CONDITION = "channel_condition"
LOCATION = "location"
WATCHING_DURATION = "watching_duration"
PREFERENCE = "preference"
#: Serving-cell attribute collected when the multi-cell RAN controller is
#: active (``controller_mode="handover"``); not part of the standard set so
#: single-cell twins keep their pre-controller contents bit-for-bit.
SERVING_CELL = "serving_cell"


def standard_attributes(num_categories: int = 8) -> Dict[str, AttributeSpec]:
    """The four standard UDT attributes with their collection periods."""
    if num_categories <= 0:
        raise ValueError("num_categories must be positive")
    specs = (
        AttributeSpec(
            CHANNEL_CONDITION,
            dimension=1,
            collection_period_s=1.0,
            description="downlink SNR in dB",
        ),
        AttributeSpec(
            LOCATION,
            dimension=2,
            collection_period_s=5.0,
            description="2-D position in metres",
        ),
        AttributeSpec(
            WATCHING_DURATION,
            dimension=1,
            collection_period_s=15.0,
            description="seconds watched of the most recent video",
        ),
        AttributeSpec(
            PREFERENCE,
            dimension=num_categories,
            collection_period_s=60.0,
            description="preference distribution over video categories",
        ),
    )
    return {spec.name: spec for spec in specs}


def serving_cell_attribute() -> AttributeSpec:
    """Attribute spec for the serving-cell id reported by the RAN controller."""
    return AttributeSpec(
        SERVING_CELL,
        dimension=1,
        collection_period_s=60.0,
        description="id of the base station currently serving the user",
    )


#: Default attribute set with the default periods and 8 video categories.
DEFAULT_ATTRIBUTES: Dict[str, AttributeSpec] = standard_attributes()
