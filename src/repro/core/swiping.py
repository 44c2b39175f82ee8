"""Group-level swiping-probability abstraction.

"We abstract multicast groups' swiping probabilities from the watching
duration stored in UDTs" — this module does exactly that: it gathers the
watch records that a group's members accumulated in their digital twins
over a history window, as columns gathered from the twin tables for the
whole group, and summarises them into a
:class:`GroupSwipingProfile` (per-category swipe probability, mean watched
fraction, engagement share, cumulative swiping distribution and mean
preference), which is everything the demand predictor needs to know about
the group's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.behavior.preference import PreferenceVector
from repro.behavior.swiping import SwipeProbabilityEstimator
from repro.twin.attributes import PREFERENCE
from repro.twin.manager import DigitalTwinManager


@dataclass
class GroupSwipingProfile:
    """Abstracted behaviour of one multicast group."""

    group_id: int
    member_ids: List[int]
    swipe_probability: Dict[str, float]
    mean_watched_fraction: Dict[str, float]
    engagement_share: Dict[str, float]
    cumulative_swiping: Dict[str, float]
    mean_preference: PreferenceVector
    mean_watch_duration_s: float
    num_observations: int

    @property
    def categories(self) -> List[str]:
        return list(self.swipe_probability.keys())

    def most_watched_category(self) -> str:
        """Category with the highest engagement share (News in the paper's Fig. 3a)."""
        return max(self.engagement_share, key=self.engagement_share.get)

    def least_watched_category(self) -> str:
        return min(self.engagement_share, key=self.engagement_share.get)


def abstract_group_swiping(
    group_id: int,
    member_ids: Sequence[int],
    twins: DigitalTwinManager,
    categories: Sequence[str],
    start_s: Optional[float] = None,
    end_s: Optional[float] = None,
    laplace_smoothing: float = 1.0,
) -> GroupSwipingProfile:
    """Abstract a group's swiping profile from its members' digital twins.

    Parameters
    ----------
    group_id, member_ids:
        The multicast group to abstract.
    twins:
        The digital-twin manager holding every member's UDT.
    categories:
        The category taxonomy the profile is expressed over.
    start_s, end_s:
        History window; ``None`` means "all recorded history".
    """
    member_ids = list(member_ids)
    if not member_ids:
        raise ValueError("a group needs at least one member")
    records = twins.watch_columns(member_ids, start_s, end_s)
    index = {category: code for code, category in enumerate(categories)}
    codes = np.array([index.get(name, -1) for name in records.categories], dtype=np.intp)
    estimator = SwipeProbabilityEstimator(categories, laplace_smoothing=laplace_smoothing)
    estimator.observe(
        codes[records.category_codes],
        records.watch_durations_s,
        records.video_durations_s,
        records.swiped,
    )
    num_records = records.watch_durations_s.shape[0]
    mean_watch = float(records.watch_durations_s.mean()) if num_records else 10.0

    # Mean of the members' latest preference snapshots.
    mean_vector = np.mean(twins.latest_values(PREFERENCE, member_ids), axis=0)
    if mean_vector.shape[0] != len(categories) or not np.any(mean_vector):
        mean_vector = np.ones(len(categories))
    mean_preference = PreferenceVector(
        dict(zip(categories, mean_vector)), categories=tuple(categories)
    )

    return GroupSwipingProfile(
        group_id=group_id,
        member_ids=member_ids,
        swipe_probability=estimator.swipe_distribution(),
        mean_watched_fraction=estimator.watched_fraction_distribution(),
        engagement_share=estimator.category_watch_share(),
        cumulative_swiping=estimator.cumulative_distribution(),
        mean_preference=mean_preference,
        mean_watch_duration_s=mean_watch,
        num_observations=num_records,
    )
