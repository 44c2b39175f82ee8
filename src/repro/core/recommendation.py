"""Per-group video recommendation.

"The recommended videos are updated based on video popularity and users'
preferences."  The recommender scores every catalog video as a convex
combination of its global popularity and the group's preference for its
category, and returns the top-N per group.  The same popularity-preference
mixture also defines the sampling distribution the demand predictor rolls
its Monte-Carlo futures from, so recommendation and demand prediction stay
consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.behavior.preference import PreferenceVector
from repro.video.catalog import VideoCatalog


@dataclass
class GroupRecommendation:
    """Recommended videos for one multicast group."""

    group_id: int
    video_ids: List[int]
    scores: Dict[int, float]

    def top(self, count: int) -> List[int]:
        if count <= 0:
            raise ValueError("count must be positive")
        return self.video_ids[:count]


class VideoRecommender:
    """Popularity-and-preference video recommendation."""

    def __init__(
        self,
        catalog: VideoCatalog,
        popularity_weight: float = 0.5,
    ) -> None:
        if not 0.0 <= popularity_weight <= 1.0:
            raise ValueError("popularity_weight must be in [0, 1]")
        self.catalog = catalog
        self.popularity_weight = popularity_weight

    def sampling_probabilities(self, preference: PreferenceVector) -> tuple:
        """``(video_ids, probabilities)`` aligned arrays for one group.

        The distribution is the catalog's
        (:meth:`VideoCatalog.sampling_probabilities`), the same one the
        ground-truth simulator serves videos from.
        """
        video_ids = self.catalog.sampling_arrays()[0]
        return video_ids, self.catalog.sampling_probabilities(
            preference, self.popularity_weight
        )

    def sampling_distribution(self, preference: PreferenceVector) -> Dict[int, float]:
        """Probability of each catalog video being served to a group.

        The distribution mixes global popularity with the group's category
        preference; it always sums to one.
        """
        video_ids, mixture = self.sampling_probabilities(preference)
        return dict(zip(video_ids.tolist(), mixture))

    def recommend(
        self,
        group_id: int,
        preference: PreferenceVector,
        count: int = 10,
    ) -> GroupRecommendation:
        """Top-``count`` recommended videos for a group."""
        if count <= 0:
            raise ValueError("count must be positive")
        scores = self.sampling_distribution(preference)
        ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        video_ids = [vid for vid, _ in ordered[:count]]
        return GroupRecommendation(
            group_id=group_id,
            video_ids=video_ids,
            scores={vid: float(scores[vid]) for vid in video_ids},
        )

    def recommend_for_groups(
        self,
        preferences: Dict[int, PreferenceVector],
        count: int = 10,
    ) -> Dict[int, GroupRecommendation]:
        return {
            group_id: self.recommend(group_id, preference, count)
            for group_id, preference in preferences.items()
        }
