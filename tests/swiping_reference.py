"""Per-record and per-member references for the scheme's group reads.

:class:`ReferenceSwipeEstimator` is the swipe estimator that ingested one
:class:`~repro.behavior.watching.WatchRecord` at a time, and
:func:`reference_member_means` the per-member loop
:meth:`~repro.core.demand.GroupDemandPredictor.predict_link_state` ran over
each member's channel store.  The tests hold the array estimator and the
table means to them in every bit.  :func:`record_columns` turns records into
the columns :meth:`~repro.behavior.swiping.SwipeProbabilityEstimator.observe`
takes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.behavior.watching import WatchRecord
from repro.numeric import ordered_sum
from repro.twin.attributes import CHANNEL_CONDITION
from repro.video.categories import DEFAULT_CATEGORIES


def record_columns(records: Sequence[WatchRecord], categories: Sequence[str]) -> tuple:
    """``(category indices, watch durations, video durations, swiped)`` of ``records``.

    A category outside ``categories`` gets index -1.
    """
    index = {category: code for code, category in enumerate(categories)}
    return (
        np.array([index.get(record.category, -1) for record in records], dtype=np.intp),
        np.array([record.watch_duration_s for record in records], dtype=np.float64),
        np.array([record.video_duration_s for record in records], dtype=np.float64),
        np.array([record.swiped for record in records], dtype=bool),
    )


def reference_member_means(
    twins, member_ids: Sequence[int], start_s: Optional[float], end_s: Optional[float]
) -> List[float]:
    """Each member's mean channel condition, one store at a time (``twins`` has ``twin()``)."""
    member_means = []
    for uid in member_ids:
        store = twins.twin(uid).store(CHANNEL_CONDITION)
        if start_s is None or end_s is None:
            values = store.values()
        else:
            values = store.window_values(start_s, end_s)
        if values.size == 0:
            values = store.values()
        member_means.append(float(values.mean()) if values.size else 0.0)
    return member_means


class ReferenceSwipeEstimator:
    """Online estimator of group-level swiping behaviour.

    The estimator ingests watch records (typically everything a multicast
    group watched during the last reservation interval) and exposes:

    * ``swipe_probability(category)`` -- probability of abandoning a video,
    * ``mean_watched_fraction(category)`` -- expected fraction watched,
    * ``cumulative_distribution()`` -- the cumulative swiping probability
      per category reported in the paper's Fig. 3(a).
    """

    def __init__(
        self,
        categories: Sequence[str] = DEFAULT_CATEGORIES,
        laplace_smoothing: float = 1.0,
    ) -> None:
        if not categories:
            raise ValueError("categories must not be empty")
        self.categories = tuple(categories)
        self.laplace_smoothing = laplace_smoothing
        self._swipes = {category: 0.0 for category in self.categories}
        self._counts = {category: 0.0 for category in self.categories}
        self._watched_fraction_sum = {category: 0.0 for category in self.categories}
        self._engagement_seconds = {category: 0.0 for category in self.categories}

    # -------------------------------------------------------------- updates
    def observe(self, record: WatchRecord) -> None:
        """Ingest one watch record."""
        if record.category not in self._counts:
            return
        self._counts[record.category] += 1.0
        self._watched_fraction_sum[record.category] += record.watched_fraction
        self._engagement_seconds[record.category] += record.watch_duration_s
        if record.swiped:
            self._swipes[record.category] += 1.0

    def observe_many(self, records: Iterable[WatchRecord]) -> None:
        for record in records:
            self.observe(record)

    # ------------------------------------------------------------ estimates
    def swipe_probability(self, category: str) -> float:
        if category not in self._counts:
            raise KeyError(f"unknown category {category!r}")
        numerator = self._swipes[category] + self.laplace_smoothing
        denominator = self._counts[category] + 2.0 * self.laplace_smoothing
        return numerator / denominator if denominator > 0 else 0.5

    def swipe_distribution(self) -> Dict[str, float]:
        return {category: self.swipe_probability(category) for category in self.categories}

    def mean_watched_fraction(self, category: str) -> float:
        """Average watched fraction; defaults to 0.5 for unseen categories."""
        if category not in self._counts:
            raise KeyError(f"unknown category {category!r}")
        count = self._counts[category]
        if count == 0:
            return 0.5
        return self._watched_fraction_sum[category] / count

    def watched_fraction_distribution(self) -> Dict[str, float]:
        return {category: self.mean_watched_fraction(category) for category in self.categories}

    def engagement_seconds(self) -> Dict[str, float]:
        """Total engagement time per category (drives preference/popularity updates)."""
        return dict(self._engagement_seconds)

    def category_watch_share(self) -> Dict[str, float]:
        """Share of total engagement time per category (sums to one)."""
        total = ordered_sum(self._engagement_seconds.values())
        if total <= 0:
            return {category: 1.0 / len(self.categories) for category in self.categories}
        return {
            category: seconds / total for category, seconds in self._engagement_seconds.items()
        }

    def cumulative_distribution(self) -> Dict[str, float]:
        """Cumulative swiping probability per category (Fig. 3a).

        Categories are ordered by engagement (most watched first) and the
        per-category swipe-share is accumulated, so the curve rises from the
        most-watched category (News in the paper) to 1.0 at the least-watched
        category (Game).
        """
        share = self.category_watch_share()
        ordered = sorted(self.categories, key=lambda c: -share[c])
        swipe_probs = self.swipe_distribution()
        weights = np.array([share[c] * swipe_probs[c] for c in ordered])
        total = weights.sum()
        if total <= 0:
            weights = np.ones(len(ordered))
            total = weights.sum()
        cumulative = np.cumsum(weights / total)
        return {category: float(value) for category, value in zip(ordered, cumulative)}

    def merge(self, other: "ReferenceSwipeEstimator") -> "ReferenceSwipeEstimator":
        """Combine two estimators (e.g. when multicast groups are merged)."""
        if self.categories != other.categories:
            raise ValueError("cannot merge estimators with different category sets")
        merged = ReferenceSwipeEstimator(self.categories, self.laplace_smoothing)
        for category in self.categories:
            merged._swipes[category] = self._swipes[category] + other._swipes[category]
            merged._counts[category] = self._counts[category] + other._counts[category]
            merged._watched_fraction_sum[category] = (
                self._watched_fraction_sum[category] + other._watched_fraction_sum[category]
            )
            merged._engagement_seconds[category] = (
                self._engagement_seconds[category] + other._engagement_seconds[category]
            )
        return merged
