"""Video popularity models.

The edge server caches "popular short videos with the highest
representation", and the videos served to a group mix *video popularity*
with *user preferences*.  Popularity on short-video platforms is
famously heavy-tailed, so the base model is a Zipf distribution over the
catalog ranking; the model can additionally be updated online from observed
engagement so popularity drifts with what users actually watch.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from repro.numeric import ordered_sum


def sampling_cdf(probabilities: np.ndarray) -> np.ndarray:
    """Normalised cumulative distribution for inverse-CDF sampling.

    Mirrors ``Generator.choice(p=...)``'s internal cdf (cumsum then divide by
    the last entry), so drawing with :func:`sample_index` consumes exactly
    one uniform and selects the same item ``choice`` would.
    """
    cdf = np.cumsum(np.asarray(probabilities, dtype=np.float64))
    if cdf.shape[0] == 0 or cdf[-1] <= 0:
        raise ValueError("probabilities must be non-empty with a positive sum")
    cdf /= cdf[-1]
    return cdf


def sample_index(cdf: np.ndarray, rng: "np.random.Generator") -> int:
    """Draw one index from a cdf built by :func:`sampling_cdf`."""
    return min(int(cdf.searchsorted(rng.random(), side="right")), cdf.shape[0] - 1)


def zipf_weights(num_items: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf weights for ranks ``1..num_items``.

    ``weight(rank) ∝ rank ** -exponent``; the returned array sums to one.
    """
    if num_items <= 0:
        raise ValueError("num_items must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


class PopularityModel:
    """Interface of popularity models: a probability per video id."""

    def probabilities(self) -> Dict[int, float]:
        """Mapping ``video_id -> probability`` summing to one."""
        raise NotImplementedError

    def probability(self, video_id: int) -> float:
        return self.probabilities().get(video_id, 0.0)

    def top(self, count: int) -> list:
        """The ``count`` most popular video ids, most popular first."""
        if count <= 0:
            raise ValueError("count must be positive")
        probs = self.probabilities()
        ordered = sorted(probs.items(), key=lambda item: (-item[1], item[0]))
        return [video_id for video_id, _ in ordered[:count]]


class ZipfPopularity(PopularityModel):
    """Zipf popularity over a fixed ranking with optional engagement updates.

    Parameters
    ----------
    video_ids:
        Catalog video ids in popularity-rank order (most popular first).
    exponent:
        Zipf exponent; larger values concentrate probability on the head.
    engagement_learning_rate:
        Weight of observed engagement when :meth:`update_from_engagement`
        is called.  ``0`` freezes the prior ranking.
    """

    def __init__(
        self,
        video_ids: Sequence[int],
        exponent: float = 1.0,
        engagement_learning_rate: float = 0.1,
    ) -> None:
        if not len(video_ids):
            raise ValueError("video_ids must not be empty")
        if len(set(video_ids)) != len(video_ids):
            raise ValueError("video_ids must be unique")
        if not 0.0 <= engagement_learning_rate <= 1.0:
            raise ValueError("engagement_learning_rate must be in [0, 1]")
        self._video_ids = list(video_ids)
        self.exponent = exponent
        self.engagement_learning_rate = engagement_learning_rate
        self._weights = zipf_weights(len(video_ids), exponent)
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone counter bumped whenever the distribution changes.

        Callers cache derived arrays (e.g. per-video probability vectors)
        keyed on this counter instead of rebuilding them per query.
        """
        return self._version

    def probabilities(self) -> Dict[int, float]:
        return {vid: float(w) for vid, w in zip(self._video_ids, self._weights)}

    def update_from_engagement(self, engagement_seconds: Mapping[int, float]) -> None:
        """Blend the current distribution with observed engagement time.

        ``engagement_seconds`` maps video ids to total watch time observed
        in the last reservation interval; unknown ids are ignored.
        """
        total = float(ordered_sum(max(v, 0.0) for v in engagement_seconds.values()))
        if total <= 0:
            return
        observed = np.array(
            [max(engagement_seconds.get(vid, 0.0), 0.0) / total for vid in self._video_ids]
        )
        lr = self.engagement_learning_rate
        blended = (1.0 - lr) * self._weights + lr * observed
        self._weights = blended / blended.sum()
        self._version += 1


def category_popularity(
    probabilities: Mapping[int, float],
    video_categories: Mapping[int, str],
    categories: Iterable[str],
) -> Dict[str, float]:
    """Aggregate per-video popularity into per-category popularity."""
    totals = {category: 0.0 for category in categories}
    for video_id, prob in probabilities.items():
        category = video_categories.get(video_id)
        if category in totals:
            totals[category] += prob
    total = ordered_sum(totals.values())
    if total > 0:
        totals = {category: value / total for category, value in totals.items()}
    return totals
