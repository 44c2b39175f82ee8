"""Watching-duration model.

How long a user watches a short video before swiping away depends mainly on
how well the video matches the user's preferences.  The model below draws
the *watched fraction* of the video from a Beta distribution whose mean
increases with the preference weight of the video's category, with an extra
probability mass at "watched to the end" for well-matched videos.  That
yields the early-swipe-heavy, preference-skewed engagement traces the
prediction scheme needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.video.catalog import Video


@dataclass(frozen=True)
class WatchRecord:
    """One completed viewing of a video by a user."""

    user_id: int
    video_id: int
    category: str
    watch_duration_s: float
    video_duration_s: float
    swiped: bool
    timestamp_s: float = 0.0

    def __post_init__(self) -> None:
        if self.watch_duration_s < 0 or self.video_duration_s <= 0:
            raise ValueError("durations must be positive")
        if self.watch_duration_s > self.video_duration_s + 1e-9:
            raise ValueError("watch duration cannot exceed video duration")

    @property
    def watched_fraction(self) -> float:
        return self.watch_duration_s / self.video_duration_s


class WatchingDurationModel:
    """Samples watch durations conditioned on user preference.

    Parameters
    ----------
    base_mean_fraction:
        Mean watched fraction for a completely indifferent user.
    preference_gain:
        How strongly the category preference weight shifts the mean
        watched fraction upwards.
    completion_probability_gain:
        Probability of watching to the very end grows with the preference
        weight at this rate.
    concentration:
        Beta-distribution concentration; higher values make durations less
        noisy around the mean.
    """

    #: Caps applied to the preference-driven means (single source of truth
    #: for both the public accessors and the inlined hot-path sampler).
    MAX_COMPLETION_PROBABILITY = 0.9
    MAX_MEAN_WATCHED_FRACTION = 0.95

    def __init__(
        self,
        base_mean_fraction: float = 0.25,
        preference_gain: float = 1.8,
        completion_probability_gain: float = 0.55,
        concentration: float = 4.0,
    ) -> None:
        if not 0.0 < base_mean_fraction < 1.0:
            raise ValueError("base_mean_fraction must be in (0, 1)")
        if preference_gain < 0 or completion_probability_gain < 0:
            raise ValueError("gains must be non-negative")
        if concentration <= 0:
            raise ValueError("concentration must be positive")
        self.base_mean_fraction = base_mean_fraction
        self.preference_gain = preference_gain
        self.completion_probability_gain = completion_probability_gain
        self.concentration = concentration

    def mean_watched_fraction(self, preference_weight: float) -> float:
        """Expected watched fraction for a given category preference weight."""
        if preference_weight < 0:
            raise ValueError("preference_weight must be non-negative")
        mean = self.base_mean_fraction * (1.0 + self.preference_gain * preference_weight)
        return float(min(mean, self.MAX_MEAN_WATCHED_FRACTION))

    def completion_probability(self, preference_weight: float) -> float:
        """Probability the user watches the video to the end."""
        return float(
            min(self.completion_probability_gain * preference_weight, self.MAX_COMPLETION_PROBABILITY)
        )

    def sample_watch_durations(
        self,
        video: Video,
        preference_weights: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample one watch duration per viewer in a single batched draw.

        ``preference_weights`` holds each viewer's preference weight for
        ``video``'s category.  A viewer watches to the end with probability
        :meth:`completion_probability`; otherwise the watched fraction is a
        Beta draw with mean :meth:`mean_watched_fraction`.  The draws are
        one ``random`` array and one ``beta`` array per call.
        """
        weights = np.asarray(preference_weights, dtype=np.float64)
        completion = np.minimum(
            self.completion_probability_gain * weights, self.MAX_COMPLETION_PROBABILITY
        )
        mean = np.minimum(
            self.base_mean_fraction * (1.0 + self.preference_gain * weights),
            self.MAX_MEAN_WATCHED_FRACTION,
        )
        alpha = mean * self.concentration
        beta = (1.0 - mean) * self.concentration
        completed = rng.random(weights.shape[0]) < completion
        fractions = rng.beta(alpha, beta)
        return np.where(completed, 1.0, fractions) * video.duration_s
