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
from typing import Optional

import numpy as np

from repro.behavior.preference import PreferenceVector
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

    def sample_watch_duration(
        self,
        video: Video,
        preference: PreferenceVector,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Sample how many seconds of ``video`` the user watches.

        ``rng`` is required.  The historical ``None`` fallback built a
        *fresh* seed-0 generator per call, so repeated calls without a
        generator all returned the same draw.
        """
        if rng is None:
            raise ValueError(
                "sample_watch_duration requires an explicit rng; derive one "
                "from the repro.sim.rng registry (the historical fallback, "
                "legacy_stream(0), returned the same draw on every call)"
            )
        weight = preference.weight(video.category)
        # Inlined completion_probability / mean_watched_fraction (hot path).
        if rng.random() < min(
            self.completion_probability_gain * weight, self.MAX_COMPLETION_PROBABILITY
        ):
            return float(video.duration_s)
        mean = min(
            self.base_mean_fraction * (1.0 + self.preference_gain * weight),
            self.MAX_MEAN_WATCHED_FRACTION,
        )
        alpha = mean * self.concentration
        beta = (1.0 - mean) * self.concentration
        fraction = float(rng.beta(alpha, beta))
        return float(fraction * video.duration_s)

    def sample_watch_durations(
        self,
        video: Video,
        preference_weights: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample one watch duration per viewer in a single batched draw.

        ``preference_weights`` holds each viewer's preference weight for
        ``video``'s category.  The marginal distribution of every entry is
        identical to :meth:`sample_watch_duration`; only the generator walk
        differs (one ``random`` array and one ``beta`` array per call instead
        of interleaved scalar draws), which is what the interval engine's
        playback loop wants on its hot path.
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

    def expected_watch_duration(self, video: Video, preference: PreferenceVector) -> float:
        """Closed-form expectation of the watch duration (used by predictors)."""
        weight = preference.weight(video.category)
        p_complete = self.completion_probability(weight)
        mean_fraction = self.mean_watched_fraction(weight)
        expected_fraction = p_complete * 1.0 + (1.0 - p_complete) * mean_fraction
        return float(expected_fraction * video.duration_s)
