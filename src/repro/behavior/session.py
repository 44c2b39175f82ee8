"""Viewing-session generation.

A session is the sequence of short videos a user is served during a
reservation interval, as one :class:`~repro.behavior.watching.WatchRecord`
per video: when it started and how long it was watched before the user
swiped away.  Sessions are what the base stations observe and what the user
digital twins record; the whole prediction pipeline is driven by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.behavior.preference import PreferenceVector
from repro.behavior.watching import WatchingDurationModel, WatchRecord
from repro.video.catalog import Video, VideoCatalog


@dataclass
class SessionConfig:
    """Configuration of the session generator."""

    session_duration_s: float = 300.0
    swipe_gap_s: float = 0.5
    recommendation_popularity_weight: float = 0.5
    completion_tolerance_s: float = 1e-6

    def __post_init__(self) -> None:
        if self.session_duration_s <= 0:
            raise ValueError("session_duration_s must be positive")
        if self.swipe_gap_s < 0:
            raise ValueError("swipe_gap_s must be non-negative")
        if not 0.0 <= self.recommendation_popularity_weight <= 1.0:
            raise ValueError("recommendation_popularity_weight must be in [0, 1]")


class SessionGenerator:
    """Generates viewing sessions for individual users.

    The video served next is sampled from a mixture of global popularity and
    the user's own category preference (the platform's recommender), and the
    watch duration comes from :class:`WatchingDurationModel`.
    """

    def __init__(
        self,
        catalog: VideoCatalog,
        watching_model: Optional[WatchingDurationModel] = None,
        config: Optional[SessionConfig] = None,
    ) -> None:
        self.catalog = catalog
        self.watching_model = watching_model if watching_model is not None else WatchingDurationModel()
        self.config = config if config is not None else SessionConfig()

    # ---------------------------------------------------------- video choice
    def sample_next_video(
        self, preference: PreferenceVector, rng: np.random.Generator
    ) -> Video:
        """Sample the next video the platform serves to a user."""
        video_ids = self.catalog.video_ids()
        probabilities = self.catalog.sampling_probabilities(
            preference, self.config.recommendation_popularity_weight
        )
        chosen = int(rng.choice(video_ids, p=probabilities))
        return self.catalog.get(chosen)

    # -------------------------------------------------------------- sessions
    def generate_session(
        self,
        user_id: int,
        preference: PreferenceVector,
        rng: Optional[np.random.Generator] = None,
        start_time_s: float = 0.0,
        duration_s: Optional[float] = None,
    ) -> List[WatchRecord]:
        """Generate the watch records of one user for one interval, in time order.

        ``rng`` is required: the historical per-user fallback
        (``default_rng(user_id)``) silently decoupled callers from the
        simulation's seed, so identical configs could disagree purely on
        whether a stream was passed.
        """
        if rng is None:
            raise ValueError(
                "generate_session requires an explicit rng; derive one from "
                "the repro.sim.rng registry (e.g. legacy_stream(user_id) for "
                "the historical default)"
            )
        duration_s = duration_s if duration_s is not None else self.config.session_duration_s
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        records: List[WatchRecord] = []
        now = start_time_s
        end_time = start_time_s + duration_s
        while now < end_time:
            video = self.sample_next_video(preference, rng)
            watch = self.watching_model.sample_watch_duration(video, preference, rng)
            # `swiped` reflects the user's intended duration: a watch cut
            # short only by the session end is not a swipe.
            swiped = watch < video.duration_s - self.config.completion_tolerance_s
            watch = max(min(watch, end_time - now), 0.0)
            record = WatchRecord(
                user_id=user_id,
                video_id=video.video_id,
                category=video.category,
                watch_duration_s=watch,
                video_duration_s=video.duration_s,
                swiped=swiped,
                timestamp_s=now,
            )
            records.append(record)
            now += watch + self.config.swipe_gap_s
        return records

    def generate_population_sessions(
        self,
        preferences: Sequence[PreferenceVector],
        rng: Optional[np.random.Generator] = None,
        start_time_s: float = 0.0,
        duration_s: Optional[float] = None,
    ) -> List[List[WatchRecord]]:
        """Generate one session per user; ``preferences[i]`` belongs to user ``i``."""
        if rng is None:
            raise ValueError(
                "generate_population_sessions requires an explicit rng; "
                "derive one from the repro.sim.rng registry (e.g. "
                "legacy_stream(0) for the historical default)"
            )
        sessions = []
        for user_id, preference in enumerate(preferences):
            sessions.append(
                self.generate_session(
                    user_id,
                    preference,
                    rng=rng,
                    start_time_s=start_time_s,
                    duration_s=duration_s,
                )
            )
        return sessions
