"""Synthetic challenge-dataset generator.

Builds a :class:`~repro.dataset.schema.DatasetBundle` by (1) generating a
video catalog with Zipf popularity and per-segment VBR traces and (2)
simulating preference-driven viewing sessions for a population of users over
several reservation intervals.  The result has the same shape as the public
short-video-streaming-challenge data the paper consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.behavior.preference import PreferenceVector, random_preference
from repro.behavior.session import SessionConfig, SessionGenerator
from repro.behavior.watching import WatchingDurationModel
from repro.dataset.schema import DatasetBundle, SwipeTraceRecord, UserRecord, VideoRecord
from repro.video.catalog import CatalogConfig, VideoCatalog
from repro.video.categories import DEFAULT_CATEGORIES


@dataclass
class ChallengeDatasetConfig:
    """Configuration of the synthetic dataset generator."""

    num_videos: int = 150
    num_users: int = 40
    num_intervals: int = 6
    interval_s: float = 300.0
    categories: Sequence[str] = DEFAULT_CATEGORIES
    zipf_exponent: float = 1.0
    preference_concentration: float = 0.7
    favourite_category: Optional[str] = None
    favourite_user_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_videos <= 0 or self.num_users <= 0 or self.num_intervals <= 0:
            raise ValueError("num_videos, num_users and num_intervals must be positive")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 0.0 <= self.favourite_user_fraction <= 1.0:
            raise ValueError("favourite_user_fraction must be in [0, 1]")
        if self.favourite_category is not None and self.favourite_category not in self.categories:
            raise ValueError("favourite_category must be one of categories")


class ChallengeDatasetGenerator:
    """Generates synthetic video bitrate traces and user swipe traces."""

    def __init__(self, config: Optional[ChallengeDatasetConfig] = None) -> None:
        self.config = config if config is not None else ChallengeDatasetConfig()

    # ------------------------------------------------------------- building
    def build_catalog(self) -> VideoCatalog:
        config = self.config
        return VideoCatalog.generate(
            CatalogConfig(
                num_videos=config.num_videos,
                categories=config.categories,
                zipf_exponent=config.zipf_exponent,
                seed=config.seed,
            )
        )

    def build_preferences(self, rng: np.random.Generator) -> List[PreferenceVector]:
        """One preference vector per user, optionally biasing a user subset."""
        config = self.config
        preferences: List[PreferenceVector] = []
        num_favoured = int(round(config.favourite_user_fraction * config.num_users))
        for user_id in range(config.num_users):
            favourite = (
                config.favourite_category
                if config.favourite_category is not None and user_id < num_favoured
                else None
            )
            preferences.append(
                random_preference(
                    rng,
                    categories=config.categories,
                    concentration=config.preference_concentration,
                    favourite=favourite,
                )
            )
        return preferences

    def generate(self) -> DatasetBundle:
        """Generate the full dataset bundle."""
        config = self.config
        # Imported lazily: repro.sim pulls in modules that import this one.
        from repro.sim.rng import legacy_stream

        rng = legacy_stream(config.seed)
        catalog = self.build_catalog()
        preferences = self.build_preferences(rng)
        generator = SessionGenerator(
            catalog,
            WatchingDurationModel(),
            SessionConfig(session_duration_s=config.interval_s),
        )

        videos = [
            VideoRecord(
                video_id=video.video_id,
                category=video.category,
                duration_s=video.duration_s,
                segment_duration_s=video.segment_duration_s,
                segment_sizes_bits={
                    name: sizes.tolist() for name, sizes in video.segment_sizes.items()
                },
            )
            for video in catalog
        ]
        users = [
            UserRecord(user_id=user_id, preference=preference.as_dict())
            for user_id, preference in enumerate(preferences)
        ]

        traces: List[SwipeTraceRecord] = []
        for interval in range(config.num_intervals):
            start = interval * config.interval_s
            sessions = generator.generate_population_sessions(
                preferences, rng=rng, start_time_s=start, duration_s=config.interval_s
            )
            for records in sessions:
                for record in records:
                    traces.append(
                        SwipeTraceRecord(
                            user_id=record.user_id,
                            video_id=record.video_id,
                            category=record.category,
                            timestamp_s=record.timestamp_s,
                            watch_duration_s=record.watch_duration_s,
                            video_duration_s=record.video_duration_s,
                            swiped=record.swiped,
                        )
                    )

        metadata = {
            "interval_s": config.interval_s,
            "num_intervals": float(config.num_intervals),
            "seed": float(config.seed),
            "zipf_exponent": config.zipf_exponent,
        }
        return DatasetBundle(videos=videos, users=users, swipe_traces=traces, metadata=metadata)
