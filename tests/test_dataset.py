"""Unit tests for the challenge-style dataset generator and loader."""

from __future__ import annotations

import numpy as np
import pytest

from repro.behavior import WatchRecord
from repro.dataset import (
    DatasetBundle,
    UserRecord,
    VideoRecord,
    generate_dataset,
    load_dataset,
    save_dataset,
    train_test_split,
)
from repro.sim import SimulationConfig
from repro.video import DEFAULT_CATEGORIES, DEFAULT_LADDER


def _config(**fields) -> SimulationConfig:
    """``repro dataset``'s settings: no favoured users, nothing learned."""
    defaults = dict(
        favourite_category=None,
        favourite_user_fraction=0.0,
        preference_learning_rate=0.0,
        popularity_update_rate=0.0,
    )
    return SimulationConfig(**{**defaults, **fields})


@pytest.fixture(scope="module")
def small_bundle():
    config = _config(num_videos=20, num_users=6, interval_s=60.0, seed=5)
    return generate_dataset(config, num_intervals=2)


class TestSchema:
    def test_video_record_roundtrip(self):
        record = VideoRecord(
            video_id=1,
            category="News",
            duration_s=12.0,
            segment_duration_s=1.0,
            segment_sizes_bits={"240p": [1000.0, 1200.0]},
        )
        assert VideoRecord.from_dict(record.to_dict()) == record

    def test_user_record_roundtrip(self):
        record = UserRecord(user_id=3, preference={"News": 0.7, "Game": 0.3})
        assert UserRecord.from_dict(record.to_dict()) == record

    def test_swipe_record_roundtrip(self):
        record = WatchRecord(
            user_id=1,
            video_id=2,
            category="Music",
            timestamp_s=10.0,
            watch_duration_s=4.0,
            video_duration_s=15.0,
            swiped=True,
        )
        trace = DatasetBundle(swipe_traces=[record]).to_dict()["swipe_traces"][0]
        assert list(trace) == [
            "user_id",
            "video_id",
            "category",
            "timestamp_s",
            "watch_duration_s",
            "video_duration_s",
            "swiped",
        ]
        loaded = DatasetBundle.from_dict({"swipe_traces": [trace]})
        assert loaded.swipe_traces == [record]

    def test_invalid_durations_rejected(self):
        with pytest.raises(ValueError):
            VideoRecord(video_id=1, category="News", duration_s=0.0, segment_duration_s=1.0)
        with pytest.raises(ValueError):
            WatchRecord(0, 0, "News", -1.0, 10.0, True, timestamp_s=0.0)

    def test_bundle_accessors(self, small_bundle):
        assert small_bundle.num_videos == 20
        assert small_bundle.num_users == 6
        assert small_bundle.num_traces == len(small_bundle.swipe_traces)
        assert set(small_bundle.categories()) <= set(DEFAULT_CATEGORIES)


class TestGenerator:
    def test_every_video_has_full_ladder_traces(self, small_bundle):
        for video in small_bundle.videos:
            assert set(video.segment_sizes_bits) == set(DEFAULT_LADDER.names())
            lengths = {len(sizes) for sizes in video.segment_sizes_bits.values()}
            assert len(lengths) == 1

    def test_every_user_has_traces(self, small_bundle):
        users_with_traces = {t.user_id for t in small_bundle.swipe_traces}
        assert users_with_traces == set(range(6))

    def test_watch_durations_bounded_by_video(self, small_bundle):
        for trace in small_bundle.swipe_traces:
            assert 0.0 <= trace.watch_duration_s <= trace.video_duration_s + 1e-9

    def test_timestamps_cover_all_intervals(self, small_bundle):
        timestamps = np.array([t.timestamp_s for t in small_bundle.swipe_traces])
        assert timestamps.min() >= 0.0
        assert timestamps.max() < 2 * 60.0

    def test_deterministic_given_seed(self):
        config = _config(num_videos=10, num_users=3, seed=9)
        a = generate_dataset(config, num_intervals=1)
        b = generate_dataset(config, num_intervals=1)
        assert a.num_traces == b.num_traces
        assert a.swipe_traces[0] == b.swipe_traces[0]

    def test_favoured_users_prefer_category(self):
        config = _config(
            num_videos=30,
            num_users=10,
            favourite_category="News",
            favourite_user_fraction=0.5,
            seed=2,
        )
        bundle = generate_dataset(config, num_intervals=1)
        favoured = [u.preference["News"] for u in bundle.users[:5]]
        others = [u.preference["News"] for u in bundle.users[5:]]
        assert np.mean(favoured) > np.mean(others)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            generate_dataset(_config(num_users=3, num_videos=10), num_intervals=0)
        with pytest.raises(ValueError):
            _config(num_users=0)
        with pytest.raises(ValueError):
            _config(favourite_category="Opera")


class TestLoader:
    def test_save_and_load_roundtrip(self, small_bundle, tmp_path):
        path = save_dataset(small_bundle, tmp_path / "dataset.json")
        loaded = load_dataset(path)
        assert loaded.num_videos == small_bundle.num_videos
        assert loaded.num_users == small_bundle.num_users
        assert loaded.num_traces == small_bundle.num_traces
        assert loaded.metadata == small_bundle.metadata

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.json")

    def test_time_split_is_chronological(self, small_bundle):
        train, test = train_test_split(small_bundle, test_fraction=0.25, by="time")
        assert train.num_traces + test.num_traces == small_bundle.num_traces
        if train.swipe_traces and test.swipe_traces:
            assert max(t.timestamp_s for t in train.swipe_traces) <= min(
                t.timestamp_s for t in test.swipe_traces
            )

    def test_user_split_disjoint(self, small_bundle):
        train, test = train_test_split(
            small_bundle, test_fraction=0.34, by="user", rng=np.random.default_rng(0)
        )
        train_users = {t.user_id for t in train.swipe_traces}
        test_users = {t.user_id for t in test.swipe_traces}
        assert train_users.isdisjoint(test_users)

    def test_user_split_requires_rng(self, small_bundle):
        with pytest.raises(ValueError, match="explicit rng"):
            train_test_split(small_bundle, test_fraction=0.34, by="user")

    def test_invalid_split_args(self, small_bundle):
        with pytest.raises(ValueError):
            train_test_split(small_bundle, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(small_bundle, by="video")
