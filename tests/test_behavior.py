"""Unit tests for the user-behaviour substrate."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavior import (
    PreferenceVector,
    SwipeProbabilityEstimator,
    WatchRecord,
    WatchingDurationModel,
    blend_engagement,
    cosine_similarity,
    random_preference,
)
from repro.behavior.swiping import expected_transmitted_fraction
from repro.sim import SimulationConfig, StreamingSimulator, singleton_grouping
from repro.video import DEFAULT_CATEGORIES
from preference_reference import reference_engagement, reference_update
from swiping_reference import record_columns


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestPreferenceVector:
    def test_normalisation(self):
        vector = PreferenceVector({"News": 2.0, "Game": 2.0})
        assert vector.weight("News") == pytest.approx(0.5)
        assert sum(vector.as_dict().values()) == pytest.approx(1.0)

    def test_negative_weights_clamped(self):
        vector = PreferenceVector({"News": -1.0, "Game": 1.0})
        assert vector.weight("News") == 0.0
        assert vector.weight("Game") == pytest.approx(1.0)

    def test_all_zero_falls_back_to_uniform(self):
        vector = PreferenceVector({"News": 0.0, "Game": 0.0})
        assert vector.weight("News") == pytest.approx(0.5)

    def test_favourite_and_least_favourite(self):
        vector = PreferenceVector({"News": 0.7, "Music": 0.2, "Game": 0.1})
        assert vector.favourite() == "News"
        assert vector.least_favourite() == "Game"

    def test_as_array_respects_requested_order(self):
        vector = PreferenceVector({"News": 0.75, "Game": 0.25})
        np.testing.assert_allclose(vector.as_array(["Game", "News"]), [0.25, 0.75])

    def test_entropy_lower_for_focused_user(self):
        focused = PreferenceVector({"News": 0.95, "Game": 0.05})
        uniform = PreferenceVector({"News": 0.5, "Game": 0.5})
        assert focused.entropy() < uniform.entropy()

    def test_empty_categories_rejected(self):
        with pytest.raises(ValueError):
            PreferenceVector({})

    def test_random_preference_with_favourite_is_biased(self, rng):
        favoured = [
            random_preference(rng, favourite="News", favourite_boost=6.0).weight("News")
            for _ in range(50)
        ]
        unbiased = [random_preference(rng).weight("News") for _ in range(50)]
        assert np.mean(favoured) > np.mean(unbiased)

    def test_cosine_similarity_bounds(self, rng):
        a = random_preference(rng)
        b = random_preference(rng)
        value = cosine_similarity(a, b)
        assert 0.0 <= value <= 1.0 + 1e-9
        assert cosine_similarity(a, a) == pytest.approx(1.0)


def _blend(table, records, learning_rate):
    """``blend_engagement`` over ``(row, column, seconds)`` records."""
    rows = np.array([row for row, _, _ in records], dtype=np.intp)
    columns = np.array([column for _, column, _ in records], dtype=np.intp)
    seconds = np.array([value for _, _, value in records], dtype=np.float64)
    blend_engagement(table, rows, columns, seconds, learning_rate)


@st.composite
def engagement_cases(draw):
    """Initial rows, each user's records in playback order, an interleaving, a rate."""
    num_categories = draw(st.integers(min_value=1, max_value=12))
    num_users = draw(st.integers(min_value=1, max_value=6))
    seconds = st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=400.0, allow_nan=False)
    )
    records = [
        draw(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=num_categories - 1), seconds),
                max_size=14,
            )
        )
        for _ in range(num_users)
    ]
    initial = [
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=num_categories,
                max_size=num_categories,
            )
        )
        for _ in range(num_users)
    ]
    order = draw(st.permutations([user for user, own in enumerate(records) for _ in own]))
    learning_rate = draw(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    )
    return num_categories, records, initial, order, learning_rate


class TestBlendEngagement:
    def test_update_moves_towards_engagement(self):
        table = np.full((1, len(DEFAULT_CATEGORIES)), 1.0 / len(DEFAULT_CATEGORIES))
        news = DEFAULT_CATEGORIES.index("News")
        before = table[0, news]
        _blend(table, [(0, news, 100.0)], learning_rate=0.5)
        assert table[0, news] > before

    def test_update_with_no_engagement_is_noop(self):
        table = np.full((2, len(DEFAULT_CATEGORIES)), 1.0 / len(DEFAULT_CATEGORIES))
        before = table.copy()
        _blend(table, [], learning_rate=0.5)
        _blend(table, [(1, 0, 0.0), (1, 3, 0.0)], learning_rate=0.5)
        assert table.tobytes() == before.tobytes()

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError, match="preference_learning_rate"):
            SimulationConfig(preference_learning_rate=1.5)

    @settings(max_examples=300, deadline=None)
    @given(case=engagement_cases())
    def test_table_equals_per_user_reference(self, case):
        """Bit for bit, row by row, whatever order the users' records interleave in."""
        num_categories, records, initial, order, learning_rate = case
        categories = tuple(f"c{index}" for index in range(num_categories))
        vectors = [PreferenceVector(dict(zip(categories, row)), categories) for row in initial]
        table = np.array([vector.as_array(categories) for vector in vectors])
        cursor = [0] * len(records)
        interleaved = []
        for user in order:
            column, seconds = records[user][cursor[user]]
            cursor[user] += 1
            interleaved.append((user, column, seconds))
        _blend(table, interleaved, learning_rate)
        for user, own in enumerate(records):
            engagement = reference_engagement(
                (categories[column], seconds) for column, seconds in own
            )
            expected = reference_update(vectors[user], categories, engagement, learning_rate)
            assert table[user].tobytes() == expected.as_array(categories).tobytes(), user


class TestWatchingDurationModel:
    def test_mean_fraction_increases_with_preference(self):
        model = WatchingDurationModel()
        assert model.mean_watched_fraction(0.8) > model.mean_watched_fraction(0.1)

    def test_mean_fraction_capped(self):
        model = WatchingDurationModel()
        assert model.mean_watched_fraction(10.0) <= 0.95

    def test_completion_probability_capped(self):
        model = WatchingDurationModel()
        assert model.completion_probability(10.0) <= 0.9

    def test_sample_within_video_duration(self, rng, small_catalog):
        model = WatchingDurationModel()
        preference = PreferenceVector({c: 1.0 for c in DEFAULT_CATEGORIES})
        for video in list(small_catalog)[:10]:
            weights = np.full(5, preference.weight(video.category))
            for duration in model.sample_watch_durations(video, weights, rng):
                assert 0.0 <= duration <= video.duration_s + 1e-9

    def test_preferred_category_watched_longer_on_average(self, rng, small_catalog):
        model = WatchingDurationModel()
        video = next(iter(small_catalog))
        loving = PreferenceVector({video.category: 1.0})
        indifferent = PreferenceVector({c: 1.0 for c in DEFAULT_CATEGORIES})
        love_mean = np.mean(
            model.sample_watch_durations(video, np.full(200, loving.weight(video.category)), rng)
        )
        meh_mean = np.mean(
            model.sample_watch_durations(
                video, np.full(200, indifferent.weight(video.category)), rng
            )
        )
        assert love_mean > meh_mean

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WatchingDurationModel(base_mean_fraction=0.0)
        with pytest.raises(ValueError):
            WatchingDurationModel(concentration=0.0)


class TestWatchRecord:
    def test_watched_fraction(self):
        record = WatchRecord(0, 1, "News", 5.0, 10.0, swiped=True)
        assert record.watched_fraction == pytest.approx(0.5)

    def test_watch_cannot_exceed_video(self):
        with pytest.raises(ValueError):
            WatchRecord(0, 1, "News", 11.0, 10.0, swiped=False)


class TestSwiping:
    def test_estimator_swipe_probability_converges(self, rng):
        estimator = SwipeProbabilityEstimator(("News", "Game"), laplace_smoothing=0.5)
        for i in range(200):
            swiped = bool(rng.random() < 0.3)
            duration = 3.0 if swiped else 10.0
            record = WatchRecord(0, i, "News", duration, 10.0, swiped=swiped)
            estimator.observe(*record_columns([record], estimator.categories))
        assert estimator.swipe_probability("News") == pytest.approx(0.3, abs=0.08)

    def test_estimator_unknown_category_raises(self):
        estimator = SwipeProbabilityEstimator(("News",))
        with pytest.raises(KeyError):
            estimator.swipe_probability("Opera")

    def test_estimator_cumulative_distribution_properties(self, rng):
        estimator = SwipeProbabilityEstimator(DEFAULT_CATEGORIES)
        for i in range(100):
            category = str(rng.choice(DEFAULT_CATEGORIES))
            watch = float(rng.uniform(1.0, 10.0))
            record = WatchRecord(0, i, category, watch, 10.0, swiped=watch < 10.0 - 1e-9)
            estimator.observe(*record_columns([record], estimator.categories))
        cumulative = estimator.cumulative_distribution()
        values = list(cumulative.values())
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0)

    def test_estimator_merge_adds_counts(self):
        a = SwipeProbabilityEstimator(("News",), laplace_smoothing=0.0)
        b = SwipeProbabilityEstimator(("News",), laplace_smoothing=0.0)
        a.observe(*record_columns([WatchRecord(0, 1, "News", 2.0, 10.0, swiped=True)], ("News",)))
        b.observe(
            *record_columns([WatchRecord(1, 2, "News", 10.0, 10.0, swiped=False)], ("News",))
        )
        merged = a.merge(b)
        assert merged.mean_watched_fraction("News") == pytest.approx(0.6)
        assert merged.swipe_probability("News") == pytest.approx(0.5)

    def test_category_watch_share_sums_to_one(self, rng):
        estimator = SwipeProbabilityEstimator(DEFAULT_CATEGORIES)
        for i in range(50):
            category = str(rng.choice(DEFAULT_CATEGORIES))
            record = WatchRecord(0, i, category, 5.0, 10.0, swiped=True)
            estimator.observe(*record_columns([record], estimator.categories))
        assert sum(estimator.category_watch_share().values()) == pytest.approx(1.0)

    def test_expected_transmitted_fraction(self):
        assert expected_transmitted_fraction(0.0, 0.5) == pytest.approx(1.0)
        assert expected_transmitted_fraction(1.0, 0.5) == pytest.approx(0.5)
        assert expected_transmitted_fraction(0.5, 0.4) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            expected_transmitted_fraction(1.5, 0.5)


def _unicast(sim: StreamingSimulator, num_intervals: int = 1):
    """Each interval's result with every user in a group of their own."""
    return [sim.run_interval(singleton_grouping(sim.user_ids())) for _ in range(num_intervals)]


class TestSessions:
    """The simulator's unicast playback: the watch records ``repro dataset``
    records, one user per group."""

    def test_session_covers_requested_duration(self):
        sim = StreamingSimulator(
            SimulationConfig(num_users=4, num_videos=30, interval_s=60.0, seed=21)
        )
        for result in _unicast(sim, 2):
            for records in result.events_by_user.values():
                assert records, "each user-interval should contain at least one viewing"
                last = records[-1]
                assert last.timestamp_s + last.watch_duration_s <= result.end_s + 1e-6
                assert last.timestamp_s < result.end_s

    def test_events_are_time_ordered(self):
        sim = StreamingSimulator(
            SimulationConfig(num_users=4, num_videos=30, interval_s=60.0, seed=21)
        )
        starts = {uid: [] for uid in sim.user_ids()}
        for result in _unicast(sim, 2):
            for uid, records in result.events_by_user.items():
                starts[uid].extend(record.timestamp_s for record in records)
        for user_starts in starts.values():
            assert user_starts == sorted(user_starts)

    def test_preferred_category_dominates_engagement(self):
        # Seed 7 and 30 videos build the ``small_catalog`` fixture's catalog.
        config = SimulationConfig(
            num_users=1,
            num_videos=30,
            interval_s=600.0,
            recommendation_popularity_weight=0.1,
            seed=7,
        )
        sim = StreamingSimulator(config)
        preference = PreferenceVector({"News": 0.9, **{c: 0.1 for c in DEFAULT_CATEGORIES[1:]}})
        sim._preferences[0] = preference.as_array(config.categories)
        (result,) = _unicast(sim)
        engagement: dict = {}
        for record in result.events_by_user[0]:
            engagement[record.category] = (
                engagement.get(record.category, 0.0) + record.watch_duration_s
            )
        assert engagement.get("News", 0.0) == max(engagement.values())

    def test_watch_cut_by_session_end_is_not_a_swipe(self):
        """Regression: the interval-final watch used to count as a swipe.

        ``swiped`` reflects the intended duration; only the recorded
        duration is capped at the interval end.
        """

        class FinishingModel(WatchingDurationModel):
            def sample_watch_durations(self, video, preference_weights, rng):
                return np.full(len(preference_weights), float(video.duration_s))

        sim = StreamingSimulator(
            SimulationConfig(num_users=1, num_videos=30, interval_s=1.0, seed=21)
        )
        sim._static = dataclasses.replace(sim._static, watching_model=FinishingModel())
        (result,) = _unicast(sim)
        records = result.events_by_user[0]
        assert len(records) == 1
        assert records[0].watch_duration_s == pytest.approx(1.0)
        assert records[0].watch_duration_s < records[0].video_duration_s
        assert not records[0].swiped
