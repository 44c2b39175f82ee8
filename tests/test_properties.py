"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.behavior import PreferenceVector, WatchRecord, SwipeProbabilityEstimator
from repro.behavior.swiping import expected_transmitted_fraction
from repro.cluster import KMeansPlusPlus, silhouette_score
from repro.core.accuracy import prediction_accuracy
from repro.net import resource_blocks_for_traffic, spectral_efficiency
from repro.rl import ReplayBuffer
from repro.twin import AttributeSpec, UserDigitalTwin
from repro.video import DEFAULT_CATEGORIES, zipf_weights
from swiping_reference import record_columns


# ----------------------------------------------------------------- strategies
finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)
small_counts = st.integers(min_value=1, max_value=50)


class TestZipfProperties:
    @given(n=st.integers(min_value=1, max_value=500), exponent=st.floats(min_value=0.0, max_value=3.0))
    def test_weights_normalised_and_decreasing(self, n, exponent):
        weights = zipf_weights(n, exponent)
        assert weights.shape == (n,)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) <= 1e-12)
        assert np.all(weights > 0)


class TestPreferenceProperties:
    @given(
        values=st.dictionaries(
            st.sampled_from(list(DEFAULT_CATEGORIES)),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
        )
    )
    def test_vector_always_normalised(self, values):
        vector = PreferenceVector(values)
        weights = vector.as_array()
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights >= 0.0)
        assert vector.favourite() in vector.categories


class TestAccuracyProperties:
    @given(predicted=finite_floats, actual=finite_floats)
    def test_accuracy_always_in_unit_interval(self, predicted, actual):
        value = prediction_accuracy(predicted, actual)
        assert 0.0 <= value <= 1.0

    @given(actual=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
    def test_exact_prediction_is_perfect(self, actual):
        assert prediction_accuracy(actual, actual) == 1.0

    @given(actual=positive_floats, error=st.floats(min_value=0.0, max_value=10.0))
    def test_accuracy_decreases_with_relative_error(self, actual, error):
        closer = prediction_accuracy(actual * (1.0 + error / 2.0), actual)
        farther = prediction_accuracy(actual * (1.0 + error), actual)
        assert closer >= farther - 1e-12


#: The link settings ``SimulationConfig`` defaults to.
LINK = {"rb_bandwidth_hz": 180e3, "interval_s": 300.0}


class TestRadioProperties:
    @given(
        traffic=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        extra=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        efficiency=st.floats(min_value=0.1, max_value=6.0),
    )
    def test_resource_blocks_monotone_in_traffic(self, traffic, extra, efficiency):
        low = resource_blocks_for_traffic(traffic, efficiency, **LINK)
        high = resource_blocks_for_traffic(traffic + extra, efficiency, **LINK)
        assert high >= low >= 0.0

    @given(
        traffic=st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
        efficiency=st.floats(min_value=0.1, max_value=5.0),
        boost=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_resource_blocks_antitone_in_efficiency(self, traffic, efficiency, boost):
        worse = resource_blocks_for_traffic(traffic, efficiency, **LINK)
        better = resource_blocks_for_traffic(traffic, efficiency + boost, **LINK)
        assert better <= worse + 1e-9

    @given(snr_a=st.floats(min_value=-30.0, max_value=40.0), delta=st.floats(min_value=0.0, max_value=40.0))
    def test_spectral_efficiency_monotone_in_snr(self, snr_a, delta):
        assert spectral_efficiency(snr_a + delta) >= spectral_efficiency(snr_a)

    @given(snr=st.floats(min_value=-50.0, max_value=60.0))
    def test_spectral_efficiency_bounded(self, snr):
        value = spectral_efficiency(snr)
        assert 0.0 <= value <= 5.5547


class TestSwipingProperties:
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        m=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_expected_transmitted_fraction_bounds(self, p, m):
        value = expected_transmitted_fraction(p, m)
        assert min(m, 1.0) - 1e-12 <= value <= 1.0 + 1e-12

    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(list(DEFAULT_CATEGORIES)),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=0,
            max_size=60,
        )
    )
    def test_estimator_outputs_are_probabilities(self, records):
        estimator = SwipeProbabilityEstimator(DEFAULT_CATEGORIES)
        for category, fraction in records:
            watch = fraction * 10.0
            record = WatchRecord(0, 0, category, watch, 10.0, swiped=watch < 10.0 - 1e-9)
            estimator.observe(*record_columns([record], estimator.categories))
        for value in estimator.swipe_distribution().values():
            assert 0.0 <= value <= 1.0
        share = estimator.category_watch_share()
        assert sum(share.values()) == pytest.approx(1.0)
        cumulative = list(estimator.cumulative_distribution().values())
        assert all(b >= a - 1e-12 for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] == pytest.approx(1.0)


class TestTimeSeriesProperties:
    @given(
        values=st.lists(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=1, max_size=40)
    )
    def test_resample_values_come_from_appended_samples(self, values):
        store = UserDigitalTwin(0, {"x": AttributeSpec("x", 1, 1.0)}).store("x")
        for index, value in enumerate(values):
            store.append_batch([float(index)], [[value]])
        query = np.linspace(0.0, len(values) + 5.0, 17)
        resampled = np.empty((query.shape[0], 1))
        store.resample_into(query, resampled)
        resampled = resampled[:, 0]
        assert set(np.round(resampled, 9)).issubset(set(np.round(values, 9)))


class TestClusteringProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        points=arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(min_value=4, max_value=30), st.integers(min_value=2, max_value=5)),
            elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        ),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_kmeans_partition_invariants(self, points, k):
        k = min(k, points.shape[0])
        result = KMeansPlusPlus(k, restarts=1).fit(points, rng=np.random.default_rng(0))
        assert result.labels.shape == (points.shape[0],)
        assert np.all(result.labels >= 0) and np.all(result.labels < k)
        assert result.inertia >= 0.0
        assert np.bincount(result.labels, minlength=k).sum() == points.shape[0]
        score = silhouette_score(points, result.labels)
        assert -1.0 <= score <= 1.0


class TestReplayAndBudgetProperties:
    @given(capacity=st.integers(min_value=1, max_value=50), pushes=st.integers(min_value=0, max_value=200))
    def test_replay_buffer_never_exceeds_capacity(self, capacity, pushes):
        buffer = ReplayBuffer(capacity)
        for i in range(pushes):
            buffer.push(np.array([float(i)]), 0, 0.0, np.array([0.0]), False)
        assert len(buffer) == min(capacity, pushes)
