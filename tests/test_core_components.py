"""Unit tests for the core contribution's components (pre-pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.behavior import PreferenceVector
from repro.core import (
    CompressorConfig,
    GroupingResult,
    MulticastGroupConstructor,
    UDTFeatureCompressor,
    abstract_group_swiping,
    mean_absolute_percentage_error,
    mean_prediction_accuracy,
    prediction_accuracy,
    prediction_accuracy_series,
    root_mean_squared_error,
)
from repro.core.features import summary_targets
from repro.rl.env import STATE_DIM
from repro.video import DEFAULT_CATEGORIES

from compressor_training_reference import reference_compress, reference_fit


@pytest.fixture
def rng():
    return np.random.default_rng(55)


class TestAccuracyMetrics:
    def test_perfect_prediction(self):
        assert prediction_accuracy(10.0, 10.0) == 1.0

    def test_relative_error_reduces_accuracy(self):
        assert prediction_accuracy(9.0, 10.0) == pytest.approx(0.9)
        assert prediction_accuracy(11.0, 10.0) == pytest.approx(0.9)

    def test_accuracy_clamped_at_zero(self):
        assert prediction_accuracy(100.0, 10.0) == 0.0

    def test_zero_actual_cases(self):
        assert prediction_accuracy(0.0, 0.0) == 1.0
        assert prediction_accuracy(1.0, 0.0) == 0.0

    def test_non_finite_prediction_scores_zero(self):
        assert prediction_accuracy(float("inf"), 10.0) == 0.0

    def test_series_and_mean(self):
        series = prediction_accuracy_series([9.0, 10.0], [10.0, 10.0])
        np.testing.assert_allclose(series, [0.9, 1.0])
        assert mean_prediction_accuracy([9.0, 10.0], [10.0, 10.0]) == pytest.approx(0.95)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            prediction_accuracy_series([1.0], [1.0, 2.0])

    def test_mape_and_rmse(self):
        assert mean_absolute_percentage_error([9.0, 11.0], [10.0, 10.0]) == pytest.approx(0.1)
        assert root_mean_squared_error([1.0, 3.0], [0.0, 0.0]) == pytest.approx(np.sqrt(5.0))

    def test_mape_all_zero_actuals_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0], [0.0])


class TestFeatureCompressor:
    def make_tensor(self, rng, users=20, steps=16, channels=6):
        """Two user populations with clearly different channel statistics."""
        tensor = rng.normal(size=(users, steps, channels))
        tensor[: users // 2] += 3.0
        return tensor

    def test_summary_targets_shape(self, rng):
        tensor = self.make_tensor(rng)
        assert summary_targets(tensor).shape == (20, 4 * 6)

    def test_compress_output_shape(self, rng):
        tensor = self.make_tensor(rng)
        compressor = UDTFeatureCompressor(
            CompressorConfig(num_steps=16, num_channels=6, compressed_dim=5, epochs=2)
        )
        compressor.fit(tensor)
        features = compressor.compress(tensor)
        assert features.shape == (20, 5)

    def test_unfitted_compressor_falls_back_to_statistics(self, rng):
        tensor = self.make_tensor(rng)
        compressor = UDTFeatureCompressor(
            CompressorConfig(num_steps=16, num_channels=6, compressed_dim=4)
        )
        features = compressor.compress(tensor)
        assert features.shape == (20, 4)

    def test_training_reduces_loss(self, rng):
        tensor = self.make_tensor(rng, users=32)
        compressor = UDTFeatureCompressor(
            CompressorConfig(num_steps=16, num_channels=6, compressed_dim=6, epochs=15, seed=1)
        )
        history = compressor.fit(tensor)
        assert history.train_loss[-1] < history.train_loss[0]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_fit_matches_the_hand_written_epoch_loop(self, seed):
        """Training through ``Sequential.fit`` equals the reference loop exactly.

        37 users in batches of 16 leave a partial last batch of 5.
        """
        tensor = self.make_tensor(np.random.default_rng(seed), users=37)
        config = CompressorConfig(
            num_steps=16, num_channels=6, compressed_dim=5, epochs=3, seed=seed
        )
        fitted = UDTFeatureCompressor(config)
        reference = UDTFeatureCompressor(config)
        history = fitted.fit(tensor)
        assert history.train_loss == reference_fit(reference, tensor)
        mine = fitted._network.parameters()
        theirs = reference._network.parameters()
        assert len(mine) == len(theirs)
        for param, expected in zip(mine, theirs):
            assert np.array_equal(param.value, expected.value)
        assert np.array_equal(fitted.compress(tensor), reference_compress(reference, tensor))

    def test_compressed_features_separate_populations(self, rng):
        """Users from two different populations should be separable after compression."""
        tensor = self.make_tensor(rng, users=24)
        compressor = UDTFeatureCompressor(
            CompressorConfig(num_steps=16, num_channels=6, compressed_dim=4, epochs=10, seed=2)
        )
        compressor.fit(tensor)
        features = compressor.compress(tensor)
        group_a = features[:12].mean(axis=0)
        group_b = features[12:].mean(axis=0)
        between = np.linalg.norm(group_a - group_b)
        within = np.mean(
            [np.linalg.norm(features[:12] - group_a, axis=1).mean(),
             np.linalg.norm(features[12:] - group_b, axis=1).mean()]
        )
        assert between > within

    def test_wrong_tensor_shape_rejected(self, rng):
        compressor = UDTFeatureCompressor(CompressorConfig(num_steps=16, num_channels=6))
        with pytest.raises(ValueError):
            compressor.compress(rng.normal(size=(4, 8, 6)))
        with pytest.raises(ValueError):
            compressor.compress(rng.normal(size=(4, 16)))

    def test_compression_ratio(self):
        compressor = UDTFeatureCompressor(
            CompressorConfig(num_steps=32, num_channels=12, compressed_dim=8)
        )
        assert compressor.compression_ratio == pytest.approx(48.0)


class TestGroupConstructor:
    def make_features(self, rng, clusters=3, per_cluster=8, dim=6, spread=0.3):
        centres = rng.normal(0.0, 5.0, size=(clusters, dim))
        return np.vstack([c + rng.normal(0.0, spread, size=(per_cluster, dim)) for c in centres])

    def test_fixed_k_construction(self, rng):
        features = self.make_features(rng)
        constructor = MulticastGroupConstructor(min_groups=2, max_groups=6, seed=1)
        result = constructor.construct(
            features, list(range(24)), num_groups=3, k_strategy="fixed"
        )
        assert result.num_groups == 3
        assert sorted(uid for members in result.groups().values() for uid in members) == list(range(24))
        assert result.silhouette > 0.5

    def test_silhouette_strategy_finds_true_k(self, rng):
        features = self.make_features(rng, clusters=3)
        constructor = MulticastGroupConstructor(min_groups=2, max_groups=6, seed=1)
        result = constructor.construct(features, list(range(24)), k_strategy="silhouette")
        assert result.num_groups == 3

    def test_ddqn_strategy_produces_valid_grouping(self, rng):
        features = self.make_features(rng)
        constructor = MulticastGroupConstructor(min_groups=2, max_groups=5, seed=3)
        constructor.train(snapshots=[features], episodes=3)
        result = constructor.construct(features, list(range(24)), k_strategy="ddqn")
        assert 2 <= result.num_groups <= 5
        assert set(result.groups()) == set(range(result.num_groups)) or all(
            0 <= label < result.num_groups for label in result.labels
        )

    def test_k_capped_by_population_size(self, rng):
        features = rng.normal(size=(3, 4))
        constructor = MulticastGroupConstructor(min_groups=2, max_groups=8, seed=0)
        result = constructor.construct(features, [0, 1, 2], num_groups=8, k_strategy="fixed")
        assert result.num_groups <= 3

    def test_mismatched_lengths_rejected(self, rng):
        constructor = MulticastGroupConstructor()
        with pytest.raises(ValueError):
            constructor.construct(rng.normal(size=(5, 3)), [0, 1, 2], num_groups=2, k_strategy="fixed")

    def test_fixed_strategy_requires_num_groups(self, rng):
        constructor = MulticastGroupConstructor()
        with pytest.raises(ValueError):
            constructor.construct(rng.normal(size=(5, 3)), list(range(5)), k_strategy="fixed")

    def test_unknown_strategy_rejected(self, rng):
        constructor = MulticastGroupConstructor()
        with pytest.raises(ValueError):
            constructor.construct(rng.normal(size=(5, 3)), list(range(5)), k_strategy="magic")

    def test_train_requires_snapshots(self):
        constructor = MulticastGroupConstructor(min_groups=2, max_groups=5, seed=3)
        with pytest.raises(ValueError, match="snapshots must not be empty"):
            constructor.train(snapshots=[], episodes=1)
        assert not constructor.trained

    def test_train_replays_the_snapshots_for_each_episode(self, rng):
        features = self.make_features(rng)
        constructor = MulticastGroupConstructor(min_groups=2, max_groups=5, seed=3)
        result = constructor.train(snapshots=[features, features[:12]], episodes=3)
        assert constructor.trained
        assert result.num_episodes == 3
        assert len(result.episode_lengths) == 3

    def test_reward_and_network_settings(self):
        constructor = MulticastGroupConstructor(min_groups=2, max_groups=6, seed=1)
        config = constructor.env_config
        assert (config.min_groups, config.max_groups, config.seed) == (2, 6, 1)
        assert (config.similarity_weight, config.resource_weight) == (1.0, 0.35)
        assert config.kmeans_restarts == 2
        shapes = [param.shape for param in constructor.agent.online.parameters()]
        assert shapes == [(STATE_DIM, 32), (32,), (32, 32), (32,), (32, 5), (5,)]

    def test_grouping_result_groups(self, rng):
        result = GroupingResult(
            user_ids=[10, 11, 12],
            labels=np.array([0, 1, 0]),
            centroids=np.zeros((2, 3)),
            num_groups=2,
            silhouette=0.5,
        )
        assert result.groups() == {0: [10, 12], 1: [11]}
        assert result.group_sizes() == {0: 2, 1: 1}


class TestSwipingAbstractionAndRecommendation:
    def test_abstract_group_swiping_profile(self, populated_simulator):
        sim = populated_simulator
        user_ids = sim.user_ids()
        profile = abstract_group_swiping(
            0, user_ids[:4], sim.twins, list(sim.config.categories), start_s=0.0, end_s=sim.config.interval_s
        )
        assert profile.num_observations > 0
        assert set(profile.swipe_probability) == set(sim.config.categories)
        for value in profile.swipe_probability.values():
            assert 0.0 <= value <= 1.0
        cumulative = list(profile.cumulative_swiping.values())
        assert cumulative[-1] == pytest.approx(1.0)
        assert 0.0 < profile.mean_watch_duration_s

    def test_abstract_group_requires_members(self, populated_simulator):
        with pytest.raises(ValueError):
            abstract_group_swiping(0, [], populated_simulator.twins, list(DEFAULT_CATEGORIES))

    def test_recommender_sampling_distribution_normalised(self, small_catalog):
        preference = PreferenceVector({"News": 1.0})
        distribution = small_catalog.sampling_probabilities(preference, 0.5)
        assert distribution.sum() == pytest.approx(1.0)

    def test_preference_only_recommendation_prefers_favourite_category(self, small_catalog):
        preference = PreferenceVector({"News": 0.99, **{c: 0.01 for c in DEFAULT_CATEGORIES[1:]}})
        video_ids = small_catalog.sampling_arrays()[0]
        probabilities = small_catalog.sampling_probabilities(preference, 0.0)
        # The five most likely videos, ties broken by id.
        top = sorted(zip(video_ids.tolist(), probabilities), key=lambda item: (-item[1], item[0]))
        categories = [small_catalog.get(vid).category for vid, _ in top[:5]]
        expected_news = min(5, len(small_catalog.by_category("News")))
        assert categories.count("News") >= expected_news
