"""End-to-end integration tests reproducing the paper's scenario in miniature.

These tests run the full predict-then-observe loop on a small News-dominated
campus population (the Fig. 3 setting scaled down to test size) and check
the qualitative results the paper reports:

* group-level swiping profiles where News dominates engagement,
* high radio-demand prediction accuracy,
* the DT-assisted scheme beating history-only baselines when behaviour is
  non-stationary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DTResourcePredictionScheme, SchemeConfig
from repro.core.accuracy import mean_prediction_accuracy
from repro.predict import LastValuePredictor
from repro.sim import SimulationConfig, StreamingSimulator
from repro.twin.collector import CollectionPolicy


@pytest.fixture(scope="module")
def fig3_like_result():
    """Run the full scheme on a News-favoured population once for this module."""
    sim_config = SimulationConfig(
        num_users=16,
        num_videos=50,
        interval_s=150.0,
        favourite_category="News",
        favourite_user_fraction=0.85,
        favourite_boost=8.0,
        seed=42,
    )
    scheme_config = SchemeConfig(
        warmup_intervals=2,
        cnn_epochs=5,
        ddqn_episodes=8,
        mc_rollouts=8,
        min_groups=2,
        max_groups=5,
        seed=1,
    )
    scheme = DTResourcePredictionScheme(StreamingSimulator(sim_config), scheme_config)
    result = scheme.run(num_intervals=4)
    return scheme, result


class TestEndToEndScheme:
    def test_all_intervals_evaluated(self, fig3_like_result):
        _, result = fig3_like_result
        assert result.num_intervals == 4

    def test_radio_accuracy_matches_paper_shape(self, fig3_like_result):
        """The paper reports up to 95 % accuracy; we require a high mean and peak."""
        _, result = fig3_like_result
        assert result.mean_radio_accuracy() > 0.80
        assert result.max_radio_accuracy() > 0.88

    def test_computing_accuracy_reasonable(self, fig3_like_result):
        _, result = fig3_like_result
        assert result.mean_computing_accuracy() > 0.6

    def test_predictions_track_actuals(self, fig3_like_result):
        _, result = fig3_like_result
        predicted = result.predicted_radio_series()
        actual = result.actual_radio_series()
        assert np.corrcoef(predicted, actual)[0, 1] > 0.0 or np.allclose(actual, actual[0], rtol=0.1)

    def test_news_dominates_group_engagement(self, fig3_like_result):
        """Fig. 3(a): the News-favoured population watches News most."""
        scheme, _ = fig3_like_result
        totals = {}
        twins = scheme.simulator.twins
        for record in twins.watch_columns(twins.user_ids()).records():
            totals[record.category] = totals.get(record.category, 0.0) + record.watch_duration_s
        assert max(totals, key=totals.get) == "News"

    def test_cumulative_swiping_distribution_valid(self, fig3_like_result):
        _, result = fig3_like_result
        profile = next(iter(result.intervals[-1].profiles.values()))
        values = list(profile.cumulative_swiping.values())
        assert values[-1] == pytest.approx(1.0)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_groupings_are_partitions(self, fig3_like_result):
        scheme, result = fig3_like_result
        user_ids = sorted(scheme.simulator.user_ids())
        for evaluation in result.intervals:
            members = sorted(
                uid for group in evaluation.grouping.groups().values() for uid in group
            )
            assert members == user_ids

    def test_scheme_at_least_matches_last_value_baseline(self, fig3_like_result):
        """The DT scheme should not be much worse than a last-value extrapolation."""
        _, result = fig3_like_result
        actual = result.actual_radio_series()
        scheme_accuracy = result.mean_radio_accuracy()
        if len(actual) >= 3:
            baseline_predictions = LastValuePredictor().predict_series(actual, warmup=1)
            baseline_accuracy = mean_prediction_accuracy(baseline_predictions, actual[1:])
            assert scheme_accuracy > baseline_accuracy - 0.1


class TestDigitalTwinStalenessEffect:
    def _run(self, policy, seed=3):
        sim_config = SimulationConfig(
            num_users=10,
            num_videos=30,
            interval_s=100.0,
            collection_policy=policy,
            seed=seed,
        )
        scheme_config = SchemeConfig(
            warmup_intervals=1,
            cnn_epochs=3,
            ddqn_episodes=3,
            mc_rollouts=6,
            max_groups=4,
            seed=0,
        )
        scheme = DTResourcePredictionScheme(StreamingSimulator(sim_config), scheme_config)
        return scheme.run(num_intervals=3)

    def test_scheme_still_works_with_lossy_collection(self):
        result = self._run(CollectionPolicy(drop_probability=0.5, period_multiplier=4.0))
        assert result.num_intervals == 3
        assert result.mean_radio_accuracy() > 0.4

    def test_fresh_twins_not_worse_than_very_stale_twins(self):
        fresh = self._run(CollectionPolicy.perfect()).mean_radio_accuracy()
        stale = self._run(
            CollectionPolicy(drop_probability=0.8, period_multiplier=10.0)
        ).mean_radio_accuracy()
        assert fresh >= stale - 0.12
