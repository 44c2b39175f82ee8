"""Tests for demand prediction and the end-to-end scheme (integration level)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DTResourcePredictionScheme, SchemeConfig, GroupDemandPredictor
from repro.core.swiping import abstract_group_swiping
from repro.sim import SimulationConfig, StreamingSimulator


@pytest.fixture(scope="module")
def module_simulator():
    """A slightly larger simulator shared by the demand/pipeline tests."""
    config = SimulationConfig(
        num_users=12,
        num_videos=40,
        interval_s=120.0,
        num_base_stations=2,
        seed=23,
    )
    simulator = StreamingSimulator(config)
    grouping = {0: simulator.user_ids()[:6], 1: simulator.user_ids()[6:]}
    simulator.run_interval(grouping)
    return simulator


class TestGroupDemandPredictor:
    def make_predictor(self, simulator, rollouts=6):
        return GroupDemandPredictor(
            simulator.catalog, simulator.config, SchemeConfig(mc_rollouts=rollouts, seed=3)
        )

    def test_prediction_fields_positive(self, module_simulator):
        sim = module_simulator
        predictor = self.make_predictor(sim)
        member_ids = sim.user_ids()[:6]
        profile = abstract_group_swiping(
            0, member_ids, sim.twins, list(sim.config.categories), 0.0, sim.config.interval_s
        )
        prediction = predictor.predict_group(profile, sim.twins, 0.0, sim.config.interval_s)
        assert prediction.expected_traffic_bits > 0.0
        assert prediction.expected_videos > 0.0
        assert prediction.expected_engagement_s > 0.0
        assert prediction.computing_cycles > 0.0
        assert np.isfinite(prediction.radio_resource_blocks)
        assert prediction.representation_name in {"240p", "360p", "480p", "720p", "1080p"}

    def test_prediction_close_to_actual_usage(self, module_simulator):
        """The predicted group traffic should be within ~35 % of what actually happened."""
        sim = module_simulator
        predictor = self.make_predictor(sim, rollouts=10)
        grouping = {0: sim.user_ids()[:6], 1: sim.user_ids()[6:]}
        predictions = {
            group_id: predictor.predict_group(
                abstract_group_swiping(
                    group_id,
                    member_ids,
                    sim.twins,
                    list(sim.config.categories),
                    0.0,
                    sim.config.interval_s,
                ),
                sim.twins,
                0.0,
                sim.config.interval_s,
            )
            for group_id, member_ids in grouping.items()
        }
        actual = sim.run_interval(grouping)
        predicted_total = GroupDemandPredictor.total_radio_blocks(predictions)
        actual_total = actual.total_resource_blocks
        assert abs(predicted_total - actual_total) / actual_total < 0.35

    def test_more_members_do_not_reduce_traffic(self, module_simulator):
        """A larger group keeps the stream alive longer, so expected traffic should not shrink."""
        sim = module_simulator
        predictor = self.make_predictor(sim)
        small_profile = abstract_group_swiping(
            0, sim.user_ids()[:2], sim.twins, list(sim.config.categories), 0.0, sim.config.interval_s
        )
        large_profile = abstract_group_swiping(
            1, sim.user_ids(), sim.twins, list(sim.config.categories), 0.0, sim.config.interval_s
        )
        small = predictor.predict_group(small_profile, sim.twins, 0.0, sim.config.interval_s)
        large = predictor.predict_group(large_profile, sim.twins, 0.0, sim.config.interval_s)
        assert large.expected_traffic_bits >= small.expected_traffic_bits * 0.8

    def test_invalid_predictor_config(self):
        """The predictor's settings are checked by the configs it reads."""
        with pytest.raises(ValueError):
            SchemeConfig(mc_rollouts=0)
        with pytest.raises(ValueError):
            SimulationConfig(interval_s=0.0)


class TestScheme:
    def make_scheme(self, k_strategy="ddqn", **overrides):
        sim_config = SimulationConfig(
            num_users=10,
            num_videos=30,
            interval_s=90.0,
            seed=31,
        )
        options = dict(
            warmup_intervals=1,
            cnn_epochs=3,
            ddqn_episodes=3,
            mc_rollouts=4,
            min_groups=2,
            max_groups=4,
            k_strategy=k_strategy,
            seed=0,
        )
        options.update(overrides)
        scheme_config = SchemeConfig(**options)
        return DTResourcePredictionScheme(StreamingSimulator(sim_config), scheme_config)

    def test_warm_up_trains_components(self):
        scheme = self.make_scheme()
        scheme.warm_up()
        assert scheme.warmed_up
        assert scheme.compressor.fitted
        assert scheme.constructor.trained

    def test_predict_before_warmup_raises(self):
        scheme = self.make_scheme()
        with pytest.raises(RuntimeError):
            scheme.predict_next_interval()

    def test_step_produces_consistent_evaluation(self):
        scheme = self.make_scheme()
        scheme.warm_up()
        evaluation = scheme.step()
        assert evaluation.predicted_radio_blocks > 0.0
        assert evaluation.actual_radio_blocks > 0.0
        assert 0.0 <= evaluation.radio_accuracy <= 1.0
        assert 0.0 <= evaluation.computing_accuracy <= 1.0
        assert set(evaluation.predictions) == set(evaluation.grouping.groups())

    def test_run_full_evaluation(self):
        scheme = self.make_scheme()
        result = scheme.run(num_intervals=3)
        assert result.num_intervals == 3
        assert result.predicted_radio_series().shape == (3,)
        assert result.actual_radio_series().shape == (3,)
        assert 0.0 <= result.mean_radio_accuracy() <= 1.0
        assert result.max_radio_accuracy() >= result.mean_radio_accuracy()

    def test_radio_accuracy_is_high(self):
        """The headline result: radio-demand prediction accuracy should be high (> 0.8 mean)."""
        scheme = self.make_scheme(mc_rollouts=8)
        result = scheme.run(num_intervals=3)
        assert result.mean_radio_accuracy() > 0.8

    def test_silhouette_strategy_also_works(self):
        scheme = self.make_scheme(k_strategy="silhouette")
        result = scheme.run(num_intervals=2)
        assert result.num_intervals == 2

    def test_fixed_strategy_uses_configured_k(self):
        scheme = self.make_scheme(k_strategy="fixed", fixed_k=3)
        scheme.warm_up()
        evaluation = scheme.step()
        assert evaluation.grouping.num_groups == 3

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            self.make_scheme(k_strategy="banana")

    def test_run_without_remaining_intervals_rejected(self):
        scheme = self.make_scheme()
        with pytest.raises(ValueError):
            scheme.run(num_intervals=0)

    def test_invalid_scheme_config(self):
        with pytest.raises(ValueError):
            SchemeConfig(min_groups=0)
        with pytest.raises(ValueError):
            SchemeConfig(mc_rollouts=0)
