"""Robustness and failure-injection tests.

These exercise the degraded operating points a deployed system would hit:
users in radio outage, extremely small populations, empty digital twins for
newly-arrived users, oversubscribed reservation budgets, and severely lossy
status collection — the scheme must keep producing well-defined (if less
accurate) answers rather than crashing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DTResourcePredictionScheme, SchemeConfig
from repro.core.demand import GroupDemandPrediction
from repro.core.reservation import AdmissionController, ReservationPolicy
from repro.core.swiping import abstract_group_swiping
from repro.net import resource_blocks_for_traffic
from repro.sim import SimulationConfig, StreamingSimulator, singleton_grouping
from repro.twin.collector import CollectionPolicy


def small_scheme(sim_overrides=None, scheme_overrides=None, k_strategy="silhouette"):
    sim_options = dict(
        num_users=6,
        num_videos=20,
        interval_s=60.0,
        seed=3,
    )
    sim_options.update(sim_overrides or {})
    scheme_options = dict(
        warmup_intervals=1,
        cnn_epochs=2,
        ddqn_episodes=2,
        mc_rollouts=4,
        min_groups=2,
        max_groups=4,
        k_strategy=k_strategy,
        seed=0,
    )
    scheme_options.update(scheme_overrides or {})
    return DTResourcePredictionScheme(
        StreamingSimulator(SimulationConfig(**sim_options)),
        SchemeConfig(**scheme_options),
    )


class TestRadioOutage:
    def test_outage_group_yields_infinite_blocks_but_finite_totals(self):
        """With absurdly low transmit power every group is in outage."""
        config = SimulationConfig(
            num_users=4,
            num_videos=15,
            interval_s=60.0,
            tx_power_dbm=-100.0,
            seed=1,
        )
        simulator = StreamingSimulator(config)
        result = simulator.run_interval(singleton_grouping(simulator.user_ids()))
        blocks = [usage.resource_blocks for usage in result.usage_by_group.values()]
        assert all(np.isinf(b) or b >= 0 for b in blocks)
        # Totals skip outage groups instead of propagating inf.
        assert np.isfinite(result.total_resource_blocks)
        assert result.total_resource_blocks == sum(
            b for b in blocks if np.isfinite(b)
        )

    def test_outage_prediction_scores_zero_accuracy_not_crash(self):
        scheme = small_scheme(sim_overrides={"tx_power_dbm": -100.0})
        evaluation = scheme.run(num_intervals=1)
        assert evaluation.num_intervals == 1
        assert 0.0 <= evaluation.intervals[0].radio_accuracy <= 1.0


class TestTinyPopulations:
    def test_single_user_population(self):
        scheme = small_scheme(sim_overrides={"num_users": 1})
        result = scheme.run(num_intervals=1)
        evaluation = result.intervals[0]
        assert evaluation.grouping.num_groups == 1
        assert evaluation.actual_radio_blocks > 0.0

    def test_two_user_population(self):
        scheme = small_scheme(sim_overrides={"num_users": 2})
        result = scheme.run(num_intervals=1)
        assert result.intervals[0].grouping.num_groups in (1, 2)

    def test_more_groups_than_users_clamped(self):
        scheme = small_scheme(
            sim_overrides={"num_users": 3},
            scheme_overrides={"min_groups": 2, "max_groups": 8},
        )
        result = scheme.run(num_intervals=1)
        assert result.intervals[0].grouping.num_groups <= 3


class TestEmptyTwins:
    def test_profile_from_empty_twins_uses_smoothed_priors(self, tiny_simulator):
        """A brand-new user has no watch records; the profile must still be valid."""
        new_user = tiny_simulator.add_user()
        profile = abstract_group_swiping(
            0,
            [new_user],
            tiny_simulator.twins,
            list(tiny_simulator.config.categories),
        )
        assert profile.num_observations == 0
        assert all(0.0 <= p <= 1.0 for p in profile.swipe_probability.values())
        assert abs(sum(profile.engagement_share.values()) - 1.0) < 1e-9
        values = list(profile.cumulative_swiping.values())
        assert values[-1] == pytest.approx(1.0)

    def test_churn_heavy_run_stays_consistent(self):
        scheme = small_scheme(sim_overrides={"num_users": 8})
        scheme.warm_up()
        simulator = scheme.simulator
        rng = np.random.default_rng(0)
        for _ in range(3):
            simulator.add_user()
            simulator.remove_user(int(rng.choice(simulator.user_ids())))
            evaluation = scheme.step()
            covered = sorted(
                uid for members in evaluation.grouping.groups().values() for uid in members
            )
            assert covered == simulator.user_ids() or covered == sorted(simulator.user_ids())
            assert 0.0 <= evaluation.radio_accuracy <= 1.0


class TestLossyCollection:
    def test_extremely_lossy_collection_still_predicts(self):
        scheme = small_scheme(
            sim_overrides={
                "collection_policy": CollectionPolicy(
                    period_multiplier=30.0, drop_probability=0.9, delay_s=5.0
                )
            }
        )
        result = scheme.run(num_intervals=2)
        assert result.num_intervals == 2
        assert np.all(np.isfinite(result.predicted_radio_series()))


class TestReservationProperties:
    @given(
        blocks=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        margin=st.floats(min_value=1.0, max_value=3.0),
        floor=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_policy_request_at_least_prediction_and_floor(self, blocks, margin, floor):
        policy = ReservationPolicy(margin=margin, floor_blocks=floor, quantise=False)
        prediction = GroupDemandPrediction(
            group_id=0,
            member_ids=[0],
            expected_traffic_bits=1.0,
            expected_engagement_s=1.0,
            expected_videos=1.0,
            radio_resource_blocks=blocks,
            computing_cycles=1.0,
            efficiency_bps_hz=1.0,
            representation_name="240p",
        )
        request = policy.radio_request(prediction)
        assert request >= blocks - 1e-9
        assert request >= floor - 1e-9

    @settings(max_examples=50)
    @given(
        budget=st.floats(min_value=1.0, max_value=1e3),
        requests=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=10),
    )
    def test_admission_never_exceeds_budget_and_preserves_ratios(self, budget, requests):
        controller = AdmissionController(budget)
        request_map = dict(enumerate(requests))
        result = controller.admit(request_map)
        assert result.total_granted <= max(budget, 0.0) + 1e-6
        for gid, granted in result.granted.items():
            assert granted <= request_map[gid] + 1e-9

    @given(
        traffic=st.floats(min_value=0.0, max_value=1e12),
        efficiency=st.floats(min_value=0.0, max_value=6.0),
    )
    def test_resource_blocks_never_negative(self, traffic, efficiency):
        blocks = resource_blocks_for_traffic(
            traffic, efficiency, rb_bandwidth_hz=180e3, interval_s=300.0
        )
        assert blocks >= 0.0 or np.isinf(blocks)
