"""Unit and integration tests for reservation planning (the paper's future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AdmissionController,
    DTResourcePredictionScheme,
    ReservationPlanner,
    ReservationPolicy,
    SchemeConfig,
)
from repro.core.demand import GroupDemandPrediction
from repro.edge.server import EdgeServerConfig
from repro.placement import PlacementConfig
from repro.sim import SimulationConfig, StreamingSimulator


def make_prediction(blocks: float, cycles: float = 1e9) -> GroupDemandPrediction:
    return GroupDemandPrediction(
        group_id=0,
        member_ids=[0, 1],
        expected_traffic_bits=1e8,
        expected_engagement_s=100.0,
        expected_videos=10.0,
        radio_resource_blocks=blocks,
        computing_cycles=cycles,
        efficiency_bps_hz=2.0,
        representation_name="480p",
    )


class TestReservationPolicy:
    def test_margin_and_quantisation(self):
        policy = ReservationPolicy(margin=1.2, quantise=True)
        assert policy.radio_request(make_prediction(10.0)) == pytest.approx(12.0)
        assert policy.radio_request(make_prediction(10.1)) == pytest.approx(13.0)

    def test_floor_applies_to_tiny_predictions(self):
        policy = ReservationPolicy(margin=1.0, floor_blocks=2.0, quantise=False)
        assert policy.radio_request(make_prediction(0.1)) == pytest.approx(2.0)

    def test_outage_prediction_gets_floor(self):
        policy = ReservationPolicy(margin=1.5, floor_blocks=3.0, quantise=False)
        assert policy.radio_request(make_prediction(float("inf"))) == pytest.approx(4.5)

    def test_compute_request_scales_by_margin(self):
        policy = ReservationPolicy(margin=1.25)
        assert policy.compute_request(make_prediction(5.0, cycles=8e9)) == pytest.approx(1e10)

    def test_requests_for_all_groups(self):
        policy = ReservationPolicy(margin=1.0, quantise=False)
        predictions = {0: make_prediction(4.0), 1: make_prediction(6.0)}
        requests = policy.radio_requests(predictions)
        assert requests == {0: pytest.approx(4.0), 1: pytest.approx(6.0)}

    def test_invalid_margin(self):
        with pytest.raises(ValueError):
            ReservationPolicy(margin=0.9)

    def test_radio_request_delegates_to_blocks_request(self):
        policy = ReservationPolicy(margin=1.3, floor_blocks=2.0, quantise=True)
        for blocks in (0.1, 7.0, 49.5, float("inf")):
            assert policy.radio_request(make_prediction(blocks)) == (
                policy.blocks_request(blocks)
            )

    def test_blocks_request_on_raw_demand(self):
        policy = ReservationPolicy(margin=1.1, floor_blocks=1.0, quantise=True)
        assert policy.blocks_request(10.0) == pytest.approx(11.0)
        assert policy.blocks_request(0.0) == pytest.approx(1.0)
        assert policy.blocks_request(float("nan")) == pytest.approx(2.0)


class TestAdmissionController:
    def test_requests_within_budget_granted(self):
        controller = AdmissionController(100.0)
        result = controller.admit({0: 40.0, 1: 50.0})
        assert not result.scaled_down
        assert result.total_granted == pytest.approx(90.0)

    def test_oversubscription_scales_proportionally(self):
        controller = AdmissionController(100.0)
        result = controller.admit({0: 150.0, 1: 50.0})
        assert result.scaled_down
        assert result.total_granted == pytest.approx(100.0)
        assert result.granted[0] == pytest.approx(75.0)
        assert result.granted[1] == pytest.approx(25.0)

    def test_zero_requests(self):
        controller = AdmissionController(10.0)
        result = controller.admit({0: 0.0})
        assert result.total_granted == 0.0
        assert not result.scaled_down

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            AdmissionController(0.0)

    def test_conservation_over_random_request_sets(self):
        """Admission never grants more than requested, nor above the budget,
        and proportional scale-down keeps every group's share ratio equal."""
        rng = np.random.default_rng(99)
        for _ in range(50):
            budget = float(rng.uniform(10.0, 200.0))
            controller = AdmissionController(budget)
            requests = {
                gid: float(rng.uniform(0.0, 80.0)) for gid in range(rng.integers(1, 8))
            }
            result = controller.admit(requests)
            assert result.total_granted <= budget + 1e-9
            for gid, granted in result.granted.items():
                assert 0.0 <= granted <= requests[gid] + 1e-9
            if result.scaled_down:
                assert result.total_granted == pytest.approx(budget)
                ratios = {
                    granted / requests[gid]
                    for gid, granted in result.granted.items()
                    if requests[gid] > 1e-9
                }
                assert max(ratios) - min(ratios) < 1e-9
            else:
                assert result.granted == pytest.approx(requests)

    def test_negative_requests_clamped_to_zero(self):
        controller = AdmissionController(10.0)
        result = controller.admit({0: -5.0, 1: 4.0})
        assert result.granted[0] == 0.0
        assert result.granted[1] == pytest.approx(4.0)


class TestReservationPlanner:
    def make_scheme(self):
        sim_config = SimulationConfig(
            num_users=10,
            num_videos=30,
            interval_s=90.0,
            seed=13,
        )
        scheme_config = SchemeConfig(
            warmup_intervals=1,
            cnn_epochs=3,
            ddqn_episodes=3,
            mc_rollouts=6,
            max_groups=4,
            seed=0,
        )
        return DTResourcePredictionScheme(StreamingSimulator(sim_config), scheme_config)

    def test_planner_produces_per_interval_audit(self):
        planner = ReservationPlanner(self.make_scheme(), ReservationPolicy(margin=1.15))
        grid = planner.run(num_intervals=3)
        assert len(grid.history) == 3
        assert grid.mean_over_provisioning() >= 0.0
        assert grid.mean_under_provisioning() >= 0.0
        assert 0.0 <= grid.under_provisioned_fraction() <= 1.0

    def test_accurate_predictions_keep_overprovisioning_small(self):
        planner = ReservationPlanner(self.make_scheme(), ReservationPolicy(margin=1.15))
        grid = planner.run(num_intervals=3)
        actual_mean = np.mean(
            [sum(usage.used.values()) for usage in grid.history]
        )
        # The wasted head-room should be a modest fraction of the actual usage.
        assert grid.mean_over_provisioning() < 0.6 * actual_mean

    def test_larger_margin_reduces_underprovisioning(self):
        tight = ReservationPlanner(self.make_scheme(), ReservationPolicy(margin=1.0, quantise=False))
        generous = ReservationPlanner(self.make_scheme(), ReservationPolicy(margin=1.5, quantise=False))
        tight_grid = tight.run(num_intervals=3)
        generous_grid = generous.run(num_intervals=3)
        assert (
            generous_grid.mean_under_provisioning()
            <= tight_grid.mean_under_provisioning() + 1e-9
        )

    def test_invalid_interval_count(self):
        planner = ReservationPlanner(self.make_scheme())
        with pytest.raises(ValueError):
            planner.run(num_intervals=0)


def _placement_scheme() -> DTResourcePredictionScheme:
    """Two CPU-starved edge servers under DRR placement."""
    sim_config = SimulationConfig(
        num_users=30,
        num_videos=40,
        interval_s=90.0,
        seed=13,
        edge_servers=2,
        edge_server=EdgeServerConfig(cpu_capacity_cycles_per_s=2e7),
        placement=PlacementConfig(strategy="drr"),
    )
    scheme_config = SchemeConfig(
        warmup_intervals=1,
        cnn_epochs=2,
        ddqn_episodes=2,
        mc_rollouts=4,
        min_groups=4,
        max_groups=6,
        seed=0,
    )
    return DTResourcePredictionScheme(StreamingSimulator(sim_config), scheme_config)


def _record_intervals(scheme: DTResourcePredictionScheme) -> list:
    """Capture every interval the scheme's simulator plays from now on."""
    simulator = scheme.simulator
    played = []
    run_interval = simulator.run_interval

    def recording(grouping):
        result = run_interval(grouping)
        played.append(result)
        return result

    simulator.run_interval = recording
    return played


def _placement_outcome(result) -> tuple:
    return (
        result.interval_index,
        [event.to_record() for event in result.placement_events],
        dict(result.server_of_group),
        {gid: usage.computing_cycles for gid, usage in result.usage_by_group.items()},
        result.total_computing_cycles,
    )


def test_planner_places_from_the_twin_forecast():
    """The planner's run packs edge jobs exactly like the scheme's step loop.

    Both hand the twin's per-group computing forecast to placement before
    each interval, so reprovision events, server assignments and computing
    cycles agree interval by interval.
    """
    planned = _placement_scheme()
    planned_intervals = _record_intervals(planned)
    ReservationPlanner(planned).run(num_intervals=5)

    stepped = _placement_scheme()
    stepped_intervals = _record_intervals(stepped)
    stepped.warm_up()
    for _ in range(5):
        stepped.step()

    assert len(planned_intervals) == len(stepped_intervals) == 6
    assert [_placement_outcome(r) for r in planned_intervals] == [
        _placement_outcome(r) for r in stepped_intervals
    ]
