"""Tests for the event-driven multi-cell RAN controller subsystem.

Covers the handover policy (hysteresis + time-to-trigger semantics), the
controller's group scoping / load balancing / event bookkeeping, the
simulator integration (``controller_mode``), and the determinism contracts:
``"boundary"`` reproduces the pre-controller per-interval totals bit-for-bit
and ``"handover"`` emits an identical event sequence for identical seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SimulationConfig, StreamingSimulator
from repro.mobility import CampusConfig
from repro.net.basestation import BaseStation, BaseStationConfig
from repro.net.controller import (
    ControllerConfig,
    RanController,
    cell_utilization,
)
from repro.net.handover import HandoverConfig, HandoverPolicy, measure_mean_snr
from repro.sim.simulator import GroupIntervalUsage, IntervalResult, singleton_grouping
from repro.twin.attributes import SERVING_CELL


def _policy(hysteresis=3.0, ttt=10.0, period=5.0) -> HandoverPolicy:
    return HandoverPolicy(
        HandoverConfig(
            hysteresis_db=hysteresis, time_to_trigger_s=ttt, sample_period_s=period
        )
    )


def _snr_tensor(serving_db, neighbour_db):
    """(T, 1 user, 2 cells) tensor from two per-time SNR traces."""
    serving = np.asarray(serving_db, dtype=np.float64)
    neighbour = np.asarray(neighbour_db, dtype=np.float64)
    return np.stack([serving, neighbour], axis=1)[:, None, :]


class TestHandoverPolicy:
    def test_triggers_after_time_to_trigger(self):
        times = np.arange(0.0, 40.0, 5.0)
        # Neighbour exceeds serving by 4 dB (> 3 dB hysteresis) from t=5 on.
        snr = _snr_tensor([10.0] * 8, [10.0, 14.0, 14.0, 14.0, 14.0, 14.0, 14.0, 14.0])
        decisions, serving, _ = _policy().evaluate(times, snr, [0], user_ids=[0])
        assert [d.time_s for d in decisions] == [15.0]
        assert decisions[0].source_index == 0 and decisions[0].target_index == 1
        assert decisions[0].margin_db == pytest.approx(4.0)
        assert serving.tolist() == [1]

    def test_hysteresis_blocks_small_margins(self):
        times = np.arange(0.0, 60.0, 5.0)
        snr = _snr_tensor([10.0] * 12, [12.0] * 12)  # margin 2 dB < 3 dB
        decisions, serving, _ = _policy().evaluate(times, snr, [0], user_ids=[0])
        assert decisions == [] and serving.tolist() == [0]

    def test_interrupted_margin_restarts_the_clock(self):
        times = np.arange(0.0, 45.0, 5.0)
        neighbour = [14.0, 14.0, 10.0, 14.0, 14.0, 14.0, 14.0, 14.0, 14.0]
        snr = _snr_tensor([10.0] * 9, neighbour)
        decisions, _, _ = _policy().evaluate(times, snr, [0], user_ids=[0])
        # Dip at t=10 resets the streak; it restarts at t=15 and fires at t=25.
        assert [d.time_s for d in decisions] == [25.0]

    def test_zero_ttt_triggers_at_first_qualifying_sample(self):
        times = np.arange(0.0, 15.0, 5.0)
        snr = _snr_tensor([10.0, 10.0, 10.0], [10.0, 15.0, 15.0])
        decisions, _, _ = _policy(ttt=0.0).evaluate(times, snr, [0], user_ids=[0])
        assert [d.time_s for d in decisions] == [5.0]

    def test_streak_persists_across_evaluation_batches(self):
        """A margin straddling two batches still completes its TTT window."""
        policy = _policy(ttt=10.0)
        # Batch 1 (one interval): margin establishes at t=25, too late to
        # complete the 10 s window before the batch ends.
        times_a = np.arange(0.0, 30.0, 5.0)
        snr_a = _snr_tensor([10.0] * 6, [10.0] * 5 + [14.0])
        decisions, serving, state = policy.evaluate(times_a, snr_a, [0], user_ids=[0])
        assert decisions == [] and serving.tolist() == [0]
        # Batch 2: the margin holds; with the carried state the window
        # completes at t=35 (10 s after t=25), not 10 s into the new batch.
        times_b = np.arange(30.0, 60.0, 5.0)
        snr_b = _snr_tensor([10.0] * 6, [14.0] * 6)
        decisions, serving, _ = policy.evaluate(times_b, snr_b, [0], user_ids=[0], state=state)
        assert [d.time_s for d in decisions] == [35.0]
        assert serving.tolist() == [1]
        # Without the carried state the trigger would land a full window
        # into the second batch instead.
        fresh_decisions, _, _ = policy.evaluate(times_b, snr_b, [0], user_ids=[0])
        assert [d.time_s for d in fresh_decisions] == [40.0]

    def test_single_cell_never_hands_over(self):
        times = np.arange(0.0, 20.0, 5.0)
        snr = np.full((4, 2, 1), 10.0)
        decisions, serving, _ = _policy().evaluate(times, snr, [0, 0], user_ids=[0, 1])
        assert decisions == [] and serving.tolist() == [0, 0]

    def test_measurement_tensor_shape_and_values(self):
        stations = [
            BaseStation(bs_id=0, position=np.array([0.0, 0.0])),
            BaseStation(bs_id=1, position=np.array([500.0, 0.0])),
        ]
        positions = np.zeros((3, 2, 2))
        positions[:, 1, 0] = 500.0  # user 1 sits on top of cell 1
        snr = measure_mean_snr(stations, positions)
        assert snr.shape == (3, 2, 2)
        # Each user is better served by the cell they stand on.
        assert np.all(snr[:, 0, 0] > snr[:, 0, 1])
        assert np.all(snr[:, 1, 1] > snr[:, 1, 0])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            HandoverConfig(hysteresis_db=-1.0)
        with pytest.raises(ValueError):
            HandoverConfig(sample_period_s=0.0)


def _two_cell_controller(**config_kwargs) -> RanController:
    stations = [
        BaseStation(
            bs_id=0,
            position=np.array([0.0, 0.0]),
            config=BaseStationConfig(num_resource_blocks=100),
        ),
        BaseStation(
            bs_id=1,
            position=np.array([800.0, 0.0]),
            config=BaseStationConfig(num_resource_blocks=100),
        ),
    ]
    return RanController(stations, ControllerConfig(**config_kwargs))


class TestRanController:
    def test_attach_detach_bookkeeping(self):
        controller = _two_cell_controller()
        controller.attach_user(0, 0)
        controller.attach_user(1, 0)
        controller.attach_user(2, 1)
        assert controller.cell_states[0].served_users == 2
        assert [uid for uid, cell in controller.serving_cell.items() if cell == 1] == [2]
        controller.detach_user(1)
        assert controller.cell_states[0].served_users == 1
        with pytest.raises(KeyError):
            controller.detach_user(99)
        with pytest.raises(KeyError):
            controller.attach_user(5, 42)

    def test_scope_grouping_splits_and_merges(self):
        controller = _two_cell_controller()
        for uid, cell in ((0, 0), (1, 0), (2, 1)):
            controller.attach_user(uid, cell)
        scoped, cell_of_group, events = controller.scope_grouping({0: [0, 1, 2]}, time_s=0.0)
        assert scoped == {0: [0, 1], 1: [2]}
        assert cell_of_group == {0: 0, 1: 1}
        assert [e.kind for e in events] == ["split"]
        assert events[0].cells == (0, 1)
        # Member 2 hands over to cell 0: the group's footprint shrinks.
        controller.attach_user(2, 0)
        scoped, cell_of_group, events = controller.scope_grouping({0: [0, 1, 2]}, time_s=300.0)
        assert scoped == {0: [0, 1, 2]} and cell_of_group == {0: 0}
        assert [e.kind for e in events] == ["merge"]
        assert events[0].previous_cells == (0, 1) and events[0].cells == (0,)

    def test_whole_group_cell_change_emits_move_event(self):
        controller = _two_cell_controller()
        controller.attach_user(0, 0)
        controller.attach_user(1, 0)
        _, _, events = controller.scope_grouping({0: [0, 1]}, time_s=0.0)
        assert events == []
        # Both members hand over: same footprint size, different cell.
        controller.attach_user(0, 1)
        controller.attach_user(1, 1)
        scoped, cell_of_group, events = controller.scope_grouping({0: [0, 1]}, time_s=300.0)
        assert [e.kind for e in events] == ["move"]
        assert events[0].previous_cells == (0,) and events[0].cells == (1,)
        assert cell_of_group == {controller.scoped_group_id(0, 1): 1}

    def test_single_cell_scoping_keeps_logical_ids(self):
        stations = [BaseStation(bs_id=0, position=np.array([0.0, 0.0]))]
        controller = RanController(stations)
        controller.attach_user(0, 0)
        controller.attach_user(1, 0)
        scoped, cell_of_group, events = controller.scope_grouping(
            {3: [0], 7: [1]}, time_s=0.0
        )
        assert scoped == {3: [0], 7: [1]}
        assert cell_of_group == {3: 0, 7: 0}
        assert events == []

    def test_rebalance_moves_budget_and_conserves_total(self):
        controller = _two_cell_controller(
            overload_threshold=0.9, underload_threshold=0.5, rebalance_fraction=0.25
        )
        events, utilization = controller.finish_interval(
            {0: 95.0, 1: 10.0}, {}, time_s=300.0
        )
        assert utilization[0] == pytest.approx(0.95)
        assert [e.overloaded for e in events] == [True, False]
        budgets = controller.rb_budget_by_cell()
        # Cell 0 is topped up to exactly the overload threshold.
        assert budgets[0] == pytest.approx(95.0 / 0.9)
        assert budgets[0] + budgets[1] == pytest.approx(200.0)
        # The returned load reports carry the pre-rebalance budgets.
        assert [(e.cell_id, e.budget_blocks) for e in events] == [(0, 100.0), (1, 100.0)]

    def test_zero_budget_cell_recovers_through_rebalancing(self):
        controller = _two_cell_controller()
        controller.set_cell_budget(0, 0.0)
        events, utilization = controller.finish_interval(
            {0: 10.0, 1: 10.0}, {0: 1}, time_s=300.0
        )
        assert utilization[0] == float("inf") and events[0].overloaded
        assert events[0].outage_groups == 1
        assert controller.rb_budget_by_cell()[0] == pytest.approx(10.0 / 0.9)
        # Total budget is conserved: what cell 0 gained, cell 1 donated.
        assert sum(controller.rb_budget_by_cell().values()) == pytest.approx(100.0)

    def test_no_rebalance_when_everyone_is_healthy(self):
        controller = _two_cell_controller()
        controller.finish_interval({0: 60.0, 1: 60.0}, {}, time_s=300.0)
        assert controller.rb_budget_by_cell() == {0: 100.0, 1: 100.0}

    def test_cell_utilization_helper(self):
        assert cell_utilization(50.0, 100.0) == pytest.approx(0.5)
        assert cell_utilization(0.0, 0.0) == 0.0
        assert cell_utilization(1.0, 0.0) == float("inf")

    def test_invalid_controller_config(self):
        with pytest.raises(ValueError):
            ControllerConfig(underload_threshold=0.9, overload_threshold=0.5)
        with pytest.raises(ValueError):
            ControllerConfig(rebalance_fraction=1.5)


def _handover_config(seed: int = 3, **overrides) -> SimulationConfig:
    options = dict(
        num_users=16,
        num_videos=30,
        interval_s=300.0,
        num_base_stations=4,
        campus=CampusConfig(width_m=1200.0, height_m=1000.0),
        controller_mode="handover",
        seed=seed,
    )
    options.update(overrides)
    return SimulationConfig(**options)


def _event_signature(result: IntervalResult):
    return [
        (e.time_s, e.user_id, e.source_cell, e.target_cell) for e in result.handover_events
    ]


class TestSimulatorIntegration:
    def test_boundary_mode_reproduces_pre_controller_totals(self):
        """Pinned per-interval totals of boundary mode (seed 123).

        Re-pinned when the keyed-stream engine became the only one; the
        controller must not change boundary-mode results.
        """
        golden = [
            (4791784758.3148, 44.37521117432454, 3650000000.0, 29.73694646560685),
            (4816390023.011119, 44.60307278997928, 3950000000.0, 25.454096200261446),
        ]
        sim = StreamingSimulator(
            SimulationConfig(
                num_users=8,
                num_videos=40,
                interval_s=120.0,
                seed=123,
                controller_mode="boundary",
            )
        )
        assert sim.controller is None
        for expected in golden:
            result = sim.run_interval(singleton_grouping(sim.user_ids()))
            observed = (
                result.total_traffic_bits,
                result.total_resource_blocks,
                result.total_computing_cycles,
                result.mean_snr_by_user[0],
            )
            assert observed == expected
            # Controller fields stay empty in boundary mode.
            assert result.handover_events == []
            assert result.cell_of_group == {}
            assert result.rb_utilization_by_cell == {}
            assert result.group_scope_events == []
            assert result.cell_load_events == []
            assert result.app_events == []

    def test_same_seed_same_handover_event_sequence(self):
        def run():
            sim = StreamingSimulator(_handover_config())
            signatures = []
            for _ in range(3):
                grouping = {0: sim.user_ids()[:8], 1: sim.user_ids()[8:]}
                signatures.append(_event_signature(sim.run_interval(grouping)))
            return sim, signatures

        first_sim, first = run()
        second_sim, second = run()
        assert first == second
        assert sum(len(s) for s in first) > 0, "scenario should produce handovers"
        # Every fired handover was applied: each handed-over user is served
        # by the target cell of their last handover.
        last_target = {uid: target for s in first for _, uid, _, target in s}
        for uid, target in last_target.items():
            assert first_sim.controller.serving_cell[uid] == target
        # Handovers are recorded in the bus firing order (time, then seq).
        times = [time_s for s in first for time_s, *_ in s]
        assert times == sorted(times)

    def test_handover_mode_records_per_cell_metrics_and_twin_attribute(self):
        sim = StreamingSimulator(_handover_config(seed=5))
        result = sim.run_interval(singleton_grouping(sim.user_ids()))
        cell_ids = [bs.bs_id for bs in sim.base_stations]
        assert set(result.rb_utilization_by_cell) == set(cell_ids)
        assert set(result.rb_budget_by_cell) == set(cell_ids)
        assert [e.cell_id for e in result.cell_load_events] == cell_ids
        for event in result.cell_load_events:
            assert event.overloaded == (
                event.utilization > sim.controller.config.overload_threshold
            )
        # Demand aggregates to per-cell totals consistent with the usage.
        assert sum(result.rb_demand_by_cell.values()) == pytest.approx(
            result.total_resource_blocks
        )
        assert set(result.cell_of_group) == set(result.usage_by_group)
        # The serving-cell attribute lands in every twin.
        for uid in sim.user_ids():
            store = sim.twins.twin(uid).store(SERVING_CELL)
            assert len(store) > 0
            assert set(store.values().ravel()).issubset(set(float(c) for c in cell_ids))

    def test_outage_groups_surface_per_cell(self):
        result = IntervalResult(interval_index=0, start_s=0.0, end_s=300.0)

        def usage(group_id, blocks):
            return GroupIntervalUsage(
                group_id=group_id,
                member_ids=[group_id],
                traffic_bits=1e6,
                efficiency_bps_hz=0.0 if not np.isfinite(blocks) else 2.0,
                representation_name="r",
                resource_blocks=blocks,
                computing_cycles=0.0,
                videos_played=1,
                engagement_seconds=1.0,
            )

        result.usage_by_group = {
            0: usage(0, 10.0),
            1: usage(1, float("inf")),
            2: usage(2, float("inf")),
        }
        result.cell_of_group = {0: 0, 1: 0, 2: 1}
        assert result.outage_groups == [1, 2]
        assert result.outage_groups_by_cell == {0: [1], 1: [2]}
        assert result.rb_demand_by_cell == {0: 10.0}

    def test_outage_metric_recorded_in_handover_mode(self):
        sim = StreamingSimulator(_handover_config(seed=7))
        result = sim.run_interval(singleton_grouping(sim.user_ids()))
        recorded = {e.cell_id: e.outage_groups for e in result.cell_load_events}
        assert set(recorded) == {bs.bs_id for bs in sim.base_stations}
        for cell_id, count in recorded.items():
            assert count == len(result.outage_groups_by_cell.get(cell_id, []))

    def test_add_and_remove_user_sync_the_controller(self):
        sim = StreamingSimulator(_handover_config(num_users=6))
        new_uid = sim.add_user()
        assert new_uid in sim.controller.serving_cell
        assert sim.controller.serving_cell[new_uid] == sim.users[new_uid].serving_bs_id
        sim.remove_user(new_uid)
        assert new_uid not in sim.controller.serving_cell
        sim.run_interval(singleton_grouping(sim.user_ids()))

    def test_invalid_controller_simulation_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(controller_mode="magic")
        with pytest.raises(ValueError):
            SimulationConfig(
                controller=ControllerConfig(handover=HandoverConfig(sample_period_s=0.0))
            )
        with pytest.raises(ValueError):
            SimulationConfig(controller=ControllerConfig(underload_threshold=0.95))
        with pytest.raises(ValueError):
            SimulationConfig(controller=ControllerConfig(rebalance_fraction=-0.1))


class TestLoadAwareHandover:
    def test_bias_discounts_overloaded_candidate(self):
        """A margin that triggers pure-SNR is suppressed by the target's bias."""
        times = np.arange(0.0, 40.0, 5.0)
        snr = _snr_tensor([10.0] * 8, [14.0] * 8)  # 4 dB > 3 dB hysteresis
        decisions, _, _ = _policy().evaluate(times, snr, [0], user_ids=[0])
        assert decisions  # sanity: fires without bias
        decisions, serving, _ = _policy().evaluate(
            times, snr, [0], user_ids=[0], cell_bias_db=[0.0, -6.0]
        )
        assert decisions == [] and serving.tolist() == [0]

    def test_bias_on_serving_cell_eases_leaving_it(self):
        """A sub-hysteresis margin fires once the serving cell is discounted."""
        times = np.arange(0.0, 40.0, 5.0)
        snr = _snr_tensor([10.0] * 8, [11.0] * 8)  # 1 dB < 3 dB hysteresis
        decisions, _, _ = _policy().evaluate(times, snr, [0], user_ids=[0])
        assert decisions == []
        decisions, serving, _ = _policy().evaluate(
            times, snr, [0], user_ids=[0], cell_bias_db=[-6.0, 0.0]
        )
        # Effective margin 1 - (-6) = 7 dB; the reported margin is biased.
        assert [d.time_s for d in decisions] == [10.0]
        assert decisions[0].margin_db == pytest.approx(7.0)
        assert serving.tolist() == [1]

    def test_zero_bias_vector_is_bit_identical_to_none(self):
        times = np.arange(0.0, 60.0, 5.0)
        rng = np.random.default_rng(3)
        snr = rng.normal(12.0, 4.0, size=(12, 3, 2))
        base = _policy().evaluate(times, snr, [0, 1, 0], user_ids=[0, 1, 2])
        biased = _policy().evaluate(
            times, snr, [0, 1, 0], user_ids=[0, 1, 2], cell_bias_db=[0.0, 0.0]
        )
        assert [d.time_s for d in base[0]] == [d.time_s for d in biased[0]]
        assert base[1].tolist() == biased[1].tolist()

    def test_bias_vector_shape_is_validated(self):
        times = np.arange(0.0, 10.0, 5.0)
        snr = _snr_tensor([10.0, 10.0], [14.0, 14.0])
        with pytest.raises(ValueError):
            _policy().evaluate(
                times, snr, [0], user_ids=[0], cell_bias_db=[0.0, 0.0, 0.0]
            )

    def test_controller_derives_bias_from_overload_state(self):
        controller = _two_cell_controller(
            handover=HandoverConfig(load_bias_db=6.0), overload_threshold=0.9
        )
        controller.attach_user(0, 0)
        assert controller.cell_bias_db().tolist() == [0.0, 0.0]
        # Cell 0 reports 95/100 blocks used -> overloaded -> discounted.
        controller.finish_interval({0: 95.0}, {}, time_s=300.0)
        assert controller.cell_bias_db().tolist() == [-6.0, 0.0]
        # An outage drill (zero budget, demand) also counts as overloaded.
        controller.set_cell_budget(1, 0.0)
        controller.finish_interval({0: 10.0, 1: 5.0}, {}, time_s=600.0)
        assert controller.cell_bias_db().tolist()[1] == -6.0

    def test_bias_disabled_returns_none(self):
        controller = _two_cell_controller()
        controller.attach_user(0, 0)
        controller.finish_interval({0: 95.0}, {}, time_s=300.0)
        assert controller.cell_bias_db() is None

    def test_load_bias_steers_users_off_a_dead_cell(self):
        """End to end: the outage drill sheds load faster with the bias on."""
        def run(load_bias_db):
            sim = StreamingSimulator(
                _handover_config(
                    num_users=24,
                    num_base_stations=4,
                    seed=11,
                    controller=ControllerConfig(
                        handover=HandoverConfig(
                            load_bias_db=load_bias_db, time_to_trigger_s=5.0
                        )
                    ),
                )
            )
            dead = max(
                sim.controller.cell_states,
                key=lambda cid: sim.controller.cell_states[cid].served_users,
            )
            sim.run_interval(singleton_grouping(sim.user_ids()))
            sim.controller.set_cell_budget(dead, 0.0)
            for _ in range(3):
                sim.run_interval(singleton_grouping(sim.user_ids()))
            return dead, sim.controller.cell_states

        dead, unbiased = run(0.0)
        dead_b, biased = run(12.0)
        assert dead == dead_b  # same seed, same hotspot
        # The biased controller leaves no more users camped on the dead cell
        # than the pure-SNR one (typically strictly fewer).
        assert biased[dead].served_users <= unbiased[dead].served_users

    def test_invalid_load_bias_config(self):
        with pytest.raises(ValueError):
            HandoverConfig(load_bias_db=-1.0)
        with pytest.raises(ValueError):
            SimulationConfig(
                controller=ControllerConfig(handover=HandoverConfig(load_bias_db=-0.5))
            )
