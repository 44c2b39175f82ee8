"""Unit tests for the simulation substrate (clock, events, simulator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import (
    EventQueue,
    SimulationClock,
    SimulationConfig,
    StreamingSimulator,
    round_robin_grouping,
    singleton_grouping,
)
from repro.twin.attributes import CHANNEL_CONDITION


class TestClock:
    def test_interval_bounds(self):
        clock = SimulationClock(interval_s=300.0)
        assert clock.interval_bounds(2) == (600.0, 900.0)

    def test_advance_and_current_interval(self):
        clock = SimulationClock(interval_s=100.0)
        clock.advance(250.0)
        assert clock.current_interval == 2
        clock.advance_interval()
        assert clock.now_s == pytest.approx(300.0)

    @pytest.mark.parametrize("interval_s", [0.1, 45.6, 299.9])
    def test_index_advances_for_any_interval_length(self, interval_s):
        """Regression: ``now_s // interval_s`` can round a boundary down to the
        previous index, so the clock stalled (at interval 4 for 45.6 s), and
        ``i * L + L`` missed the next start ``(i + 1) * L`` in the last bit."""
        clock = SimulationClock(interval_s=interval_s)
        for index in range(2000):
            assert clock.current_interval == index
            _, end_s = clock.interval_bounds(index)
            assert clock.advance_interval() == index + 1
            start_s, _ = clock.interval_bounds(index + 1)
            assert end_s.hex() == start_s.hex() == clock.now_s.hex()

    def test_cannot_move_backwards(self):
        clock = SimulationClock()
        clock.advance(10.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        assert clock.now_s == pytest.approx(10.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SimulationClock(interval_s=0.0)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(5.0, name="b", callback=lambda: fired.append("b"))
        queue.schedule(1.0, name="a", callback=lambda: fired.append("a"))
        queue.schedule(9.0, name="c", callback=lambda: fired.append("c"))
        queue.run_until(6.0)
        assert fired == ["a", "b"]
        assert queue.now_s == pytest.approx(6.0)
        assert len(queue) == 1

    def test_ties_fire_in_insertion_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1.0, callback=lambda: fired.append("first"))
        queue.schedule(1.0, callback=lambda: fired.append("second"))
        queue.run_until(1.0)
        assert fired == ["first", "second"]

    def test_cancelled_events_do_not_fire(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1.0, callback=lambda: fired.append("x"))
        queue.cancel(event)
        queue.run_until(2.0)
        assert fired == []
        assert len(queue) == 0

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.run_until(10.0)
        with pytest.raises(ValueError):
            queue.schedule(5.0)

    def test_schedule_in_relative(self):
        queue = EventQueue()
        queue.run_until(10.0)
        event = queue.schedule_in(5.0, name="later")
        assert event.time_s == pytest.approx(15.0)

    def test_pop_advances_clock(self):
        queue = EventQueue()
        queue.schedule(3.0, name="x")
        event = queue.pop()
        assert event is not None and event.time_s == 3.0
        assert queue.now_s == pytest.approx(3.0)
        assert queue.pop() is None


class TestSingletonGrouping:
    def test_one_group_per_user(self):
        grouping = singleton_grouping([4, 7, 9])
        assert len(grouping) == 3
        assert sorted(uid for members in grouping.values() for uid in members) == [4, 7, 9]
        assert all(len(members) == 1 for members in grouping.values())


class TestRoundRobinGrouping:
    def test_deals_users_in_order_and_clamps_the_group_count(self):
        assert round_robin_grouping([4, 7, 9, 2, 5], 2) == {0: [4, 9, 5], 1: [7, 2]}
        assert round_robin_grouping([4, 7], 5) == {0: [4], 1: [7]}
        assert round_robin_grouping([4, 7], 0) == {0: [4, 7]}


class TestStreamingSimulator:
    def test_construction_builds_population(self, tiny_simulator, tiny_sim_config):
        assert len(tiny_simulator.user_ids()) == tiny_sim_config.num_users
        assert len(tiny_simulator.catalog) == tiny_sim_config.num_videos
        assert len(tiny_simulator.twins) == tiny_sim_config.num_users

    def test_run_interval_records_usage(self, tiny_simulator):
        user_ids = tiny_simulator.user_ids()
        grouping = {0: user_ids[:4], 1: user_ids[4:]}
        result = tiny_simulator.run_interval(grouping)
        assert set(result.usage_by_group) == {0, 1}
        for usage in result.usage_by_group.values():
            assert usage.traffic_bits > 0.0
            assert usage.videos_played > 0
            assert usage.computing_cycles >= 0.0
            assert np.isfinite(usage.resource_blocks)
        assert result.total_resource_blocks > 0.0
        assert result.total_computing_cycles > 0.0

    def test_run_interval_advances_clock(self, tiny_simulator, tiny_sim_config):
        grouping = singleton_grouping(tiny_simulator.user_ids())
        before = tiny_simulator.clock.current_interval
        tiny_simulator.run_interval(grouping)
        assert tiny_simulator.clock.current_interval == before + 1

    def test_twins_populated_after_interval(self, populated_simulator, tiny_sim_config):
        for uid in populated_simulator.user_ids():
            twin = populated_simulator.twins.twin(uid)
            assert len(twin.store(CHANNEL_CONDITION)) > 0
            assert twin.watch_records(), "every user should have watch records"

    def test_grouping_must_cover_all_users(self, tiny_simulator):
        user_ids = tiny_simulator.user_ids()
        with pytest.raises(ValueError):
            tiny_simulator.run_interval({0: user_ids[:3]})

    def test_grouping_must_not_duplicate_users(self, tiny_simulator):
        user_ids = tiny_simulator.user_ids()
        grouping = {0: user_ids, 1: [user_ids[0]]}
        with pytest.raises(ValueError):
            tiny_simulator.run_interval(grouping)

    def test_grouping_unknown_user_rejected(self, tiny_simulator):
        grouping = {0: tiny_simulator.user_ids() + [999]}
        with pytest.raises(ValueError):
            tiny_simulator.run_interval(grouping)

    def test_empty_group_rejected(self, tiny_simulator):
        grouping = {0: tiny_simulator.user_ids(), 1: []}
        with pytest.raises(ValueError):
            tiny_simulator.run_interval(grouping)

    def test_watch_records_respect_video_durations(self, populated_simulator):
        for records in populated_simulator.history[0].events_by_user.values():
            for record in records:
                assert record.watch_duration_s <= record.video_duration_s + 1e-9

    def test_fewer_groups_use_fewer_or_equal_radio_blocks_than_unicast(self, tiny_sim_config):
        """Multicast sharing should not need more resource blocks than unicast."""
        multicast_sim = StreamingSimulator(tiny_sim_config)
        unicast_sim = StreamingSimulator(tiny_sim_config)
        user_ids = multicast_sim.user_ids()
        multicast = multicast_sim.run_interval({0: user_ids[:4], 1: user_ids[4:]})
        unicast = unicast_sim.run_interval(singleton_grouping(user_ids))
        assert multicast.total_traffic_bits <= unicast.total_traffic_bits * 1.2

    def test_group_link_state_worst_member_rule(self, tiny_simulator):
        from repro.net.multicast import group_spectral_efficiency

        user_ids = tiny_simulator.user_ids()
        result = tiny_simulator.run_interval({0: user_ids})
        usage = result.usage_by_group[0]
        snrs = result.mean_snr_by_user
        assert set(snrs) == set(user_ids)
        assert usage.efficiency_bps_hz == group_spectral_efficiency(
            [snrs[uid] for uid in user_ids],
            implementation_loss=tiny_simulator.config.implementation_loss,
        )
        assert usage.efficiency_bps_hz >= 0.0
        assert usage.representation_name in {"240p", "360p", "480p", "720p", "1080p"}

    def test_add_user_never_reuses_a_departed_id(self):
        """Regression: ids came from ``max(live ids) + 1``, so after the
        highest-id user left, the next arrival took over their id — their
        kept twin (watch history included) and their keyed streams."""
        sim = StreamingSimulator(
            SimulationConfig(num_users=5, num_videos=20, seed=3)
        )
        sim.run_interval(singleton_grouping(sim.user_ids()))
        departed_records = sim.twins.twin(4).watch_records()
        assert departed_records
        sim.remove_user(4)
        new_id = sim.add_user()
        assert new_id == 5
        assert sim.twins.twin(new_id).watch_records() == []
        assert sim.twins.twin(4).watch_records() == departed_records
        # Auto ids keep growing past the departed one.
        assert [sim.add_user() for _ in range(3)] == [6, 7, 8]

    def test_invalid_simulation_config(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_users=0)
        with pytest.raises(ValueError):
            SimulationConfig(favourite_category="Opera")
        with pytest.raises(ValueError):
            SimulationConfig(favourite_user_fraction=1.5)
        with pytest.raises(ValueError, match="swipe_gap_s"):
            SimulationConfig(swipe_gap_s=-1.0)
        for weight in (1.5, -0.1):
            with pytest.raises(ValueError, match="recommendation_popularity_weight"):
                SimulationConfig(recommendation_popularity_weight=weight)
