"""Tests for predictive edge placement (:mod:`repro.placement`).

Covers the demand forecaster, the DRR/first-fit packing planner, the edge
fleet (including bit-identical single-server routing), the mispredict →
reprovision lifecycle, the horizon reservation planner, the spec/compile
wiring, and the ``edge_flash_crowd`` scenario end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.edge.server import EdgeServer, EdgeServerConfig
from repro.placement import (
    DemandForecaster,
    DemandSeries,
    DemandShock,
    EdgeFleet,
    HorizonReservationPlanner,
    PlacementConfig,
    PlacementManager,
    PlacementPlanner,
    ServerCapacity,
    fragmentation_index,
)
from repro.core.reservation import ReservationPolicy
from repro.scenario import (
    EdgeSpec,
    PlacementSpec,
    ScenarioSpec,
    compile_spec,
    run_scenario,
)
from repro.video import DEFAULT_LADDER


def series(cpu: float, cache: float = 0.0, horizon: int = 1) -> DemandSeries:
    return DemandSeries(
        cpu_cycles=(cpu,) * horizon, cache_bytes=(cache,) * horizon
    )


# --------------------------------------------------------------- forecaster
class TestDemandSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            DemandSeries(cpu_cycles=(), cache_bytes=())
        with pytest.raises(ValueError):
            DemandSeries(cpu_cycles=(1.0, 2.0), cache_bytes=(1.0,))
        with pytest.raises(ValueError):
            DemandSeries(cpu_cycles=(-1.0,), cache_bytes=(0.0,))

    def test_peaks(self):
        s = DemandSeries(cpu_cycles=(1.0, 3.0, 2.0), cache_bytes=(5.0, 4.0, 6.0))
        assert s.horizon == 3
        assert s.peak_cpu_cycles == 3.0
        assert s.peak_cache_bytes == 6.0


class TestDemandForecaster:
    def test_unknown_group_forecasts_prior(self):
        forecaster = DemandForecaster(prior_cycles=123.0, prior_bytes=7.0)
        forecast = forecaster.forecast(0, horizon=2)
        assert forecast.cpu_cycles == (123.0, 123.0)
        assert forecast.cache_bytes == (7.0, 7.0)

    def test_converges_to_stable_demand(self):
        forecaster = DemandForecaster(alpha=0.5, beta=0.3)
        for _ in range(20):
            forecaster.observe(0, 100.0, 50.0)
        forecast = forecaster.forecast(0, horizon=1)
        assert forecast.cpu_cycles[0] == pytest.approx(100.0, rel=1e-3)
        assert forecast.cache_bytes[0] == pytest.approx(50.0, rel=1e-3)

    def test_trend_extends_over_horizon(self):
        forecaster = DemandForecaster(alpha=0.5, beta=0.5)
        for value in (100.0, 200.0, 300.0, 400.0):
            forecaster.observe(0, value, 0.0)
        forecast = forecaster.forecast(0, horizon=3)
        assert forecast.cpu_cycles[2] > forecast.cpu_cycles[0]

    def test_external_overrides_level_and_is_consumed(self):
        forecaster = DemandForecaster()
        forecaster.observe(0, 100.0, 0.0)
        forecaster.set_external({0: 900.0})
        assert forecaster.forecast(0, horizon=1).cpu_cycles[0] == 900.0
        forecaster.observe(0, 100.0, 0.0)
        assert forecaster.forecast(0, horizon=1).cpu_cycles[0] != 900.0

    def test_non_finite_external_dropped(self):
        forecaster = DemandForecaster(prior_cycles=42.0)
        forecaster.set_external({0: float("inf"), 1: float("nan"), 2: 5.0})
        assert forecaster.forecast(0, horizon=1).cpu_cycles[0] == 42.0
        assert forecaster.forecast(1, horizon=1).cpu_cycles[0] == 42.0
        assert forecaster.forecast(2, horizon=1).cpu_cycles[0] == 5.0

    def test_relative_error_floor(self):
        forecaster = DemandForecaster()
        assert forecaster.relative_error(0.0, 0.0) == 0.0
        assert forecaster.relative_error(100.0, 50.0) == pytest.approx(0.5)
        assert forecaster.relative_error(0.0, 0.5) == pytest.approx(0.5)

    def test_forget_drops_history(self):
        forecaster = DemandForecaster(prior_cycles=42.0)
        forecaster.observe(3, 1000.0, 0.0)
        forecaster.forget(3)
        assert forecaster.observations(3) == 0
        assert forecaster.forecast(3, horizon=1).cpu_cycles[0] == 42.0


# ------------------------------------------------------------------ planner
class TestPlacementPlanner:
    CAPS = [ServerCapacity(cpu_cycles_per_interval=1000.0, cache_bytes=1000.0)] * 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            PlacementPlanner(self.CAPS, strategy="worst_fit")

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ServerCapacity(cpu_cycles_per_interval=0.0, cache_bytes=1.0)

    def test_drr_balances_first_fit_piles(self):
        demands = {jid: series(300.0) for jid in range(3)}
        drr = PlacementPlanner(self.CAPS, strategy="drr").pack(demands)
        first_fit = PlacementPlanner(self.CAPS, strategy="first_fit").pack(demands)
        assert set(drr.values()) == {0, 1}, "drr must spread over both servers"
        assert set(first_fit.values()) == {0}, "first-fit piles onto server 0"

    def test_drr_places_largest_jobs_first(self):
        demands = {0: series(100.0), 1: series(800.0), 2: series(700.0)}
        assignment = PlacementPlanner(self.CAPS, strategy="drr").pack(demands)
        assert assignment[1] != assignment[2], "the two big jobs must split"

    def test_pinned_jobs_keep_their_server(self):
        demands = {0: series(300.0), 1: series(300.0)}
        assignment = PlacementPlanner(self.CAPS, strategy="drr").pack(
            demands, pinned={0: 1}
        )
        assert assignment[0] == 1

    def test_first_fit_overflows_to_least_loaded(self):
        demands = {0: series(900.0), 1: series(900.0), 2: series(900.0)}
        assignment = PlacementPlanner(self.CAPS, strategy="first_fit").pack(demands)
        assert set(assignment.values()) == {0, 1}, "overflow must not re-pile"

    def test_place_one_avoids_loaded_server(self):
        planner = PlacementPlanner(self.CAPS, strategy="drr")
        demands = {0: series(900.0), 1: series(100.0), 2: series(500.0)}
        target = planner.place_one(
            series(900.0), demands, {0: 0, 1: 1, 2: 0}, exclude=0
        )
        assert target == 1

    def test_fragmentation_index_properties(self):
        assert fragmentation_index([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0)
        balanced = fragmentation_index([0.45, 0.45], [0.45, 0.45])
        piled = fragmentation_index([0.9, 0.0], [0.9, 0.0])
        assert balanced < piled
        with pytest.raises(ValueError):
            fragmentation_index([], [])
        with pytest.raises(ValueError):
            fragmentation_index([0.5], [0.5, 0.5])


# -------------------------------------------------------------------- fleet
class TestEdgeFleet:
    def make_requests(self, catalog):
        videos = list(catalog)[:4]
        target = DEFAULT_LADDER.by_name("360p")
        return {
            0: [(videos[0], target, 5.0), (videos[1], target, 10.0)],
            1: [(videos[2], target, 5.0)],
            2: [(videos[3], target, 8.0)],
        }

    def test_single_server_fleet_matches_direct_server(self, small_catalog):
        config = EdgeServerConfig(cache_capacity_gbytes=50.0)
        direct = EdgeServer(small_catalog, config)
        direct.warm_cache()
        fleet = EdgeFleet(small_catalog, [config])
        fleet.warm_caches()
        requests = self.make_requests(small_catalog)
        expected = direct.process_interval(0, requests, time_s=0.0)
        usage = fleet.process_interval(0, requests, assignment=None, time_s=0.0)
        assert usage.cycles_by_group == expected.cycles_by_group
        assert usage.cache_misses == expected.cache_misses
        assert usage.server_of_group == {0: 0, 1: 0, 2: 0}

    def test_total_cycles_independent_of_assignment(self, small_catalog):
        config = EdgeServerConfig(cache_capacity_gbytes=50.0)
        requests = self.make_requests(small_catalog)
        totals = []
        for assignment in (None, {0: 0, 1: 1, 2: 2}, {0: 2, 1: 2, 2: 0}):
            fleet = EdgeFleet(small_catalog, [config] * 3)
            fleet.warm_caches()
            usage = fleet.process_interval(0, requests, assignment=assignment)
            totals.append(usage.total_cycles)
        assert totals[0] == pytest.approx(totals[1]) == pytest.approx(totals[2])

    def test_assignment_routes_modulo_fleet_size(self, small_catalog):
        fleet = EdgeFleet(small_catalog, [EdgeServerConfig()] * 2)
        fleet.warm_caches()
        usage = fleet.process_interval(
            0, self.make_requests(small_catalog), assignment={0: 0, 1: 1, 2: 5}
        )
        assert usage.server_of_group == {0: 0, 1: 1, 2: 1}
        assert sum(u.total_cycles for u in usage.usage_by_server.values()) == (
            pytest.approx(usage.total_cycles)
        )

    def test_cache_bytes_counts_distinct_videos(self, small_catalog):
        fleet = EdgeFleet(small_catalog, [EdgeServerConfig()])
        video = list(small_catalog)[0]
        target = DEFAULT_LADDER.by_name("360p")
        usage = fleet.process_interval(
            0, {0: [(video, target, 5.0), (video, target, 3.0)]}
        )
        from repro.edge.cache import video_size_bytes

        assert usage.cache_bytes_by_group[0] == pytest.approx(
            video_size_bytes(video)
        )

    def test_empty_fleet_rejected(self, small_catalog):
        with pytest.raises(ValueError):
            EdgeFleet(small_catalog, [])


# ------------------------------------------------------------------ manager
class TestPlacementManager:
    CAPS = [ServerCapacity(cpu_cycles_per_interval=1000.0, cache_bytes=1000.0)] * 2

    def make_manager(self, **overrides) -> PlacementManager:
        config = PlacementConfig(
            strategy="drr", horizon_intervals=2, mispredict_threshold=0.5, **overrides
        )
        return PlacementManager(self.CAPS, config)

    def run_interval(self, manager, index, cycles):
        manager.begin_interval(index, sorted(cycles))
        return manager.observe_interval(
            index, cycles, {gid: 0.0 for gid in cycles}, time_s=float(index)
        )

    def test_cold_start_never_reprovisions(self):
        manager = self.make_manager()
        events = self.run_interval(manager, 0, {0: 100.0, 1: 200.0})
        assert events == []

    def test_mispredict_fires_event_after_history(self):
        manager = self.make_manager()
        self.run_interval(manager, 0, {0: 100.0})
        assert self.run_interval(manager, 1, {0: 100.0}) == []
        events = self.run_interval(manager, 2, {0: 2000.0})
        assert len(events) == 1
        event = events[0]
        assert event.group_id == 0
        assert event.relative_error > 0.5
        assert event.observed_cycles == 2000.0
        record = event.to_record()
        assert record["type"] == "reprovision"
        assert json.loads(json.dumps(record)) == record
        assert manager.total_reprovisions() == 1

    def test_reprovision_disabled_stays_silent(self):
        manager = self.make_manager(reprovision=False)
        self.run_interval(manager, 0, {0: 100.0})
        self.run_interval(manager, 1, {0: 100.0})
        assert self.run_interval(manager, 2, {0: 2000.0}) == []
        assert manager.total_reprovisions() == 0

    def test_assignment_is_sticky_across_intervals(self):
        manager = self.make_manager()
        first = manager.begin_interval(0, [0, 1])
        manager.observe_interval(0, {0: 100.0, 1: 100.0}, {0: 0.0, 1: 0.0}, 0.0)
        second = manager.begin_interval(1, [0, 1])
        assert second == first

    def test_vanished_groups_are_dropped(self):
        manager = self.make_manager()
        manager.begin_interval(0, [0, 1])
        manager.observe_interval(0, {0: 100.0}, {0: 0.0}, 0.0)
        assert set(manager.assignment) == {0}

    def test_external_forecast_feeds_placement(self):
        manager = self.make_manager()
        manager.set_forecast({7: 456.0})
        manager.begin_interval(0, [7])
        assert manager._placed_forecast[7].cpu_cycles[0] == 456.0

    def test_events_fire_on_the_bus(self):
        manager = self.make_manager()
        self.run_interval(manager, 0, {0: 100.0})
        self.run_interval(manager, 1, {0: 100.0})
        captured = []
        original = manager.events.schedule

        def spying_schedule(*args, **kwargs):
            captured.append(kwargs)
            return original(*args, **kwargs)

        manager.events.schedule = spying_schedule
        events = self.run_interval(manager, 2, {0: 2000.0})
        assert len(captured) == 1
        assert captured[0]["name"] == "reprovision"
        assert captured[0]["payload"] is events[0]
        assert len(manager.events) == 0, "observe_interval drains the bus"
        assert manager.event_log[-len(events):] == events


# ------------------------------------------------------------------ horizon
class TestHorizonReservationPlanner:
    def make_planner(self, shocks=(), **kwargs) -> HorizonReservationPlanner:
        defaults = dict(
            num_cells=2,
            budget_blocks=100.0,
            num_users=20,
            lead_intervals=2,
            policy=ReservationPolicy(margin=1.1),
        )
        defaults.update(kwargs)
        return HorizonReservationPlanner(shocks, **defaults)

    def test_plan_books_every_future_cell(self):
        planner = self.make_planner()
        planner.observe(0, {0: 40.0, 1: 20.0})
        bookings = planner.plan(0)
        assert {(b.for_interval, b.cell) for b in bookings} == {
            (1, 0),
            (1, 1),
            (2, 0),
            (2, 1),
        }
        for booking in bookings:
            assert booking.granted_blocks <= 100.0
            record = booking.to_record()
            assert record["type"] == "reservation_booking"
            assert json.loads(json.dumps(record)) == record

    def test_flash_crowd_scales_the_booking_up(self):
        shock = DemandShock(interval=2, kind="flash_crowd", magnitude=20.0)
        planner = self.make_planner(shocks=(shock,))
        planner.observe(0, {0: 40.0, 1: 40.0})
        bookings = {(b.for_interval, b.cell): b for b in planner.plan(0)}
        calm, surged = bookings[(1, 0)], bookings[(2, 0)]
        assert surged.requested_blocks > calm.requested_blocks
        assert surged.reasons == ("flash_crowd",)
        assert calm.reasons == ()

    def test_zero_budget_cell_granted_nothing(self):
        shock = DemandShock(
            interval=1, kind="cell_outage", cell=0, budget_blocks=0.0
        )
        planner = self.make_planner(shocks=(shock,))
        planner.observe(0, {0: 40.0, 1: 40.0})
        bookings = {(b.for_interval, b.cell): b for b in planner.plan(0)}
        dead = bookings[(1, 0)]
        assert dead.granted_blocks == 0.0
        assert dead.scaled_down

    def test_observe_audits_booked_intervals(self):
        planner = self.make_planner()
        planner.observe(0, {0: 40.0, 1: 20.0})
        planner.plan(0)
        planner.observe(1, {0: 45.0, 1: 25.0})
        assert len(planner.audit.history) == 1
        assert planner.audit.history[0].interval_index == 1
        summary = planner.summary()
        assert summary["total_bookings"] == 4
        assert json.loads(json.dumps(summary)) == summary

    def test_unknown_shock_kind_rejected(self):
        with pytest.raises(ValueError):
            DemandShock(interval=0, kind="meteor_strike")


# ------------------------------------------------------------- spec wiring
class TestSpecWiring:
    def test_multi_server_requires_strategy(self):
        with pytest.raises(ValueError):
            compile_spec(ScenarioSpec(name="x", edge=EdgeSpec(num_servers=3)))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            compile_spec(ScenarioSpec(name="x", edge=EdgeSpec(num_servers=0)))
        with pytest.raises(ValueError):
            compile_spec(
                ScenarioSpec(name="x", placement=PlacementSpec(strategy="round_robin"))
            )
        with pytest.raises(ValueError):
            PlacementSpec(reservation_lead_intervals=-1)
        with pytest.raises(ValueError):
            PlacementSpec(reservation_margin=0.5)

    def test_compile_maps_edge_and_placement_fields(self):
        spec = ScenarioSpec(
            name="x",
            edge=EdgeSpec(
                num_servers=3,
                cache_capacity_gbytes=2.0,
                cpu_capacity_cycles_per_s=3.0e9,
            ),
            placement=PlacementSpec(
                strategy="first_fit",
                horizon_intervals=4,
                mispredict_threshold=0.25,
                reprovision=False,
            ),
        )
        config = compile_spec(spec).sim_config
        assert config.edge_servers == 3
        assert config.edge_server.cache_capacity_gbytes == 2.0
        assert config.edge_server.cpu_capacity_cycles_per_s == 3.0e9
        assert config.placement == PlacementConfig(
            strategy="first_fit",
            horizon_intervals=4,
            mispredict_threshold=0.25,
            reprovision=False,
        )

    def test_default_spec_compiles_single_server_no_placement(self):
        config = compile_spec(ScenarioSpec(name="x")).sim_config
        assert config.edge_servers == 1
        assert config.placement.strategy is None

    def test_placement_reachable_via_override(self):
        result = run_scenario(
            "multicell_campus",
            {
                "placement.strategy": "first_fit",
                "edge.num_servers": 2,
                "num_intervals": 1,
            },
        )
        data = result.to_dict()
        assert data["summary"]["placement"]["strategy"] == "first_fit"
        assert sorted(data["per_server"]["utilization"]) == ["0", "1"]

    def test_default_run_exports_no_placement_keys(self):
        result = run_scenario("multicell_campus", {"num_intervals": 1})
        data = result.to_dict()
        assert "per_server" not in data
        assert "placement" not in data["summary"]
        assert "reservation" not in data["summary"]
        for record in data["intervals"]:
            assert "placement_events" not in record
            assert "horizon_bookings" not in record
        assert "edge" in data["summary"]  # the compute section is always on


# -------------------------------------------------------------- end to end
class TestEdgeFlashCrowdScenario:
    def test_reprovision_fires_and_export_is_canonical(self):
        result = run_scenario("edge_flash_crowd", {"num_intervals": 4})
        data = result.to_dict()
        assert json.loads(json.dumps(data)) == data

        events = [
            event
            for record in data["intervals"]
            for event in record.get("placement_events", [])
        ]
        assert events, "the flash crowd must trigger at least one reprovision"
        assert data["summary"]["placement"]["reprovision_events"] == len(events)
        assert data["summary"]["placement"]["strategy"] == "drr"
        assert data["summary"]["edge"]["num_servers"] == 3

        bookings = [
            booking
            for record in data["intervals"]
            for booking in record["horizon_bookings"]
        ]
        assert bookings
        assert data["summary"]["reservation"]["total_bookings"] == len(bookings)

        for key in ("utilization", "cycles", "fragmentation"):
            assert key in data["per_server"]
        assert len(data["per_server"]["utilization"]) == 3
        for series_values in data["per_server"]["utilization"].values():
            assert len(series_values) == 4

    def test_reprovision_off_stays_silent(self):
        result = run_scenario(
            "edge_flash_crowd",
            {"num_intervals": 4, "placement.reprovision": False},
        )
        data = result.to_dict()
        assert data["summary"]["placement"]["reprovision_events"] == 0
        for record in data["intervals"]:
            assert record["placement_events"] == []

    def test_intervals_carry_server_of_group(self):
        result = run_scenario("edge_flash_crowd", {"num_intervals": 2})
        for record in result.to_dict()["intervals"]:
            assert record["server_of_group"], "every group is placed somewhere"
            assert set(record["server_of_group"].values()) <= {0, 1, 2}
