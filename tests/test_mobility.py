"""Unit tests for the mobility substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mobility import (
    CampusConfig,
    CampusMap,
    GraphTrajectoryMobility,
    PositionTrace,
    StaticMobility,
)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestCampusMap:
    def test_generated_graph_is_connected(self, campus):
        import networkx as nx

        assert nx.is_connected(campus.graph)

    def test_positions_within_bounds(self, campus):
        config = CampusConfig()
        for node in campus.nodes:
            x, y = campus.position(node)
            assert 0.0 <= x <= config.width_m
            assert 0.0 <= y <= config.height_m

    def test_num_buildings_respected(self):
        campus = CampusMap.generate(CampusConfig(num_buildings=12), seed=1)
        assert len(campus.nodes) == 12

    def test_shortest_path_endpoints(self, campus):
        nodes = campus.nodes
        path = campus.shortest_path(nodes[0], nodes[-1])
        assert path[0] == nodes[0]
        assert path[-1] == nodes[-1]

    def test_path_length_positive(self, campus):
        nodes = campus.nodes
        path = campus.shortest_path(nodes[0], nodes[-1])
        if len(path) > 1:
            assert campus.path_length(path) > 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="num_buildings"):
            CampusConfig(num_buildings=1)
        with pytest.raises(ValueError):
            CampusConfig(width_m=-1.0)

    def test_random_node_is_member(self, campus, rng):
        assert campus.random_node(rng) in campus.nodes


class TestRouteMemo:
    def test_every_route_equals_its_shortest_path(self, campus):
        for source in campus.nodes:
            for target in campus.nodes:
                route = campus.route_positions(source, target)
                expected = campus.path_positions(campus.shortest_path(source, target))
                np.testing.assert_array_equal(route, expected)
                assert not route.flags.writeable
                assert campus.route_positions(source, target) is route

    def test_cached_route_rejects_in_place_writes(self, campus):
        nodes = campus.nodes
        route = campus.route_positions(nodes[0], nodes[-1])
        with pytest.raises(ValueError):
            route[0, 0] = -1.0

    def test_legs_hold_read_only_route_views(self, campus):
        model = GraphTrajectoryMobility(campus, seed=4)
        model.positions([900.0])
        walked = [leg for leg in model._legs if not np.array_equal(leg.start, leg.end)]
        assert walked
        for leg in walked:
            with pytest.raises(ValueError):
                leg.start[0] = -1.0
            with pytest.raises(ValueError):
                leg.end[0] = -1.0

    def test_routes_are_computed_once_per_ordered_pair(self, monkeypatch):
        import repro.mobility.campus as campus_module

        calls = []
        shortest_path = campus_module.nx.shortest_path

        def counted(graph, source, target, **kwargs):
            calls.append((source, target))
            return shortest_path(graph, source, target, **kwargs)

        monkeypatch.setattr(campus_module.nx, "shortest_path", counted)
        campus = CampusMap.generate(CampusConfig(num_buildings=6), seed=2)
        for seed in range(8):
            GraphTrajectoryMobility(campus, seed=seed).positions([5000.0])
        assert calls
        assert len(calls) == len(set(calls))

    def test_warm_cache_walks_equal_fresh_campus_walks(self):
        config = CampusConfig(num_buildings=10)
        warm = CampusMap.generate(config, seed=3)
        for seed in range(6):
            GraphTrajectoryMobility(warm, seed=100 + seed).positions([4000.0])
        for seed in range(6):
            fresh = CampusMap.generate(config, seed=3)
            on_warm = GraphTrajectoryMobility(warm, seed=seed)
            on_fresh = GraphTrajectoryMobility(fresh, seed=seed)
            on_warm.positions([3000.0])
            on_fresh.positions([3000.0])
            assert len(on_warm._legs) == len(on_fresh._legs)
            for a, b in zip(on_warm._legs, on_fresh._legs):
                assert a.start_time_s == b.start_time_s
                assert a.end_time_s == b.end_time_s
                assert a.start.tobytes() == b.start.tobytes()
                assert a.end.tobytes() == b.end.tobytes()


class TestStaticMobility:
    def test_position_constant(self):
        model = StaticMobility([3.0, 4.0])
        np.testing.assert_allclose(model.position(0.0), [3.0, 4.0])
        np.testing.assert_allclose(model.position(1e6), [3.0, 4.0])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            StaticMobility([1.0, 2.0, 3.0])


class TestGraphTrajectoryMobility:
    def test_position_stays_within_campus_bounds(self, campus):
        model = GraphTrajectoryMobility(campus, seed=1)
        coords = np.array([campus.position(node) for node in campus.nodes])
        (min_x, min_y), (max_x, max_y) = coords.min(axis=0), coords.max(axis=0)
        for t in np.linspace(0.0, 600.0, 40):
            x, y = model.position(float(t))
            assert min_x - 1e-6 <= x <= max_x + 1e-6
            assert min_y - 1e-6 <= y <= max_y + 1e-6

    def test_start_position_is_a_node(self, campus):
        model = GraphTrajectoryMobility(campus, seed=2)
        start = model.position(0.0)
        node_positions = [campus.position(node) for node in campus.nodes]
        assert any(np.allclose(start, pos) for pos in node_positions)

    def test_deterministic_for_same_seed(self, campus):
        a = GraphTrajectoryMobility(campus, seed=5)
        b = GraphTrajectoryMobility(campus, seed=5)
        for t in (0.0, 50.0, 123.0, 400.0):
            np.testing.assert_allclose(a.position(t), b.position(t))

    def test_position_query_order_does_not_matter(self, campus):
        a = GraphTrajectoryMobility(campus, seed=7)
        b = GraphTrajectoryMobility(campus, seed=7)
        forward = [a.position(t).copy() for t in (10.0, 200.0, 350.0)]
        backward = [b.position(t).copy() for t in (350.0, 200.0, 10.0)][::-1]
        for x, y in zip(forward, backward):
            np.testing.assert_allclose(x, y)

    def test_speed_is_plausible(self, campus):
        model = GraphTrajectoryMobility(campus, seed=3, min_speed_mps=1.0, max_speed_mps=2.0, pause_time_s=0.0)
        times = np.arange(0.0, 300.0, 1.0)
        trace = model.trace(times)
        displacements = np.linalg.norm(np.diff(trace.positions, axis=0), axis=1)
        assert displacements.max() <= 2.0 + 1e-6

    def test_negative_time_rejected(self, campus):
        model = GraphTrajectoryMobility(campus, seed=1)
        with pytest.raises(ValueError):
            model.position(-1.0)

    def test_invalid_speed_range(self, campus):
        with pytest.raises(ValueError):
            GraphTrajectoryMobility(campus, min_speed_mps=2.0, max_speed_mps=1.0)


class TestPositionTrace:
    def test_distance_travelled(self):
        trace = PositionTrace(times=[0.0, 1.0, 2.0], positions=[[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
        assert trace.distance_travelled() == pytest.approx(5.0)

    def test_distances_to_point(self):
        trace = PositionTrace(times=[0.0, 1.0], positions=[[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_allclose(trace.distances_to([0.0, 0.0]), [0.0, 5.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PositionTrace(times=[0.0], positions=[[0.0, 0.0], [1.0, 1.0]])

    def test_trace_from_model(self, campus):
        model = GraphTrajectoryMobility(campus, seed=8)
        trace = model.trace(np.arange(0.0, 50.0, 5.0))
        assert len(trace) == 10
