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
        campus = CampusMap.generate(CampusConfig(num_buildings=12, seed=1))
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
        with pytest.raises(ValueError):
            CampusConfig(num_buildings=1)
        with pytest.raises(ValueError):
            CampusConfig(width_m=-1.0)

    def test_random_node_is_member(self, campus, rng):
        assert campus.random_node(rng) in campus.nodes


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
