"""Unit tests for the mobility substrate."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.mobility import (
    CampusConfig,
    CampusMap,
    GraphTrajectoryMobility,
    StaticMobility,
)
from repro.sim.rng import RngRegistry


def _leg_table(model: GraphTrajectoryMobility):
    """The walk's legs: start times, durations, start points and deltas."""
    size = model._size
    return (
        model._start_times[:size],
        model._durations[:size],
        model._starts[:size],
        model._deltas[:size],
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

    def test_legs_hold_read_only_route_views(self):
        # The leg table holds copies of the cached routes' rows: one leg per
        # pair of consecutive rows, and the routes stay read-only.
        campus = CampusMap.generate(CampusConfig(num_buildings=10), seed=3)
        routes = []
        route_positions = campus.route_positions

        def recorded(source, target):
            routes.append(route_positions(source, target))
            return routes[-1]

        campus.route_positions = recorded
        model = GraphTrajectoryMobility(campus, seed=4)
        model.positions([900.0])
        start_times, durations, starts, deltas = _leg_table(model)
        walked = np.any(deltas != 0.0, axis=1)
        assert routes
        np.testing.assert_array_equal(starts[walked], np.concatenate([r[:-1] for r in routes]))
        steps = np.concatenate([np.diff(r, axis=0) for r in routes])
        np.testing.assert_array_equal(deltas[walked], steps)
        # Every pause is held at the walk's start or at a route's last row.
        stops = {starts[0].tobytes()} | {r[-1].tobytes() for r in routes}
        assert all(start.tobytes() in stops for start in starts[~walked])
        np.testing.assert_allclose(start_times[1:], start_times[:-1] + durations[:-1])
        for route in routes:
            assert not route.flags.writeable

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
            for a, b in zip(_leg_table(on_warm), _leg_table(on_fresh)):
                assert a.tobytes() == b.tobytes()


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
            np.testing.assert_array_equal(a.position(t), b.position(t))

    def test_position_query_order_does_not_matter(self, campus):
        # Bitwise: sharded workers rebuild walks and query them in another
        # order than the parent does.
        a = GraphTrajectoryMobility(campus, seed=7)
        b = GraphTrajectoryMobility(campus, seed=7)
        forward = [a.position(t).copy() for t in (10.0, 200.0, 350.0)]
        backward = [b.position(t).copy() for t in (350.0, 200.0, 10.0)][::-1]
        for x, y in zip(forward, backward):
            np.testing.assert_array_equal(x, y)

    def test_speed_is_plausible(self, campus):
        model = GraphTrajectoryMobility(campus, seed=3, min_speed_mps=1.0, max_speed_mps=2.0, pause_time_s=0.0)
        positions = model.positions(np.arange(0.0, 300.0, 1.0))
        displacements = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        assert displacements.max() <= 2.0 + 1e-6
        # With no pauses every leg is walked, at the trip's speed.
        _, durations, _, deltas = _leg_table(model)
        speeds = np.linalg.norm(deltas, axis=1) / durations
        assert np.all((speeds > 1.0 - 1e-9) & (speeds < 2.0 + 1e-9))

    def test_negative_time_rejected(self, campus):
        model = GraphTrajectoryMobility(campus, seed=1)
        with pytest.raises(ValueError):
            model.position(-1.0)

    def test_invalid_speed_range(self, campus):
        with pytest.raises(ValueError):
            GraphTrajectoryMobility(campus, min_speed_mps=2.0, max_speed_mps=1.0)


#: Campuses of the walk pin, as (campus seed, buildings).
PIN_CAMPUSES = ((3, 10), (0, 18), (7, 6))
#: Walk settings of the pin: the default, no pause, and one fixed speed.
PIN_SETTINGS = (
    {},
    {"pause_time_s": 0.0},
    {"min_speed_mps": 1.5, "max_speed_mps": 1.5, "pause_time_s": 5.0},
)


def _pin_walk(campus, seed, settings) -> GraphTrajectoryMobility:
    """A fresh walk; a ``(seed, user)`` pair seeds it as the simulator does."""
    if not isinstance(seed, int):
        seed = RngRegistry(seed[0]).mobility_seed(seed[1])
    return GraphTrajectoryMobility(campus, seed=seed, **settings)


def _walk_positions_sha256() -> str:
    """sha256 of the positions of 45 walks under four kinds of query.

    Each (campus, settings, seed) walk is built four times and asked for:
    scalar positions in a non-monotone order, a sorted batch then an
    integer grid over its first 10 minutes, the same batch shuffled, and a
    two-day horizon.  Seeds include the simulator's per-user seed
    sequences.
    """
    rng = np.random.default_rng(2024)
    batch = np.sort(rng.uniform(0.0, 3600.0, size=257))
    shuffled = rng.permutation(batch)
    horizon = np.linspace(0.0, 2 * 86400.0, 2017)
    digest = hashlib.sha256()
    for campus_seed, buildings in PIN_CAMPUSES:
        campus = CampusMap.generate(CampusConfig(num_buildings=buildings), seed=campus_seed)
        seeds = (0, 1, 2, (campus_seed, 4), (9, 1000))
        for settings in PIN_SETTINGS:
            for seed in seeds:
                scalar = _pin_walk(campus, seed, settings)
                for t in (0.0, 450.5, 30.0, 1.0, 3599.0, 60.0, 1e-9):
                    digest.update(scalar.position(t).tobytes())
                batched = _pin_walk(campus, seed, settings)
                digest.update(batched.positions(batch).tobytes())
                digest.update(batched.positions(np.arange(0.0, 600.0, 1.0)).tobytes())
                digest.update(_pin_walk(campus, seed, settings).positions(shuffled).tobytes())
                digest.update(_pin_walk(campus, seed, settings).positions(horizon).tobytes())
    return digest.hexdigest()


#: Taken from the walks before their legs moved into one table.
WALK_POSITIONS_SHA256 = "26e3821eef4c5edc993da61e3d50cf3b0c92c961d0c18da1d224f7ae9195f68a"


def test_walk_positions_are_pinned():
    assert _walk_positions_sha256() == WALK_POSITIONS_SHA256
