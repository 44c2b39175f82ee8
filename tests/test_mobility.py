"""Unit tests for the mobility substrate."""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mobility import CampusConfig, CampusMap, WalkTable
from repro.sim.rng import RngRegistry
from walk_reference import GraphTrajectoryMobility, StaticMobility


def _leg_table(table: WalkTable, user_id: int = 0):
    """A user's legs, read from their row: start times, durations, start
    points and deltas."""
    row = table._row_of[user_id]
    size = table._sizes[row]
    return (
        table._start_times[row, :size],
        table._durations[row, :size],
        table._starts[row, :size],
        table._deltas[row, :size],
    )


def _walk(campus, seed=0, **settings) -> WalkTable:
    """A one-walk table: user 0 walks from ``seed``."""
    return WalkTable(campus, lambda _: seed, **settings)


def _position(table: WalkTable, time_s: float) -> np.ndarray:
    """User 0's position at one time."""
    return table.positions([0], [time_s])[0, 0]


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
                legs = campus.route_legs(source, target)
                route = legs[0]
                expected = campus.path_positions(campus.shortest_path(source, target))
                np.testing.assert_array_equal(route, expected)
                assert not route.flags.writeable
                assert campus.route_legs(source, target) is legs

    def test_cached_route_rejects_in_place_writes(self, campus):
        nodes = campus.nodes
        route, deltas, _ = campus.route_legs(nodes[0], nodes[-1])
        with pytest.raises(ValueError):
            route[0, 0] = -1.0
        with pytest.raises(ValueError):
            deltas[0, 0] = -1.0

    def test_legs_hold_read_only_route_views(self):
        # The leg table holds copies of the cached routes' rows: one leg per
        # pair of consecutive rows, and the routes stay read-only.
        campus = CampusMap.generate(CampusConfig(num_buildings=10), seed=3)
        routes = []
        route_legs = campus.route_legs

        def recorded(source, target):
            legs = route_legs(source, target)
            routes.append(legs[0])
            return legs

        campus.route_legs = recorded
        model = _walk(campus, seed=4)
        model.positions([0], [900.0])
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
        WalkTable(campus, lambda uid: uid).positions(range(8), [5000.0])
        assert calls
        assert len(calls) == len(set(calls))

    def test_route_legs_are_per_leg_norms_computed_once(self, monkeypatch):
        # Each leg length is the 1-D norm of its delta, computed when the
        # route is first asked for; appending a trip computes none.
        campus = CampusMap.generate(CampusConfig(num_buildings=8), seed=5)
        norms = []
        norm = np.linalg.norm

        def counted(x, *args, **kwargs):
            norms.append(np.array(x))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        table = WalkTable(campus, lambda uid: uid)
        table.positions(range(12), [6000.0])
        legs = list(campus._routes.values())
        assert sum(table._sizes) > len(norms) > 0
        assert len(norms) == sum(len(lengths) for _, _, lengths in legs)
        for points, deltas, lengths in legs:
            np.testing.assert_array_equal(deltas, points[1:] - points[:-1])
            assert lengths == tuple(float(norm(delta)) for delta in deltas)
            assert not points.flags.writeable and not deltas.flags.writeable

    def test_warm_cache_walks_equal_fresh_campus_walks(self):
        config = CampusConfig(num_buildings=10)
        warm = CampusMap.generate(config, seed=3)
        WalkTable(warm, lambda uid: 100 + uid).positions(range(6), [4000.0])
        on_warm = WalkTable(warm, lambda uid: uid)
        on_warm.positions(range(6), [3000.0])
        for seed in range(6):
            on_fresh = _walk(CampusMap.generate(config, seed=3), seed=seed)
            on_fresh.positions([0], [3000.0])
            for a, b in zip(_leg_table(on_warm, seed), _leg_table(on_fresh)):
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
    """The walks a :class:`WalkTable` holds."""

    def test_position_stays_within_campus_bounds(self, campus):
        model = _walk(campus, seed=1)
        coords = np.array([campus.position(node) for node in campus.nodes])
        (min_x, min_y), (max_x, max_y) = coords.min(axis=0), coords.max(axis=0)
        for t in np.linspace(0.0, 600.0, 40):
            x, y = _position(model, float(t))
            assert min_x - 1e-6 <= x <= max_x + 1e-6
            assert min_y - 1e-6 <= y <= max_y + 1e-6

    def test_start_position_is_a_node(self, campus):
        model = _walk(campus, seed=2)
        start = _position(model, 0.0)
        node_positions = [campus.position(node) for node in campus.nodes]
        assert any(np.allclose(start, pos) for pos in node_positions)

    def test_deterministic_for_same_seed(self, campus):
        a = _walk(campus, seed=5)
        b = _walk(campus, seed=5)
        for t in (0.0, 50.0, 123.0, 400.0):
            np.testing.assert_array_equal(_position(a, t), _position(b, t))

    def test_position_query_order_does_not_matter(self, campus):
        # Bitwise: sharded workers rebuild walks and query them in another
        # order than the parent does.
        a = _walk(campus, seed=7)
        b = _walk(campus, seed=7)
        forward = [_position(a, t).copy() for t in (10.0, 200.0, 350.0)]
        backward = [_position(b, t).copy() for t in (350.0, 200.0, 10.0)][::-1]
        for x, y in zip(forward, backward):
            np.testing.assert_array_equal(x, y)

    def test_speed_is_plausible(self, campus):
        model = _walk(campus, seed=3, min_speed_mps=1.0, max_speed_mps=2.0, pause_time_s=0.0)
        positions = model.positions([0], np.arange(0.0, 300.0, 1.0))[0]
        displacements = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        assert displacements.max() <= 2.0 + 1e-6
        # With no pauses every leg is walked, at the trip's speed.
        _, durations, _, deltas = _leg_table(model)
        speeds = np.linalg.norm(deltas, axis=1) / durations
        assert np.all((speeds > 1.0 - 1e-9) & (speeds < 2.0 + 1e-9))

    def test_negative_time_rejected(self, campus):
        model = _walk(campus, seed=1)
        with pytest.raises(ValueError):
            _position(model, -1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_rejected(self, campus, bad):
        model = _walk(campus, seed=1)
        with pytest.raises(ValueError, match="finite"):
            model.positions([0], [10.0, bad])
        assert model.user_ids() == [], "a rejected query made a row"

    def test_invalid_speed_range(self, campus):
        with pytest.raises(ValueError):
            WalkTable(campus, lambda _: 0, min_speed_mps=2.0, max_speed_mps=1.0)

    def test_walk_with_no_legs_stands_at_its_last_position(self):
        # Without pauses, a walk whose first trips are pauses in place has
        # no legs yet, and stands where it started.
        campus = CampusMap.generate(CampusConfig(num_buildings=2), seed=1)
        table = WalkTable(campus, lambda uid: uid, pause_time_s=0.0)
        block = table.positions(range(16), [0.0, 0.5])
        idle = [uid for uid in range(16) if table._sizes[table._row_of[uid]] == 0]
        assert 0 < len(idle) < 16
        for uid in range(16):
            reference = GraphTrajectoryMobility(campus, seed=uid, pause_time_s=0.0)
            assert block[uid].tobytes() == reference.positions([0.0, 0.5]).tobytes()
        # A block of idle walks only.
        for uid, position in zip(idle, table.positions(idle, [0.25])[:, 0]):
            assert position.tobytes() == block[uid, 0].tobytes()


#: Campuses of the walk pin, as (campus seed, buildings).
PIN_CAMPUSES = ((3, 10), (0, 18), (7, 6))
#: Walk settings of the pin: the default, no pause, and one fixed speed.
PIN_SETTINGS = (
    {},
    {"pause_time_s": 0.0},
    {"min_speed_mps": 1.5, "max_speed_mps": 1.5, "pause_time_s": 5.0},
)


def _pin_table(campus, seeds, settings) -> WalkTable:
    """Fresh walks in one table, user ``i`` seeded by ``seeds[i]``; a
    ``(seed, user)`` pair seeds a walk as the simulator does."""
    keys = [
        seed if isinstance(seed, int) else RngRegistry(seed[0]).mobility_seed(seed[1])
        for seed in seeds
    ]
    return WalkTable(campus, keys.__getitem__, **settings)


def _walk_positions_sha256() -> str:
    """sha256 of the positions of 45 walks under four kinds of query.

    Each (campus, settings) pair's five walks sit in four fresh tables, one
    per kind of query: scalar positions in a non-monotone order, a sorted
    batch then an integer grid over its first 10 minutes, the same batch
    shuffled, and a two-day horizon.  Every query asks for all five walks
    at once, and the positions are hashed walk by walk.  Seeds include the
    simulator's per-user seed sequences.
    """
    rng = np.random.default_rng(2024)
    batch = np.sort(rng.uniform(0.0, 3600.0, size=257))
    shuffled = rng.permutation(batch)
    horizon = np.linspace(0.0, 2 * 86400.0, 2017)
    digest = hashlib.sha256()
    for campus_seed, buildings in PIN_CAMPUSES:
        campus = CampusMap.generate(CampusConfig(num_buildings=buildings), seed=campus_seed)
        seeds = (0, 1, 2, (campus_seed, 4), (9, 1000))
        users = range(len(seeds))
        for settings in PIN_SETTINGS:
            scalar = _pin_table(campus, seeds, settings)
            points = [
                scalar.positions(users, [t])[:, 0]
                for t in (0.0, 450.5, 30.0, 1.0, 3599.0, 60.0, 1e-9)
            ]
            batched = _pin_table(campus, seeds, settings)
            blocks = [
                batched.positions(users, batch),
                batched.positions(users, np.arange(0.0, 600.0, 1.0)),
                _pin_table(campus, seeds, settings).positions(users, shuffled),
                _pin_table(campus, seeds, settings).positions(users, horizon),
            ]
            for user in users:
                for point in points:
                    digest.update(point[user].tobytes())
                for block in blocks:
                    digest.update(block[user].tobytes())
    return digest.hexdigest()


#: Taken from the walks before their legs moved into one table.
WALK_POSITIONS_SHA256 = "26e3821eef4c5edc993da61e3d50cf3b0c92c961d0c18da1d224f7ae9195f68a"


def test_walk_positions_are_pinned():
    assert _walk_positions_sha256() == WALK_POSITIONS_SHA256


# ------------------------------------------------------ table vs reference
@functools.lru_cache(maxsize=None)
def _pin_campus(index: int) -> CampusMap:
    campus_seed, buildings = PIN_CAMPUSES[index]
    return CampusMap.generate(CampusConfig(num_buildings=buildings), seed=campus_seed)


def _query_grid(kind: str, seed: int, table: WalkTable, user_id: int) -> np.ndarray:
    """Query times of one kind, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 60))
    if kind == "sorted":
        return np.sort(rng.uniform(0.0, 3600.0, size))
    if kind == "shuffled":
        return rng.uniform(0.0, 3600.0, size)
    if kind == "repeated":
        return rng.permutation(np.repeat(rng.uniform(0.0, 3600.0, size), 3))
    if kind == "single":
        return np.array([rng.uniform(0.0, 3600.0)])
    if kind == "beyond":
        return np.sort(rng.uniform(0.0, 30000.0, size))
    # "legs": every leg boundary of ``user_id``'s row and its neighbours.
    row = table._row_of.get(user_id)
    starts = table._start_times[row, : table._sizes[row]] if row is not None else []
    if not len(starts):
        return np.array([0.0, 1.0])
    below = np.maximum(np.nextafter(starts, -np.inf), 0.0)
    return np.concatenate([starts, below, np.nextafter(starts, np.inf)])


@settings(max_examples=150, deadline=None)
@given(
    campus_index=st.integers(0, len(PIN_CAMPUSES) - 1),
    settings_index=st.integers(0, len(PIN_SETTINGS) - 1),
    registry_seed=st.integers(0, 2**32 - 1),
    queries=st.lists(
        st.tuples(
            st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True),
            st.sampled_from(["sorted", "shuffled", "repeated", "single", "beyond", "legs"]),
            st.integers(0, 2**16),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_table_positions_equal_the_reference_walks(
    campus_index, settings_index, registry_seed, queries
):
    """Every block the table returns is, row by row, the per-walk
    reference's positions bit for bit: for any set of users (first touched
    in any interleaving), any grid (sorted, shuffled, repeated, one time,
    past the generated horizon, on and beside leg boundaries, or earlier
    than a previous query), and after rows are freed and reused."""
    campus = _pin_campus(campus_index)
    walk_settings = PIN_SETTINGS[settings_index]
    registry = RngRegistry(registry_seed)
    table = WalkTable(campus, registry.mobility_seed, **walk_settings)
    references = {}
    for user_ids, kind, grid_seed, free_first in queries:
        times = _query_grid(kind, grid_seed, table, user_ids[0])
        block = table.positions(user_ids, times)
        assert block.shape == (len(user_ids), len(times), 2)
        for positions, uid in zip(block, user_ids):
            if uid not in references:
                references[uid] = GraphTrajectoryMobility(
                    campus, seed=registry.mobility_seed(uid), **walk_settings
                )
            assert positions.tobytes() == references[uid].positions(times).tobytes()
        if free_first:
            table.free(user_ids[:1])
            assert user_ids[0] not in table.user_ids()


def test_freed_rows_are_reused_without_their_old_legs(campus):
    table = WalkTable(campus, lambda uid: uid)
    table.positions(range(20), [7200.0])
    rows = {uid: table._row_of[uid] for uid in range(20)}
    table.free(range(0, 20, 2))
    assert table.user_ids() == list(range(1, 20, 2))
    # New users take the freed rows, and their early positions see none of
    # the departed walks' legs.
    block = table.positions(range(100, 110), [0.0, 30.0, 60.0])
    assert {table._row_of[uid] for uid in range(100, 110)} == {rows[uid] for uid in range(0, 20, 2)}
    for uid, positions in zip(range(100, 110), block):
        reference = GraphTrajectoryMobility(campus, seed=uid)
        assert positions.tobytes() == reference.positions([0.0, 30.0, 60.0]).tobytes()
        row = table._row_of[uid]
        assert np.isinf(table._start_times[row, table._sizes[row] :]).all()
