"""Unit tests for the digital-twin substrate."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collector_reference import member_records, member_samples, reference_collect
from repro.behavior import WatchRecord, random_preference
from repro.behavior.watching import WatchBlock
from repro.mobility import WalkTable
from repro.net import BaseStation, ChannelConfig, ChannelModel
from repro.sim.rng import derive_streams
from repro.twin import (
    AttributeSpec,
    CollectionPolicy,
    DigitalTwinManager,
    StatusCollector,
    UserDigitalTwin,
    standard_attributes,
)
from repro.twin.collector import CollectedStatus, StatusBlock
from repro.twin.attributes import (
    CHANNEL_CONDITION,
    LOCATION,
    PREFERENCE,
    SERVING_CELL,
    WATCHING_DURATION,
    serving_cell_attribute,
)
from walk_reference import GraphTrajectoryMobility, StaticMobility


@pytest.fixture
def rng():
    return np.random.default_rng(41)


def _store(dimension):
    """A fresh twin's store of one ``dimension``-wide attribute."""
    twin = UserDigitalTwin(0, attributes={"x": AttributeSpec("x", dimension, 1.0)})
    return twin.store("x")


class TestAttributes:
    def test_standard_set_contains_paper_attributes(self):
        specs = standard_attributes()
        assert set(specs) == {CHANNEL_CONDITION, LOCATION, WATCHING_DURATION, PREFERENCE}

    def test_different_collection_frequencies(self):
        specs = standard_attributes()
        assert specs[CHANNEL_CONDITION].collection_period_s < specs[PREFERENCE].collection_period_s

    def test_samples_per_interval(self):
        spec = AttributeSpec("x", dimension=1, collection_period_s=5.0)
        assert spec.samples_per_interval(300.0) == 60
        assert spec.samples_per_interval(1.0) == 1

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            AttributeSpec("", dimension=1, collection_period_s=1.0)
        with pytest.raises(ValueError):
            AttributeSpec("x", dimension=0, collection_period_s=1.0)

    def test_preference_dimension_follows_categories(self):
        specs = standard_attributes(num_categories=5)
        assert specs[PREFERENCE].dimension == 5


class TestStoreView:
    def test_append_and_latest(self):
        store = _store(2)
        store.append_batch([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
        assert len(store) == 2
        np.testing.assert_allclose(store.latest_value(), [3.0, 4.0])
        assert store.latest_timestamp_s() == 1.0

    def test_non_decreasing_timestamps_enforced(self):
        store = _store(1)
        store.append_batch([5.0], [[1.0]])
        with pytest.raises(ValueError):
            store.append_batch([4.0], [[2.0]])

    def test_dimension_enforced(self):
        store = _store(2)
        with pytest.raises(ValueError):
            store.append_batch([0.0], [[1.0]])

    def test_window_query_half_open(self):
        store = _store(1)
        store.append_batch(np.arange(5.0), np.arange(5.0)[:, None])
        np.testing.assert_array_equal(store.window_values(1.0, 3.0)[:, 0], [1.0, 2.0])

    def test_resample_zero_order_hold(self):
        store = _store(1)
        store.append_batch([0.0, 10.0], [[1.0], [2.0]])
        resampled = np.empty((4, 1))
        store.resample_into(np.array([0.0, 5.0, 10.0, 20.0]), resampled)
        np.testing.assert_allclose(resampled[:, 0], [1.0, 1.0, 2.0, 2.0])

    def test_resample_empty_store_is_zeros(self):
        store = _store(3)
        resampled = np.ones((2, 3))
        store.resample_into(np.array([0.0, 1.0]), resampled)
        np.testing.assert_allclose(resampled, 0.0)

    def test_timestamps_and_values_are_read_only_views(self):
        store = _store(2)
        store.append_batch([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
        times, values = store.timestamps(), store.values()
        with pytest.raises(ValueError):
            times[0] = 9.0
        with pytest.raises(ValueError):
            values[0, 0] = 9.0
        # Later appends leave arrays already read as they were.
        store.append_batch(np.arange(2.0, 40.0), np.zeros((38, 2)))
        np.testing.assert_array_equal(times, [0.0, 1.0])
        np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])
        assert store.values().shape == (40, 2)


class TestUserDigitalTwin:
    def test_record_and_latest_status(self):
        twin = UserDigitalTwin(0)
        twin.record_batch(CHANNEL_CONDITION, [0.0], [[12.5]])
        twin.record_batch(LOCATION, [0.0], [[10.0, 20.0]])
        assert twin.store(CHANNEL_CONDITION).latest_value()[0] == pytest.approx(12.5)
        np.testing.assert_allclose(twin.store(LOCATION).latest_value(), [10.0, 20.0])

    def test_unknown_attribute_raises(self):
        twin = UserDigitalTwin(0)
        with pytest.raises(KeyError):
            twin.record_batch("heart_rate", [0.0], [[1.0]])

    def test_record_watch_mirrors_duration_series(self):
        twin = UserDigitalTwin(3)
        record = WatchRecord(3, 7, "News", 4.0, 10.0, swiped=True, timestamp_s=2.0)
        twin.record_watches([record])
        assert twin.watch_records() == [record]
        assert len(twin.store(WATCHING_DURATION)) == 1

    def test_record_watch_wrong_user_rejected(self):
        twin = UserDigitalTwin(3)
        record = WatchRecord(4, 7, "News", 4.0, 10.0, swiped=True)
        with pytest.raises(ValueError):
            twin.record_watches([record])

    def test_watch_records_window_filter(self):
        twin = UserDigitalTwin(0)
        twin.record_watches(
            [
                WatchRecord(0, t, "News", 1.0, 10.0, swiped=True, timestamp_s=float(t))
                for t in range(5)
            ]
        )
        assert len(twin.watch_records(start_s=1.0, end_s=3.0)) == 2

    def test_feature_matrix_shape_and_channels(self):
        twin = UserDigitalTwin(0, attributes=standard_attributes(num_categories=4))
        twin.record_batch(CHANNEL_CONDITION, [0.0], [[10.0]])
        twin.record_batch(LOCATION, [0.0], [[1.0, 2.0]])
        twin.record_batch(PREFERENCE, [0.0], [[0.25, 0.25, 0.25, 0.25]])
        matrix = twin.feature_matrix(0.0, 60.0, num_steps=16)
        assert matrix.shape == (16, 1 + 2 + 1 + 4)

    def test_feature_matrix_invalid_window(self):
        twin = UserDigitalTwin(0)
        with pytest.raises(ValueError):
            twin.feature_matrix(10.0, 10.0)


def _collect_one(collector, attributes, mobility, bs, preference, records, start_s, end_s, rng):
    """User 0's status through the group call, as a group of one."""
    times = np.unique(np.concatenate(collector.position_times(attributes, start_s, end_s)))
    return collector.collect_interval(
        attributes,
        times,
        mobility.positions(times)[None],
        [bs],
        np.asarray(preference)[None],
        WatchBlock.from_records(0, records),
        start_s,
        end_s,
        rngs=[rng],
    )


def _watch_block(member_ids, start_times_s, video_ids=None):
    """A group's watch block: every member watches every video, member ``m``
    for ``2 + m`` seconds of each 9 s video, the first member to the end."""
    members = len(member_ids)
    videos = len(start_times_s)
    durations = np.tile(2.0 + np.arange(members, dtype=np.float64)[:, None], (1, videos))
    durations[0] = 9.0
    return WatchBlock(
        member_ids=np.array(member_ids, dtype=np.int64),
        video_ids=np.arange(videos, dtype=np.int64) if video_ids is None else np.array(video_ids),
        categories=tuple(("News", "Game")[v % 2] for v in range(videos)),
        video_durations_s=np.full(videos, 9.0),
        start_times_s=np.asarray(start_times_s, dtype=np.float64),
        watch_durations_s=durations,
        swiped=durations < 9.0,
    )


class TestStatusCollector:
    def _collect(self, policy, interval=(0.0, 60.0)):
        manager = DigitalTwinManager(attributes=standard_attributes(num_categories=8))
        twin = manager.register_user(0)
        collector = StatusCollector(policy=policy)
        mobility = StaticMobility([100.0, 100.0])
        bs = BaseStation(bs_id=0, position=np.array([0.0, 0.0]))
        preference = random_preference(np.random.default_rng(0)).as_array()
        rng = np.random.default_rng(1)
        manager.append_group(
            [0],
            _collect_one(
                collector, twin.attributes, mobility, bs, preference, [], *interval, rng
            ),
        )
        return twin

    def test_perfect_policy_collects_at_attribute_rates(self):
        twin = self._collect(CollectionPolicy.perfect())
        assert len(twin.store(CHANNEL_CONDITION)) == 60  # 1 s period over 60 s
        assert len(twin.store(LOCATION)) == 12  # 5 s period
        assert len(twin.store(PREFERENCE)) == 1  # 60 s period

    def test_period_multiplier_reduces_samples(self):
        stale = self._collect(CollectionPolicy(period_multiplier=4.0))
        fresh = self._collect(CollectionPolicy.perfect())
        assert len(stale.store(CHANNEL_CONDITION)) < len(fresh.store(CHANNEL_CONDITION))

    def test_drop_probability_reduces_samples(self):
        lossy = self._collect(CollectionPolicy(drop_probability=0.5))
        fresh = self._collect(CollectionPolicy.perfect())
        assert len(lossy.store(CHANNEL_CONDITION)) < len(fresh.store(CHANNEL_CONDITION))

    def test_delay_shifts_timestamps(self):
        delayed = self._collect(CollectionPolicy(delay_s=10.0))
        assert delayed.store(CHANNEL_CONDITION).timestamps()[0] == pytest.approx(10.0)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            CollectionPolicy(period_multiplier=0.0)
        with pytest.raises(ValueError):
            CollectionPolicy(drop_probability=1.0)

    def test_watch_events_recorded(self):
        manager = DigitalTwinManager()
        twin = manager.register_user(0)
        collector = StatusCollector()
        mobility = StaticMobility([10.0, 10.0])
        bs = BaseStation(bs_id=0, position=np.array([0.0, 0.0]))
        preference = random_preference(np.random.default_rng(0)).as_array()
        record = WatchRecord(0, 5, "News", 3.0, 10.0, swiped=True, timestamp_s=1.0)
        rng = np.random.default_rng(1)
        status = _collect_one(
            collector, twin.attributes, mobility, bs, preference, [record], 0.0, 30.0, rng
        )
        assert status.kept is None
        assert status.watches.records(0) == [record]
        assert member_records(status, 0) == [record]
        manager.append_group([0], status)
        assert twin.watch_records() == [record]

    def test_times_must_hold_every_position_grid(self):
        collector = StatusCollector()
        attributes = standard_attributes(num_categories=8)
        times = np.arange(0.0, 60.0, 2.0)  # misses the odd seconds of the 1 s grid
        with pytest.raises(ValueError, match="sample times"):
            collector.collect_interval(
                attributes,
                times,
                np.zeros((1, times.shape[0], 2)),
                [BaseStation(bs_id=0, position=np.array([0.0, 0.0]))],
                np.full((1, 8), 1.0 / 8),
                WatchBlock.from_records(0, []),
                0.0,
                60.0,
                rngs=[np.random.default_rng(1)],
            )

    def test_watch_block_must_hold_every_member(self):
        collector = StatusCollector()
        attributes = standard_attributes(num_categories=8)
        times = np.unique(np.concatenate(collector.position_times(attributes, 0.0, 60.0)))
        with pytest.raises(ValueError, match="watch records of 1 members, got 2"):
            collector.collect_interval(
                attributes,
                times,
                np.zeros((1, times.shape[0], 2)),
                [BaseStation(bs_id=0, position=np.array([0.0, 0.0]))],
                np.full((1, 8), 1.0 / 8),
                _watch_block([0, 1], [0.0, 10.0]),
                0.0,
                60.0,
                rngs=[np.random.default_rng(1)],
            )


#: Collection policies the group call is checked under: the period
#: multiplier reaches past the 60 s interval for every attribute.
policies = st.builds(
    CollectionPolicy,
    period_multiplier=st.one_of(
        st.just(1.0), st.floats(min_value=0.3, max_value=4.0), st.sampled_from([60.0, 75.0])
    ),
    drop_probability=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.95)),
    delay_s=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)),
)


class TestGroupCollectionMatchesReference:
    """The group call equals the per-member reference collector, member by member."""

    @settings(max_examples=40, deadline=None)
    @example(
        policy=CollectionPolicy(period_multiplier=75.0, drop_probability=0.5, delay_s=7.0),
        stations=[0, 1, 1, 0],
        report_cells=True,
        shadowing=True,
        rayleigh=True,
        start_s=60.0,
        seed=3,
    )
    @example(
        policy=CollectionPolicy(),
        stations=[1, 0, 1],
        report_cells=False,
        shadowing=False,
        rayleigh=False,
        start_s=0.0,
        seed=5,
    )
    @example(
        policy=CollectionPolicy(drop_probability=0.3),
        stations=[1, 0, 0, 1, 1],
        report_cells=False,
        shadowing=True,
        rayleigh=False,
        start_s=0.0,
        seed=7,
    )
    @example(
        policy=CollectionPolicy(),
        stations=[0, 1, 0],
        report_cells=True,
        shadowing=False,
        rayleigh=True,
        start_s=60.0,
        seed=11,
    )
    @given(
        policy=policies,
        stations=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=5),
        report_cells=st.booleans(),
        shadowing=st.booleans(),
        rayleigh=st.booleans(),
        start_s=st.sampled_from([0.0, 60.0, 3000.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_group_call_equals_reference(
        self, campus, policy, stations, report_cells, shadowing, rayleigh, start_s, seed
    ):
        """Station 1 switches its shadowing and its Rayleigh fading on and off
        independently of each other; station 0 keeps the default channel.  The
        group call draws from one generator re-pointed at each member in turn."""
        end_s = start_s + 60.0
        attributes = standard_attributes(num_categories=8)
        if report_cells:
            attributes[SERVING_CELL] = serving_cell_attribute()
        base_stations = [
            BaseStation(bs_id=0, position=np.array([250.0, 400.0])),
            BaseStation(
                bs_id=1,
                position=np.array([750.0, 400.0]),
                channel=ChannelModel(
                    ChannelConfig(shadowing_std_db=4.0 * shadowing, rayleigh_fading=rayleigh)
                ),
            ),
        ]
        served_by = [base_stations[index] for index in stations]
        members = range(len(stations))
        preferences = np.vstack(
            [random_preference(np.random.default_rng((seed, m))).as_array() for m in members]
        )
        watches = _watch_block(list(members), start_s + np.arange(4.0))
        cells = [10 + index for index in stations]
        collector = StatusCollector(policy)

        # The group task's block: the collector's grids plus a 5 s channel grid.
        times = np.unique(
            np.concatenate(
                [
                    np.arange(start_s, end_s, 5.0),
                    *collector.position_times(attributes, start_s, end_s),
                ]
            )
        )
        positions = WalkTable(campus, lambda m: (seed, m)).positions(members, times)
        status = collector.collect_interval(
            attributes,
            times,
            positions,
            served_by,
            preferences,
            watches,
            start_s,
            end_s,
            rngs=derive_streams(np.array([[seed, m, 1] for m in members])),
            serving_cells=cells if report_cells else None,
        )

        assert status.watches is watches
        assert (status.kept is None) == (policy.drop_probability == 0.0)
        if status.kept is not None:
            assert status.kept.shape == watches.swiped.shape
        for block in status.samples.values():
            assert block.counts.shape == (len(stations),)
        for m in members:
            expected = reference_collect(
                policy,
                attributes,
                GraphTrajectoryMobility(campus, seed=(seed, m)),
                served_by[m],
                preferences[m],
                watches.records(m),
                start_s,
                end_s,
                rng=np.random.default_rng((seed, m, 1)),
                serving_cell=cells[m] if report_cells else None,
            )
            samples = member_samples(status, m)
            assert member_records(status, m) == expected.records
            assert list(samples) == list(expected.samples)
            for name, (sample_times, values) in expected.samples.items():
                assert np.array_equal(samples[name][0], sample_times), name
                assert np.array_equal(samples[name][1], values), name


def _group_status(start_s, users=(0, 1, 2)):
    """A valid hand-built status of one group, every attribute with uneven runs.

    Member ``m`` keeps the first ``m + 1`` of the group's three watch records.
    """
    channel_counts = np.array([3, 0, 2])
    location_counts = np.array([1, 2, 1])
    return CollectedStatus(
        samples={
            CHANNEL_CONDITION: StatusBlock(
                channel_counts,
                start_s + np.array([0.0, 1.0, 2.0, 0.0, 1.0]),
                np.arange(5.0)[:, None],
            ),
            LOCATION: StatusBlock(
                location_counts,
                start_s + np.array([5.0, 0.0, 5.0, 0.0]),
                np.arange(8.0).reshape(4, 2),
            ),
            PREFERENCE: StatusBlock(
                np.ones(3, dtype=np.int64), np.full(3, start_s), np.full((3, 8), 0.125)
            ),
        },
        watches=_watch_block(users, start_s + np.arange(3.0), video_ids=[5, 6, 7]),
        kept=np.arange(3) < np.arange(1, 4)[:, None],
    )


def _contents(manager):
    """Every twin's stores and watch records, bit for bit."""
    return {
        uid: (
            [
                (name, twin.store(name).timestamps().tobytes(), twin.store(name).values().tobytes())
                for name in twin.attributes
            ],
            twin.watch_records(),
        )
        for uid in manager.user_ids()
        for twin in [manager.twin(uid)]
    }


def _with_block(status, name, **fields):
    """``status`` with some fields of ``name``'s block replaced."""
    block = status.samples[name]._replace(**fields)
    return status._replace(samples={**status.samples, name: block})


class TestGroupAppend:
    @staticmethod
    def _manager():
        manager = DigitalTwinManager(attributes=standard_attributes(num_categories=8))
        manager.register_users([0, 1, 2])
        manager.append_group([0, 1, 2], _group_status(0.0))
        return manager

    def test_group_append_equals_per_member_appends(self):
        """Each member's slice of every block lands in their own stores, and the
        watching-duration mirror clamps each member's first kept record to
        their tail, also when the record before it was dropped."""
        grouped = self._manager()
        status = _group_status(60.0)
        # The first two records precede users 1 and 2's newest mirrored
        # samples (at 1 s and 2 s); user 1's first one is dropped.
        status = status._replace(
            watches=status.watches._replace(start_times_s=np.array([0.5, 0.75, 62.0])),
            kept=np.array([[True, False, False], [False, True, True], [True, True, True]]),
        )
        grouped.append_group([0, 1, 2], status)

        single = DigitalTwinManager(attributes=standard_attributes(num_categories=8))
        single.register_users([0, 1, 2])
        for part in (_group_status(0.0), status):
            for m, uid in enumerate([0, 1, 2]):
                twin = single.twin(uid)
                for name, samples in member_samples(part, m).items():
                    twin.record_batch(name, *samples)
                twin.record_watches(member_records(part, m))
        assert _contents(grouped) == _contents(single)
        mirrored = [
            grouped.twin(uid).store(WATCHING_DURATION).timestamps().tolist() for uid in (1, 2)
        ]
        assert mirrored == [[0.0, 1.0, 1.0, 62.0], [0.0, 1.0, 2.0, 2.0, 2.0, 62.0]]

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("times_out_of_order", "non-decreasing"),
            ("times_before_tail", "non-decreasing"),
            ("values_wrong_shape", "shape"),
            (
                "records_of_other_users",
                "watch records of users [0, 1, 3] pushed to the UDTs of users [0, 1, 2]",
            ),
            ("keep_mask_wrong_shape", "keep mask of shape (3, 3)"),
        ],
    )
    def test_rejected_group_leaves_every_twin_unchanged(self, defect, message):
        manager = self._manager()
        before = _contents(manager)
        status = _group_status(60.0)
        if defect == "times_out_of_order":
            # Member 2's two channel samples swap places.
            status = _with_block(
                status, CHANNEL_CONDITION, timestamps=60.0 + np.array([0.0, 1.0, 2.0, 1.0, 0.0])
            )
        elif defect == "times_before_tail":
            # Member 0's location sample precedes their stored one at 5 s.
            status = _with_block(status, LOCATION, timestamps=np.array([4.0, 60.0, 65.0, 60.0]))
        elif defect == "values_wrong_shape":
            status = _with_block(status, PREFERENCE, values=np.full((3, 7), 1.0 / 7))
        elif defect == "records_of_other_users":
            # The watch block's last member is not the group's.
            status = status._replace(
                watches=status.watches._replace(member_ids=np.array([0, 1, 3]))
            )
        else:
            status = status._replace(kept=status.kept[:, :2])
        with pytest.raises(ValueError, match=re.escape(message)):
            manager.append_group([0, 1, 2], status)
        assert _contents(manager) == before


#: Each store reader, with what it returns for a store holding ``(times,
#: values)``; every reader except the last two copies pending runs in.
_READ_GRID = np.linspace(-10.0, 200.0, 23)
_STORE_READERS = {
    "timestamps": (lambda store: store.timestamps(), lambda times, values: times),
    "values": (lambda store: store.values(), lambda times, values: values),
    "window_values": (
        lambda store: store.window_values(30.0, 125.0),
        lambda times, values: values[(times >= 30.0) & (times < 125.0)],
    ),
    "resample_into": (
        lambda store: _resampled(store, _READ_GRID),
        lambda times, values: values[
            np.maximum(times.searchsorted(_READ_GRID, side="right") - 1, 0)
        ],
    ),
    "latest_value": (lambda store: store.latest_value(), lambda times, values: values[-1]),
    "len": (len, lambda times, values: times.shape[0]),
    "latest_timestamp_s": (
        lambda store: store.latest_timestamp_s(),
        lambda times, values: times[-1],
    ),
}


def _resampled(store, grid):
    out = np.empty((grid.shape[0], store.dimension))
    store.resample_into(grid, out)
    return out


class TestReadsSeeAppends:
    """Every reader sees every run appended before it."""

    @pytest.mark.parametrize("reader", sorted(_STORE_READERS))
    def test_every_reader_sees_runs_appended_since_the_last_read(self, reader):
        read, expected = _STORE_READERS[reader]
        parts = [_group_status(start_s) for start_s in (0.0, 60.0, 120.0)]
        manager = DigitalTwinManager(attributes=standard_attributes(num_categories=8))
        manager.register_users([0, 1, 2])
        stores = [
            (m, name, manager.twin(uid).store(name))
            for m, uid in enumerate([0, 1, 2])
            for name in parts[0].samples
        ]
        # Part 0 is read before parts 1 and 2 are appended.
        for appended, upto in (([parts[0]], 1), (parts[1:], 3)):
            for part in appended:
                manager.append_group([0, 1, 2], part)
            for m, name, store in stores:
                runs = [
                    member_samples(part, m)[name]
                    for part in parts[:upto]
                    if name in member_samples(part, m)
                ]
                if not runs:
                    assert len(store) == 0
                    continue
                times = np.concatenate([run[0] for run in runs])
                values = np.concatenate([run[1] for run in runs])
                assert np.array_equal(read(store), expected(times, values)), (m, name)

    def test_watch_records_see_records_appended_since_the_last_read(self):
        """A twin's records are every kept record appended before the read,
        in append order; a window selects them by timestamp."""
        parts = [_group_status(start_s) for start_s in (0.0, 60.0, 120.0)]
        manager = DigitalTwinManager(attributes=standard_attributes(num_categories=8))
        manager.register_users([0, 1, 2])
        # Part 0 is read before parts 1 and 2 are appended.
        for appended, upto in (([parts[0]], 1), (parts[1:], 3)):
            for part in appended:
                manager.append_group([0, 1, 2], part)
            for m, uid in enumerate([0, 1, 2]):
                expected = [
                    record for part in parts[:upto] for record in member_records(part, m)
                ]
                assert len(expected) == upto * (m + 1)
                assert manager.twin(uid).watch_records() == expected
        for m, uid in enumerate([0, 1, 2]):
            assert manager.twin(uid).watch_records(60.0, 120.0) == member_records(parts[1], m)

    def test_appended_watch_blocks_are_read_only_and_samples_copied(self):
        """The tables copy the sample blocks and keep the watch block."""
        manager = DigitalTwinManager(attributes=standard_attributes(num_categories=8))
        manager.register_users([0, 1, 2])
        status = _group_status(0.0)
        manager.append_group([0, 1, 2], status)
        before = _contents(manager)
        for block in status.samples.values():
            block.timestamps[0] = -1.0
            block.values[0] = -1.0
        for array in (status.watches.watch_durations_s, status.watches.start_times_s):
            with pytest.raises(ValueError):
                array[0] = -1.0
        # The tables' copies are their own: the twins read what was appended.
        assert _contents(manager) == before
        assert manager.twin(0).store(CHANNEL_CONDITION).timestamps().tolist() == [0.0, 1.0, 2.0]


class TestDigitalTwinManager:
    def test_register_and_lookup(self):
        manager = DigitalTwinManager()
        manager.register_users([3, 1, 2])
        assert len(manager) == 3
        assert manager.user_ids() == [1, 2, 3]
        assert isinstance(manager.twin(2), UserDigitalTwin)
        with pytest.raises(KeyError):
            manager.twin(99)

    def test_register_is_idempotent(self):
        manager = DigitalTwinManager()
        first = manager.register_user(0)
        second = manager.register_user(0)
        assert first is second

    def test_feature_tensor_shape(self):
        manager = DigitalTwinManager(attributes=standard_attributes(num_categories=4))
        manager.register_users(range(3))
        for uid in range(3):
            manager.twin(uid).record_batch(CHANNEL_CONDITION, [0.0], [[float(uid)]])
        tensor = manager.feature_tensor(0.0, 30.0, num_steps=8)
        assert tensor.shape == (3, 8, 1 + 2 + 1 + 4)

    def test_feature_tensor_requires_users(self):
        manager = DigitalTwinManager()
        with pytest.raises(ValueError):
            manager.feature_tensor(0.0, 10.0)

    def test_watch_records_and_engagement_aggregation(self):
        manager = DigitalTwinManager()
        manager.register_users([0, 1])
        manager.twin(0).record_watches([WatchRecord(0, 5, "News", 4.0, 10.0, swiped=True, timestamp_s=0.0)])
        manager.twin(1).record_watches([WatchRecord(1, 5, "News", 6.0, 10.0, swiped=True, timestamp_s=0.0)])
        records = manager.watch_columns(manager.user_ids()).records()
        assert [record.user_id for record in records] == [0, 1]
        assert sum(record.watch_duration_s for record in records) == pytest.approx(10.0)

    def test_remove_user(self):
        manager = DigitalTwinManager()
        manager.register_user(0)
        manager.remove_user(0)
        assert 0 not in manager


class TestBatchedFeatureTensor:
    """Cross-user batched resample == per-twin ``feature_matrix``, bit for bit."""

    @staticmethod
    def _populated_manager(num_users=9, seed=0):
        rng = np.random.default_rng(seed)
        manager = DigitalTwinManager()
        manager.register_users(range(num_users))
        for uid in range(num_users):
            twin = manager.twin(uid)
            if uid == 4:
                continue  # one user with fully empty stores (resamples to zeros)
            for name, spec in twin.attributes.items():
                if uid == 6 and name == PREFERENCE:
                    continue  # one user with a single empty attribute
                count = int(rng.integers(1, 40))
                times = np.sort(rng.uniform(0.0, 900.0, count))
                twin.store(name).append_batch(
                    times, rng.normal(size=(count, spec.dimension))
                )
        return manager

    @staticmethod
    def _per_user(manager, start_s, end_s, num_steps, user_ids=None):
        ids = user_ids if user_ids is not None else manager.user_ids()
        return np.stack(
            [manager.twin(uid).feature_matrix(start_s, end_s, num_steps=num_steps) for uid in ids]
        )

    def test_batched_equals_per_user_path(self):
        manager = self._populated_manager()
        for window in [(0.0, 900.0), (100.0, 400.0), (850.0, 1200.0), (950.0, 1000.0)]:
            per_user = self._per_user(manager, *window, 32)
            batched = manager.feature_tensor(*window, num_steps=32)
            assert np.array_equal(per_user, batched)

    def test_batched_respects_user_and_attribute_order(self):
        """Rows follow ``user_ids``; each row's channels are the twin's
        attributes in insertion order, each its own store's zero-order hold."""
        manager = self._populated_manager()
        ids = [7, 0, 4, 2]
        batched = manager.feature_tensor(50.0, 500.0, num_steps=17, user_ids=ids)
        assert np.array_equal(batched, self._per_user(manager, 50.0, 500.0, 17, user_ids=ids))
        times = np.linspace(50.0, 500.0, 17, endpoint=False)
        for row, uid in enumerate(ids):
            twin = manager.twin(uid)
            blocks = []
            for name in twin.attributes:
                block = np.empty((17, twin.store(name).dimension))
                twin.store(name).resample_into(times, block)
                blocks.append(block)
            assert np.array_equal(batched[row], np.concatenate(blocks, axis=1))

    def test_batched_equals_twin_feature_matrix(self):
        manager = self._populated_manager(num_users=3, seed=5)
        tensor = manager.feature_tensor(0.0, 300.0, num_steps=16)
        for row, uid in enumerate(manager.user_ids()):
            direct = manager.twin(uid).feature_matrix(0.0, 300.0, num_steps=16)
            assert np.array_equal(tensor[row], direct)

    def test_batched_after_appends_sees_new_samples(self):
        manager = self._populated_manager(num_users=4, seed=2)
        before = manager.feature_tensor(0.0, 1200.0, num_steps=12)
        manager.twin(0).record_batch(CHANNEL_CONDITION, [950.0], [[99.0]])
        after = manager.feature_tensor(0.0, 1200.0, num_steps=12)
        assert not np.array_equal(before, after)
