"""The population twin tables against the per-user stores they replaced.

Every test feeds the same group appends to :class:`DigitalTwinManager` and
to :class:`twin_reference.ReferenceTwinManager` (the per-store twins, moved
here unchanged) and compares the reads bit for bit; the scheme's group reads
(swipe estimator, link-state means) are held to their per-record and
per-member references in ``swiping_reference``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.behavior.preference import PreferenceVector
from repro.behavior.swiping import SwipeProbabilityEstimator
from repro.behavior.watching import WatchBlock, WatchRecord
from repro.core.config import SchemeConfig
from repro.core.demand import GroupDemandPredictor
from repro.core.swiping import abstract_group_swiping
from repro.net.mcs import spectral_efficiency
from repro.sim import SimulationConfig, StreamingSimulator, singleton_grouping
from repro.twin import CollectedStatus, DigitalTwinManager, StatusBlock, standard_attributes
from repro.twin.attributes import CHANNEL_CONDITION, PREFERENCE
from repro.video.catalog import CatalogConfig, VideoCatalog
from swiping_reference import ReferenceSwipeEstimator, record_columns, reference_member_means
from twin_reference import ReferenceTwinManager

CATEGORIES = ("News", "Game", "Music")
INTERVAL_S = 60.0


def _status(rng, member_ids, start_s, delay_s, lossy):
    """A random collected status of one group over ``[start_s, start_s + 60)``.

    Each member's run of each attribute has 0-5 samples (lossy) or 1-5, at
    sorted times shifted by ``delay_s``; the watch block has 0-4 videos, and
    a lossy keep mask drops about a third of the records.
    """
    attributes = standard_attributes(num_categories=len(CATEGORIES))
    members = len(member_ids)
    samples = {}
    for name in (CHANNEL_CONDITION, "location", PREFERENCE):
        counts = rng.integers(0 if lossy else 1, 6, size=members)
        times = np.concatenate(
            [np.sort(rng.uniform(start_s, start_s + INTERVAL_S, count)) for count in counts]
        )
        if rng.random() < 0.3:
            # Whole seconds: some runs repeat a timestamp.
            times = np.floor(times)
        total = int(counts.sum())
        dimension = attributes[name].dimension
        if name == PREFERENCE:
            values = rng.dirichlet(np.ones(dimension), size=total)
        else:
            values = rng.normal(size=(total, dimension))
        samples[name] = StatusBlock(counts, times + delay_s, values)
    videos = int(rng.integers(0, 5))
    lengths = rng.uniform(5.0, 20.0, videos)
    durations = lengths * rng.uniform(0.0, 1.0, (members, videos))
    watches = WatchBlock(
        member_ids=np.array(member_ids, dtype=np.int64),
        video_ids=rng.integers(0, 50, videos).astype(np.int64),
        categories=tuple(rng.choice(CATEGORIES + ("Opera",), videos).tolist()),
        video_durations_s=lengths,
        start_times_s=np.sort(rng.uniform(start_s, start_s + INTERVAL_S, videos)),
        watch_durations_s=durations,
        swiped=durations < lengths,
    )
    kept = rng.random((members, videos)) >= 0.35 if lossy else None
    return CollectedStatus(samples=samples, watches=watches, kept=kept)


def _play(seed, intervals, delay_s, lossy, churn):
    """The same random appends into the tables and into the per-user reference.

    Each interval splits the users into random groups (out of id order); with
    ``churn`` a user departs before some intervals (keeping or dropping their
    twin) and a new one arrives.  Returns both managers and every user id
    that was ever registered.
    """
    rng = np.random.default_rng(seed)
    attributes = standard_attributes(num_categories=len(CATEGORIES))
    tables, reference = DigitalTwinManager(attributes), ReferenceTwinManager(attributes)
    users = list(range(int(rng.integers(1, 7))))
    for manager in (tables, reference):
        manager.register_users(users)
    ever = list(users)
    next_id = len(users)
    for interval in range(intervals):
        if churn and interval:
            if len(users) > 1 and rng.random() < 0.6:
                gone = users.pop(int(rng.integers(len(users))))
                if rng.random() < 0.5:
                    tables.remove_user(gone)
                    reference.remove_user(gone)
            if rng.random() < 0.7:
                users.append(next_id)
                ever.append(next_id)
                tables.register_user(next_id)
                reference.register_user(next_id)
                next_id += 1
        order = rng.permutation(users).tolist()
        cuts = []
        if len(order) > 1:
            cuts = np.sort(
                rng.choice(np.arange(1, len(order)), size=min(2, len(order) - 1), replace=False)
            )
        for group in np.split(np.array(order, dtype=np.int64), cuts):
            status = _status(rng, group.tolist(), interval * INTERVAL_S, delay_s, lossy)
            tables.append_group(group.tolist(), status)
            reference.append_group(group.tolist(), status)
    return tables, reference, ever


#: Windows read after a run of up to 4 intervals: whole intervals, windows
#: that straddle an interval boundary, one before any sample, one past the end.
WINDOWS = [
    (0.0, 60.0),
    (60.0, 120.0),
    (30.0, 95.0),
    (110.0, 250.0),
    (-50.0, -10.0),
    (-5.0, 7.5),
    (300.0, 400.0),
]


def _assert_reads_equal(tables, reference, user_ids):
    for uid in user_ids:
        if uid not in reference:
            assert uid not in tables
            continue
        twin, expected = tables.twin(uid), reference.twin(uid)
        for name in expected.attributes:
            store, old = twin.store(name), expected.store(name)
            assert np.array_equal(store.timestamps(), old.timestamps()), (uid, name)
            assert np.array_equal(store.values(), old.values()), (uid, name)
            assert store.values().shape == old.values().shape
            assert len(store) == len(old)
            assert store.latest_timestamp_s() == old.latest_timestamp_s()
            assert np.array_equal(store.latest_value(), old.latest_value())
            for window in WINDOWS:
                assert np.array_equal(store.window_values(*window), old.window_values(*window))
        assert twin.watch_records() == expected.watch_records()
        for window in WINDOWS:
            assert twin.watch_records(*window) == expected.watch_records(*window), (uid, window)
    registered = reference.user_ids()
    assert tables.user_ids() == registered
    if not registered:
        return
    shuffled = registered[::-1]
    for window in WINDOWS:
        for steps in (1, 7, 32):
            assert np.array_equal(
                tables.feature_tensor(*window, num_steps=steps, user_ids=shuffled),
                reference.feature_tensor(*window, num_steps=steps, user_ids=shuffled),
            ), (window, steps)
        columns = tables.watch_columns(shuffled, *window).records()
        assert columns == reference.watch_records(shuffled, *window)
        for name in (CHANNEL_CONDITION, "location"):
            means, counts = tables.window_means(name, shuffled, *window)
            old = [reference.twin(uid).store(name).window_values(*window) for uid in shuffled]
            assert counts.tolist() == [values.shape[0] for values in old]
            assert means.tolist() == [
                float(values.mean()) if values.size else 0.0 for values in old
            ]
    expected = [reference.twin(uid).store(PREFERENCE).latest_value() for uid in shuffled]
    assert np.array_equal(tables.latest_values(PREFERENCE, shuffled), np.vstack(expected))


class TestTablesMatchPerUserStores:
    @settings(max_examples=60, deadline=None)
    @example(seed=3, intervals=4, delay_s=7.0, lossy=True, churn=True)
    @example(seed=8, intervals=3, delay_s=0.0, lossy=False, churn=False)
    @example(seed=11, intervals=1, delay_s=7.0, lossy=True, churn=False)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        intervals=st.integers(min_value=1, max_value=4),
        delay_s=st.sampled_from([0.0, 7.0, 45.0]),
        lossy=st.booleans(),
        churn=st.booleans(),
    )
    def test_every_read_equals_the_reference(self, seed, intervals, delay_s, lossy, churn):
        tables, reference, ever = _play(seed, intervals, delay_s, lossy, churn)
        _assert_reads_equal(tables, reference, ever)

    def test_reads_between_appends_equal_the_reference(self):
        """Reads interleaved with appends see exactly the appends before them."""
        rng = np.random.default_rng(5)
        attributes = standard_attributes(num_categories=len(CATEGORIES))
        tables, reference = DigitalTwinManager(attributes), ReferenceTwinManager(attributes)
        for manager in (tables, reference):
            manager.register_users(range(5))
        for interval in range(4):
            for group in ([3, 0], [4, 1, 2]):
                status = _status(rng, group, interval * INTERVAL_S, 7.0, lossy=True)
                tables.append_group(group, status)
                reference.append_group(group, status)
                _assert_reads_equal(tables, reference, range(5))


def _state(manager):
    """Every row, chunk and watch index of ``manager``'s tables, as bytes."""
    state = [sorted(manager._row_of.items()), manager._num_rows]
    for table in manager._tables.values():
        state += [table.num_rows, table._sizes.tobytes(), table._tails.tobytes()]
        state += [table._first.tobytes(), table._last.tobytes()]
        for chunk in table._chunks:
            state += [chunk.times.tobytes(), chunk.fill.tobytes(), chunk.earliest, chunk.latest]
            values = chunk.values[np.isfinite(chunk.times)]
            state.append(values.tobytes())
    watches = manager._watches
    state += [watches.num_rows, len(watches._blocks)]
    for chunk in watches._chunks:
        state += [chunk.block_of.tobytes(), chunk.row_in_block.tobytes()]
        state += [chunk.earliest, chunk.latest]
    return state


class TestChurnAndRejection:
    def test_departed_users_twin_stays_readable(self):
        """The default removal keeps the twin: reads before and after match."""
        sim = StreamingSimulator(SimulationConfig(num_users=4, num_videos=20, interval_s=60.0, seed=3))
        sim.run_interval(singleton_grouping(sim.user_ids()))
        before = sim.twins.twin(2)
        contents = {name: before.store(name).values().tobytes() for name in before.attributes}
        records = before.watch_records()
        assert records and all(contents.values())
        sim.remove_user(2)
        sim.run_interval(singleton_grouping(sim.user_ids()))
        twin = sim.twins.twin(2)
        assert {name: twin.store(name).values().tobytes() for name in twin.attributes} == contents
        assert twin.watch_records() == records
        assert 2 in sim.twins.user_ids()

    def test_dropped_twin_is_never_seen_again(self):
        """After ``keep_twin=False`` neither a re-registered id nor a newcomer
        reads the removed twin's samples or records."""
        sim = StreamingSimulator(SimulationConfig(num_users=4, num_videos=20, interval_s=60.0, seed=3))
        sim.run_interval(singleton_grouping(sim.user_ids()))
        assert sim.twins.twin(1).watch_records()
        sim.remove_user(1, keep_twin=False)
        assert 1 not in sim.twins
        with pytest.raises(KeyError):
            sim.twins.twin(1)
        newcomer = sim.add_user()
        sim.twins.register_user(1)
        for uid in (1, newcomer):
            twin = sim.twins.twin(uid)
            for name in twin.attributes:
                store = twin.store(name)
                assert len(store) == 0 and store.values().shape[0] == 0
                assert store.window_values(0.0, 60.0).shape[0] == 0
                assert not store.latest_value().any()
            assert twin.watch_records() == []
            assert sim.twins.watch_columns([uid]).watch_durations_s.size == 0
        tensor = sim.twins.feature_tensor(0.0, 60.0, num_steps=8, user_ids=[1, newcomer])
        assert not tensor.any()
        means, counts = sim.twins.window_means(CHANNEL_CONDITION, [1, newcomer])
        assert not counts.any() and not means.any()
        # The newcomer plays the next interval; user 1's new row stays empty.
        sim.run_interval(singleton_grouping(sim.user_ids()))
        assert sim.twins.twin(newcomer).watch_records(60.0, 120.0) == sim.twins.twin(newcomer).watch_records()
        assert all(record.timestamp_s >= 60.0 for record in sim.twins.twin(newcomer).watch_records())
        assert len(sim.twins.twin(1).store(CHANNEL_CONDITION)) == 0

    @pytest.mark.parametrize(
        "defect, error, message",
        [
            ("times_out_of_order", ValueError, "non-decreasing"),
            ("times_before_tail", ValueError, "non-decreasing"),
            ("values_wrong_shape", ValueError, "shape"),
            ("counts_wrong_length", ValueError, "run lengths"),
            ("records_of_other_users", ValueError, "pushed to the UDTs"),
            ("keep_mask_wrong_shape", ValueError, "keep mask of shape"),
            ("duplicate_member", ValueError, "distinct"),
            ("unregistered_member", KeyError, "no digital twin registered for user 9"),
            ("unknown_attribute", KeyError, "no attribute 'heart_rate'"),
        ],
    )
    def test_rejected_group_leaves_every_row_chunk_and_index(self, defect, error, message):
        rng = np.random.default_rng(2)
        manager = DigitalTwinManager(standard_attributes(num_categories=len(CATEGORIES)))
        manager.register_users(range(4))
        manager.append_group([0, 1, 2, 3], _status(rng, [0, 1, 2, 3], 0.0, 0.0, lossy=False))
        before = _state(manager)
        members = [2, 0, 1]
        status = _status(rng, members, INTERVAL_S, 0.0, lossy=True)
        channel = status.samples[CHANNEL_CONDITION]
        blocks = dict(status.samples)
        if defect == "times_out_of_order":
            blocks[CHANNEL_CONDITION] = StatusBlock(
                np.array([3, 0, 0]), np.array([61.0, 63.0, 62.0]), np.zeros((3, 1))
            )
        elif defect == "times_before_tail":
            blocks[CHANNEL_CONDITION] = StatusBlock(
                np.array([1, 0, 0]), np.array([-1.0]), np.zeros((1, 1))
            )
        elif defect == "values_wrong_shape":
            blocks[CHANNEL_CONDITION] = channel._replace(
                values=np.zeros((channel.timestamps.shape[0], 2))
            )
        elif defect == "counts_wrong_length":
            blocks[CHANNEL_CONDITION] = channel._replace(counts=channel.counts[:2])
        elif defect == "records_of_other_users":
            status = status._replace(watches=status.watches._replace(member_ids=np.array([2, 0, 3])))
        elif defect == "keep_mask_wrong_shape":
            videos = status.watches.video_ids.shape[0]
            status = status._replace(kept=np.ones((3, videos + 1), dtype=bool))
        elif defect == "duplicate_member":
            members = [2, 0, 2]
            status = status._replace(watches=status.watches._replace(member_ids=np.array(members)))
        elif defect == "unregistered_member":
            members = [2, 0, 9]
        else:
            blocks["heart_rate"] = channel
        status = status._replace(samples=blocks)
        with pytest.raises(error, match=re.escape(message)):
            manager.append_group(members, status)
        assert _state(manager) == before


class TestGroupReadsMatchReferences:
    @settings(max_examples=80, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(CATEGORIES + ("Opera",)),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.5, max_value=40.0),
            ),
            max_size=60,
        ),
        smoothing=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_array_estimator_equals_per_record_estimator(self, records, smoothing):
        watch = [
            WatchRecord(0, k, category, fraction * length, length, swiped=fraction < 1.0)
            for k, (category, fraction, length) in enumerate(records)
        ]
        estimator = SwipeProbabilityEstimator(CATEGORIES, laplace_smoothing=smoothing)
        estimator.observe(*record_columns(watch, CATEGORIES))
        reference = ReferenceSwipeEstimator(CATEGORIES, laplace_smoothing=smoothing)
        reference.observe_many(watch)
        for name in ("_swipes", "_counts", "_watched_fraction_sum", "_engagement_seconds"):
            assert getattr(estimator, name) == getattr(reference, name), name
        assert estimator.swipe_distribution() == reference.swipe_distribution()
        assert estimator.watched_fraction_distribution() == reference.watched_fraction_distribution()
        assert estimator.category_watch_share() == reference.category_watch_share()
        assert estimator.cumulative_distribution() == reference.cumulative_distribution()

    @settings(max_examples=40, deadline=None)
    @example(seed=4, delay_s=7.0, lossy=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        delay_s=st.sampled_from([0.0, 7.0, 45.0]),
        lossy=st.booleans(),
    )
    def test_group_reads_equal_per_member_references(self, seed, delay_s, lossy):
        """Link-state means (ragged lossy windows included) and the swiping
        profile equal their per-member and per-record references."""
        tables, reference, _ = _play(seed, 3, delay_s, lossy, churn=False)
        catalog = VideoCatalog.generate(CatalogConfig(num_videos=30, seed=2))
        predictor = GroupDemandPredictor(
            catalog, SimulationConfig(interval_s=INTERVAL_S), SchemeConfig(seed=9)
        )
        loss = predictor.sim_config.implementation_loss
        users = tables.user_ids()[::-1]
        for window in ((60.0, 120.0), (120.0, 180.0), (100.0, 130.0), (-20.0, -10.0), (None, None)):
            expected = min(reference_member_means(reference, users, *window))
            efficiency, _ = predictor.predict_link_state(users, tables, *window)
            assert efficiency == spectral_efficiency(expected, implementation_loss=loss)
            profile = abstract_group_swiping(0, users, tables, list(CATEGORIES), *window)
            old = reference.watch_records(users, *window)
            estimator = ReferenceSwipeEstimator(CATEGORIES)
            estimator.observe_many(old)
            assert profile.num_observations == len(old)
            assert profile.swipe_probability == estimator.swipe_distribution()
            assert profile.mean_watched_fraction == estimator.watched_fraction_distribution()
            assert profile.engagement_share == estimator.category_watch_share()
            assert profile.cumulative_swiping == estimator.cumulative_distribution()
            if old:
                assert profile.mean_watch_duration_s == float(np.mean([r.watch_duration_s for r in old]))
            vectors = [reference.twin(uid).store(PREFERENCE).latest_value() for uid in users]
            mean_vector = np.mean(np.vstack(vectors), axis=0)
            if not np.any(mean_vector):
                mean_vector = np.ones(len(CATEGORIES))
            expected_preference = PreferenceVector(
                dict(zip(CATEGORIES, mean_vector)), categories=CATEGORIES
            )
            assert np.array_equal(
                profile.mean_preference.as_array(), expected_preference.as_array()
            )
