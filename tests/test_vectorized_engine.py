"""Regression tests for the vectorized simulation engine and its bugfixes.

Covers four things:

* equivalence of a twin's store view of the population tables with the
  original list-backed store (kept here as a reference),
* equivalence of batched mobility/SNR sampling with the scalar code paths
  (SNR sample by sample on identical seeds, and in distribution over many
  samples), including a pinned-golden end-to-end run of the engine,
* the swipe-truncation bugfix (a watch cut short only by the interval
  boundary is not a swipe),
* the outage-accounting bugfix (infinite-demand groups are surfaced, not
  silently dropped) and the order-independence of group demand predictions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SimulationConfig, StreamingSimulator
from repro.behavior.watching import WatchRecord
from repro.core.config import SchemeConfig
from repro.core.demand import GroupDemandPredictor, GroupDemandPrediction
from repro.core.swiping import abstract_group_swiping
from repro.mobility.campus import CampusConfig, CampusMap
from repro.mobility.trajectory import WalkTable
from repro.net.basestation import BaseStation
from repro.sim.simulator import GroupIntervalUsage, IntervalResult, singleton_grouping
from repro.twin.attributes import CHANNEL_CONDITION, PREFERENCE, standard_attributes
from repro.twin.manager import DigitalTwinManager
from repro.twin.attributes import AttributeSpec
from repro.twin.udt import UserDigitalTwin
from repro.video.catalog import CatalogConfig, VideoCatalog
from walk_reference import StaticMobility


class ReferenceStore:
    """The original list-backed store semantics (pre-vectorization)."""

    def __init__(self, dimension):
        self.dimension = dimension
        self._samples = []

    def append(self, timestamp_s, value):
        value = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if self._samples and timestamp_s < self._samples[-1][0]:
            raise ValueError("timestamps must be non-decreasing")
        self._samples.append((float(timestamp_s), value))

    def timestamps(self):
        return np.array([t for t, _ in self._samples])

    def values(self):
        if not self._samples:
            return np.zeros((0, self.dimension))
        return np.vstack([v for _, v in self._samples])

    def window_values(self, start_s, end_s):
        rows = [v for t, v in self._samples if start_s <= t < end_s]
        if not rows:
            return np.zeros((0, self.dimension))
        return np.vstack(rows)

    def resample(self, times_s):
        times = np.asarray(times_s, dtype=np.float64)
        if not self._samples:
            return np.zeros((times.shape[0], self.dimension))
        sample_times = self.timestamps()
        values = self.values()
        indices = np.searchsorted(sample_times, times, side="right") - 1
        indices = np.clip(indices, 0, len(self._samples) - 1)
        return values[indices]


def _store(dimension):
    """A fresh twin's store of one ``dimension``-wide attribute."""
    twin = UserDigitalTwin(0, attributes={"x": AttributeSpec("x", dimension, 1.0)})
    return twin.store("x")


class TestTimeSeriesStoreEquivalence:
    @pytest.mark.parametrize("dimension", [1, 3])
    def test_random_workload_matches_reference(self, dimension):
        rng = np.random.default_rng(42)
        store = _store(dimension)
        reference = ReferenceStore(dimension=dimension)
        t = 0.0
        for _ in range(200):
            t += float(rng.uniform(0.0, 2.0))
            value = rng.normal(size=dimension)
            store.append_batch([t], value[None, :])
            reference.append(t, value)
        np.testing.assert_array_equal(store.timestamps(), reference.timestamps())
        np.testing.assert_array_equal(store.values(), reference.values())
        assert store.latest_timestamp_s() == reference.timestamps()[-1]
        np.testing.assert_array_equal(store.latest_value(), reference.values()[-1])
        for lo, hi in [(0.0, t), (t / 3, 2 * t / 3), (t, t), (t + 1, t + 2)]:
            np.testing.assert_array_equal(
                store.window_values(lo, hi), reference.window_values(lo, hi)
            )
        grid = np.linspace(-1.0, t + 5.0, 57)
        resampled = np.empty((grid.shape[0], dimension))
        store.resample_into(grid, resampled)
        np.testing.assert_array_equal(resampled, reference.resample(grid))

    def test_append_batch_matches_sequential_appends(self):
        rng = np.random.default_rng(1)
        timestamps = np.cumsum(rng.uniform(0.0, 1.0, size=50))
        values = rng.normal(size=(50, 2))
        sequential = _store(2)
        batched = _store(2)
        for t, v in zip(timestamps, values):
            sequential.append_batch([t], v[None, :])
        batched.append_batch(timestamps, values)
        np.testing.assert_array_equal(sequential.timestamps(), batched.timestamps())
        np.testing.assert_array_equal(sequential.values(), batched.values())
        assert len(batched) == 50

    def test_append_batch_rejects_unsorted_or_stale_timestamps(self):
        store = _store(1)
        with pytest.raises(ValueError):
            store.append_batch([1.0, 0.5], [[1.0], [2.0]])
        store.append_batch([5.0], [[1.0]])
        with pytest.raises(ValueError):
            store.append_batch([4.0], [[1.0]])
        assert store.append_batch([], np.zeros((0, 1))) == 0


class TestBatchedSamplingEquivalence:
    def _campus(self):
        return CampusMap.generate(CampusConfig(num_buildings=8), seed=3)

    def test_graph_mobility_positions_match_scalar(self):
        campus = self._campus()
        batched = WalkTable(campus, lambda _: 11)
        scalar = WalkTable(campus, lambda _: 11)
        times = np.linspace(0.0, 900.0, 301)
        batch = batched.positions([0], times)[0]
        single = np.array([scalar.positions([0], [float(t)])[0, 0] for t in times])
        np.testing.assert_array_equal(batch, single)

    def test_static_positions(self):
        model = StaticMobility([3.0, 4.0])
        np.testing.assert_array_equal(
            model.positions([0.0, 10.0]), [[3.0, 4.0], [3.0, 4.0]]
        )

    def test_batched_snr_matches_scalar_on_identical_seed(self):
        """One sample per call walks the generator exactly like the scalar
        sampler, so per-point streams give identical values."""
        bs = BaseStation(bs_id=0, position=np.array([100.0, 100.0]))
        points = np.random.default_rng(0).uniform(0.0, 500.0, size=(64, 2))
        batch = [
            bs.sample_snr_db_batch(p[None, :], rng=np.random.default_rng(99 + i))[0]
            for i, p in enumerate(points)
        ]
        scalar = [
            bs.sample_snr_db(p, rng=np.random.default_rng(99 + i))
            for i, p in enumerate(points)
        ]
        np.testing.assert_array_equal(batch, scalar)
        np.testing.assert_array_equal(bs.mean_snr_db_batch(points),
                                      [bs.mean_snr_db(p) for p in points])

    def test_fast_draw_mode_same_distribution_shape(self):
        """Whole-array draws: same channel statistics as the scalar sampler."""
        bs = BaseStation(bs_id=0, position=np.array([0.0, 0.0]))
        points = np.tile([50.0, 50.0], (2000, 1))
        batch = bs.sample_snr_db_batch(points, rng=np.random.default_rng(7))
        scalar_rng = np.random.default_rng(7)
        scalar = np.array([bs.sample_snr_db(p, rng=scalar_rng) for p in points])
        assert batch.shape == scalar.shape == (2000,)
        assert abs(batch.mean() - scalar.mean()) < 1.5
        assert abs(batch.std() - scalar.std()) < 1.0

    def test_engine_reproduces_pre_vectorization_goldens(self):
        """Pinned totals of the interval engine at seed 123.

        Re-pinned when the keyed-stream engine became the only one (the
        scalar-era values belonged to the retired shared-generator engine).
        """
        golden = [
            (4791784758.3148, 44.37521117432454, 3650000000.0, 29.73694646560685),
            (4816390023.011119, 44.60307278997928, 3950000000.0, 25.454096200261446),
        ]
        sim = StreamingSimulator(
            SimulationConfig(
                num_users=8, num_videos=40, interval_s=120.0, seed=123
            )
        )
        for expected in golden:
            result = sim.run_interval(singleton_grouping(sim.user_ids()))
            observed = (
                result.total_traffic_bits,
                result.total_resource_blocks,
                result.total_computing_cycles,
                result.mean_snr_by_user[0],
            )
            assert observed == expected


class TestSwipeTruncationFix:
    def test_boundary_truncated_completion_is_not_a_swipe(self):
        sim = StreamingSimulator(
            SimulationConfig(num_users=3, num_videos=10, interval_s=45.0, seed=5)
        )
        # Every user intends to watch to the very end; anything shorter in the
        # records can only come from the interval boundary cap.
        sim.watching_model.sample_watch_durations = (
            lambda video, weights, rng: np.full(len(weights), float(video.duration_s))
        )
        result = sim.run_interval(singleton_grouping(sim.user_ids()))
        records = [r for user_records in result.events_by_user.values() for r in user_records]
        assert records
        truncated = [
            r for r in records if r.watch_duration_s < r.video_duration_s - 1e-9
        ]
        assert truncated, "expected at least one boundary-truncated watch"
        assert all(not r.swiped for r in records), (
            "a watch truncated only by the interval boundary must not count as a swipe"
        )

    def test_intended_short_watch_is_still_a_swipe(self):
        sim = StreamingSimulator(
            SimulationConfig(num_users=2, num_videos=10, interval_s=200.0, seed=5)
        )
        sim.watching_model.sample_watch_durations = (
            lambda video, weights, rng: np.full(len(weights), float(video.duration_s) * 0.25)
        )
        result = sim.run_interval(singleton_grouping(sim.user_ids()))
        records = [r for user_records in result.events_by_user.values() for r in user_records]
        assert records
        # All intended durations are strictly below the video duration.
        assert all(r.swiped for r in records)


def _usage(group_id, blocks):
    return GroupIntervalUsage(
        group_id=group_id,
        member_ids=[group_id],
        traffic_bits=1e6,
        efficiency_bps_hz=0.0 if not np.isfinite(blocks) else 2.0,
        representation_name="r",
        resource_blocks=blocks,
        computing_cycles=1e9,
        videos_played=3,
        engagement_seconds=30.0,
    )


class TestOutageAccounting:
    def test_interval_result_surfaces_outage_groups(self):
        result = IntervalResult(interval_index=0, start_s=0.0, end_s=300.0)
        result.usage_by_group[0] = _usage(0, 12.5)
        result.usage_by_group[1] = _usage(1, float("inf"))
        result.usage_by_group[2] = _usage(2, 7.5)
        assert result.outage_groups == [1]
        assert result.total_resource_blocks == pytest.approx(20.0)

    def test_no_outage_groups_in_normal_interval(self):
        result = IntervalResult(interval_index=0, start_s=0.0, end_s=300.0)
        result.usage_by_group[0] = _usage(0, 3.0)
        assert result.outage_groups == []

    def test_prediction_outage_groups(self):
        def prediction(group_id, blocks):
            return GroupDemandPrediction(
                group_id=group_id,
                member_ids=[group_id],
                expected_traffic_bits=1e6,
                expected_engagement_s=10.0,
                expected_videos=2.0,
                radio_resource_blocks=blocks,
                computing_cycles=1e9,
                efficiency_bps_hz=0.0 if not np.isfinite(blocks) else 1.0,
                representation_name="r",
            )

        predictions = {0: prediction(0, 4.0), 1: prediction(1, float("inf"))}
        # The outage group's infinite demand stays out of the schedulable total.
        assert GroupDemandPredictor.total_radio_blocks(predictions) == pytest.approx(4.0)

    def test_simulator_records_outage_metric(self):
        sim = StreamingSimulator(
            SimulationConfig(num_users=2, num_videos=10, interval_s=30.0, seed=0)
        )
        result = sim.run_interval(singleton_grouping(sim.user_ids()))
        for group_id in result.outage_groups:
            assert np.isinf(result.usage_by_group[group_id].resource_blocks)
        assert np.isfinite(result.total_resource_blocks)


class TestPredictionOrderIndependence:
    def _twins(self):
        categories = ("News", "Game", "Music", "Sports")
        twins = DigitalTwinManager(attributes=standard_attributes(num_categories=4))
        rng = np.random.default_rng(17)
        for uid in range(4):
            twin = twins.register_user(uid)
            times = np.arange(20) * 15.0
            twin.record_batch(
                CHANNEL_CONDITION, times, [[20.0 + rng.normal()] for _ in times]
            )
            twin.record_batch(PREFERENCE, [0.0], [[0.4, 0.3, 0.2, 0.1]])
            twin.record_watches(
                [
                    WatchRecord(
                        user_id=uid,
                        video_id=k,
                        category=categories[k % 4],
                        watch_duration_s=5.0 + k,
                        video_duration_s=30.0,
                        swiped=k % 3 != 0,
                        timestamp_s=float(k * 20),
                    )
                    for k in range(12)
                ]
            )
        return twins, categories

    def _predictor(self):
        catalog = VideoCatalog.generate(CatalogConfig(num_videos=30, seed=2))
        return GroupDemandPredictor(
            catalog, SimulationConfig(interval_s=120.0), SchemeConfig(mc_rollouts=6, seed=9)
        )

    @staticmethod
    def _predict(predictor, grouping, twins, categories):
        """Abstract and predict every group in ``grouping``'s order."""
        predictions = {}
        for group_id, member_ids in grouping.items():
            profile = abstract_group_swiping(
                group_id, member_ids, twins, categories, start_s=0.0, end_s=300.0
            )
            predictions[group_id] = predictor.predict_group(profile, twins, 0.0, 300.0)
        return predictions

    def test_prediction_invariant_under_group_order(self):
        twins, categories = self._twins()
        predictor = self._predictor()
        forward = self._predict(predictor, {0: [0, 1], 1: [2, 3]}, twins, categories)
        backward = self._predict(predictor, {1: [2, 3], 0: [0, 1]}, twins, categories)
        for group_id in (0, 1):
            a, b = forward[group_id], backward[group_id]
            assert a.expected_traffic_bits == b.expected_traffic_bits
            assert a.expected_engagement_s == b.expected_engagement_s
            assert a.expected_videos == b.expected_videos
            assert a.radio_resource_blocks == b.radio_resource_blocks
            assert a.computing_cycles == b.computing_cycles

    def test_prediction_reproducible_across_predictor_instances(self):
        twins, categories = self._twins()
        first = self._predict(self._predictor(), {0: [0, 1], 1: [2, 3]}, twins, categories)
        second = self._predict(self._predictor(), {0: [0, 1], 1: [2, 3]}, twins, categories)
        for group_id in (0, 1):
            assert (
                first[group_id].expected_traffic_bits
                == second[group_id].expected_traffic_bits
            )


class TestCollectorBatchEquivalence:
    def test_record_watches_matches_record_watch_loop(self):
        """One batch equals one call per record, out-of-order times included."""
        from repro.twin.udt import UserDigitalTwin

        records = [
            WatchRecord(0, k, "News", 3.0 + k, 30.0, swiped=True, timestamp_s=float(10 - k))
            for k in range(5)
        ]
        one = UserDigitalTwin(0)
        two = UserDigitalTwin(0)
        for record in records:
            one.record_watches([record])
        two.record_watches(records)
        assert one.watch_records() == two.watch_records()
        from repro.twin.attributes import WATCHING_DURATION

        np.testing.assert_array_equal(
            one.store(WATCHING_DURATION).timestamps(),
            two.store(WATCHING_DURATION).timestamps(),
        )
        np.testing.assert_array_equal(
            one.store(WATCHING_DURATION).values(),
            two.store(WATCHING_DURATION).values(),
        )
