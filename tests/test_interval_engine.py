"""Tests for the interval engine and the population feature tensor.

Covers:

* the population feature tensor of
  :class:`~repro.twin.manager.DigitalTwinManager`: exact equality with each
  twin's own ``feature_matrix`` across overlapping sliding history windows,
  misaligned and resized windows, late samples, empty stores and
  ``remove_user`` / ``register_user``,
* the interval engine: per-group keyed channel and watch streams with
  whole-array watch-duration draws, same-seed determinism and sound
  interval records,
* the scoped predict-then-observe loop: ``preview_scope`` purity and the
  full :class:`DTResourcePredictionScheme` run under
  ``controller_mode="handover"`` with per-cell series, and
* the satellites: ``Catalog.reference_ladder`` and rejection of the retired
  draw-engine names.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DTResourcePredictionScheme,
    SchemeConfig,
    SimulationConfig,
    StreamingSimulator,
)
from repro.behavior.watching import WatchingDurationModel
from repro.mobility import CampusConfig
from repro.scenario.registry import get_scenario
from repro.sim.simulator import singleton_grouping
from repro.twin.attributes import (
    CHANNEL_CONDITION,
    LOCATION,
    PREFERENCE,
    standard_attributes,
)
from repro.twin.manager import DigitalTwinManager
from repro.video.catalog import CatalogConfig, Video, VideoCatalog
from repro.video.representations import DEFAULT_LADDER, Representation, RepresentationLadder


# ------------------------------------------------------------ feature tensor
def _filled_manager(num_users: int = 6):
    manager = DigitalTwinManager(attributes=standard_attributes(num_categories=4))
    manager.register_users(range(num_users))
    return manager


def _feed_interval(manager: DigitalTwinManager, start_s: float, end_s: float, seed: int):
    """Deterministically append one interval of samples to every twin."""
    rng = np.random.default_rng(seed)
    times = np.arange(start_s, end_s, 5.0)
    for uid in manager.user_ids():
        twin = manager.twin(uid)
        twin.record_batch(CHANNEL_CONDITION, times, rng.normal(20.0, 3.0, (times.size, 1)))
        twin.record_batch(LOCATION, times, rng.uniform(0.0, 100.0, (times.size, 2)))
        twin.record_batch(PREFERENCE, [start_s], rng.dirichlet(np.ones(4))[None, :])


def _fed_manager():
    manager = _filled_manager()
    for k in range(4):
        _feed_interval(manager, k * 120.0, (k + 1) * 120.0, seed=k)
    return manager


def _assert_matches_twins(manager, start_s, end_s, num_steps=32):
    """The population tensor equals every twin's own feature matrix."""
    tensor = manager.feature_tensor(start_s, end_s, num_steps=num_steps)
    for row, uid in enumerate(manager.user_ids()):
        np.testing.assert_array_equal(
            tensor[row],
            manager.twin(uid).feature_matrix(start_s, end_s, num_steps=num_steps),
        )


class TestIncrementalFeatureCache:
    """Window patterns the retired per-user cache special-cased.

    The batched tensor carries no state between calls, so each pattern
    must simply match the per-twin reference.
    """

    def test_sliding_windows_match_full_recompute_exactly(self):
        manager = _fed_manager()
        # Window of 4 intervals sliding by 1 interval: 32 steps over 480 s
        # gives dt=15 s and an 8-row slide, the pipeline's exact pattern.
        for k in range(4, 9):
            end = (k + 1) * 120.0
            _feed_interval(manager, end - 120.0, end, seed=k)
            _assert_matches_twins(manager, end - 480.0, end)

    def test_mid_window_append_recomputes_affected_rows(self):
        manager = _fed_manager()
        uid = manager.user_ids()[0]
        _assert_matches_twins(manager, 0.0, 480.0)
        # A late sample lands inside the next window.
        manager.twin(uid).record_batch(CHANNEL_CONDITION, [480.0], [[99.0]])
        _assert_matches_twins(manager, 120.0, 600.0)

    def test_misaligned_and_resized_windows_fall_back_correctly(self):
        manager = _fed_manager()
        for start, end, steps in [(0.0, 480.0, 32), (7.0, 481.0, 32), (0.0, 480.0, 16), (3.3, 477.7, 31)]:
            _assert_matches_twins(manager, start, end, num_steps=steps)

    def test_first_sample_into_empty_store_backfills_cached_rows(self):
        """ZOH backfill: an empty store resamples to zeros, and its very
        first sample then fills every grid row before its timestamp via the
        clamp-to-first-sample rule."""
        manager = _filled_manager(num_users=1)
        times = np.arange(0.0, 480.0, 5.0)
        # Channel data only; the other stores stay empty (zeros).
        manager.twin(0).record_batch(CHANNEL_CONDITION, times, np.full((times.size, 1), 20.0))
        _assert_matches_twins(manager, 0.0, 480.0)
        # First-ever preference sample lands after the whole window.
        manager.twin(0).record_batch(PREFERENCE, [500.0], [[0.7, 0.1, 0.1, 0.1]])
        tensor = manager.feature_tensor(0.0, 480.0, num_steps=32)
        np.testing.assert_array_equal(tensor[0, :, -4:], [[0.7, 0.1, 0.1, 0.1]] * 32)
        _assert_matches_twins(manager, 0.0, 480.0)
        # Same for a mid-window first sample.
        manager.twin(0).record_batch(LOCATION, [530.0], [[5.0, 6.0]])
        _assert_matches_twins(manager, 120.0, 600.0)

    def test_remove_and_reregister_invalidates(self):
        manager = _fed_manager()
        uid = manager.user_ids()[0]
        stale = manager.feature_tensor(0.0, 480.0, num_steps=32)[0].copy()
        manager.remove_user(uid)
        manager.register_user(uid)
        fresh = manager.feature_tensor(0.0, 480.0, num_steps=32)[0]
        # The new twin is empty, so its rows must be all zeros — any reuse
        # of the removed user's rows would leak the old data.
        np.testing.assert_array_equal(fresh, np.zeros_like(stale))
        assert not np.array_equal(stale, fresh)


# ------------------------------------------------------------ interval engine
def _interval_signature(result):
    return (
        result.total_traffic_bits,
        result.total_resource_blocks,
        result.total_computing_cycles,
        tuple(sorted(result.mean_snr_by_user.items())),
    )


class TestBatchedPlaybackEngine:
    def _config(self, **overrides):
        options = dict(
            num_users=10, num_videos=30, interval_s=90.0, seed=31
        )
        options.update(overrides)
        return SimulationConfig(**options)

    def _grouping(self, sim):
        ids = sim.user_ids()
        return {0: ids[: len(ids) // 2], 1: ids[len(ids) // 2 :]}

    def test_fast_mode_is_deterministic_across_runs(self):
        def run():
            sim = StreamingSimulator(self._config())
            return [
                _interval_signature(sim.run_interval(self._grouping(sim)))
                for _ in range(2)
            ]

        assert run() == run()

    def test_fast_mode_produces_sound_intervals(self):
        sim = StreamingSimulator(self._config())
        result = sim.run_interval(self._grouping(sim))
        assert set(result.mean_snr_by_user) == set(sim.user_ids())
        assert result.total_traffic_bits > 0.0
        for records in result.events_by_user.values():
            for record in records:
                assert 0.0 <= record.watch_duration_s <= record.video_duration_s + 1e-9
        # The engine must respect the worst-member rule per group.
        for usage in result.usage_by_group.values():
            member_mean = min(result.mean_snr_by_user[uid] for uid in usage.member_ids)
            assert np.isfinite(member_mean)

    def test_fast_mode_handles_singleton_groups(self):
        sim = StreamingSimulator(self._config(num_users=4))
        result = sim.run_interval(singleton_grouping(sim.user_ids()))
        assert len(result.usage_by_group) == 4

    def test_batched_duration_sampler_statistics(self):
        model = WatchingDurationModel()
        video = Video(
            video_id=0,
            category="News",
            duration_s=30.0,
            segment_duration_s=1.0,
            ladder=DEFAULT_LADDER,
            segment_sizes={r.name: np.ones(30) for r in DEFAULT_LADDER},
        )
        weights = np.full(20000, 0.4)
        batched = model.sample_watch_durations(video, weights, np.random.default_rng(3))
        assert batched.shape == weights.shape
        assert np.all((batched >= 0.0) & (batched <= video.duration_s))
        completed = batched == video.duration_s
        # Completion probability and conditional mean match the scalar model.
        assert completed.mean() == pytest.approx(
            model.completion_probability(0.4), abs=0.01
        )
        expected_fraction = model.mean_watched_fraction(0.4)
        assert (batched[~completed] / video.duration_s).mean() == pytest.approx(
            expected_fraction, abs=0.02
        )


# ----------------------------------------------------- scoped prediction loop
def _handover_scheme(num_users=12, num_cells=4, seed=3):
    sim = StreamingSimulator(
        SimulationConfig(
            num_users=num_users,
            num_videos=25,
            interval_s=120.0,
            num_base_stations=num_cells,
            campus=CampusConfig(width_m=1200.0, height_m=1000.0),
            controller_mode="handover",
            seed=seed,
        )
    )
    scheme = DTResourcePredictionScheme(
        sim,
        SchemeConfig(
            warmup_intervals=2,
            cnn_epochs=2,
            ddqn_episodes=3,
            mc_rollouts=3,
            min_groups=2,
            max_groups=4,
            k_strategy="fixed",
            fixed_k=3,
        ),
    )
    return scheme


class TestScopedPredictionLoop:
    def test_preview_scope_is_pure_and_consistent(self):
        sim = StreamingSimulator(
            SimulationConfig(
                num_users=10,
                num_videos=20,
                num_base_stations=4,
                campus=CampusConfig(width_m=1200.0, height_m=1000.0),
                controller_mode="handover",
                seed=11,
            )
        )
        grouping = {0: sim.user_ids()[:5], 1: sim.user_ids()[5:]}
        controller = sim.controller
        scoping = controller.app("cell_scoping")
        footprints_before = dict(scoping._group_cells)
        preview_scoped, preview_cells = sim.preview_scoped_grouping(grouping)
        # Preview mutates nothing: no events, no footprint state.
        assert len(controller.events) == 0
        assert scoping._group_cells == footprints_before
        # And it matches what scope_grouping then actually produces.
        scoped, cell_of_group, _ = controller.scope_grouping(grouping, time_s=0.0)
        assert preview_scoped == scoped
        assert preview_cells == cell_of_group

    def test_boundary_mode_preview_is_identity(self):
        sim = StreamingSimulator(SimulationConfig(num_users=4, num_videos=10, seed=0))
        grouping = {7: sim.user_ids()[:2], 9: sim.user_ids()[2:]}
        scoped, cell_of_group = sim.preview_scoped_grouping(grouping)
        assert scoped == {7: grouping[7], 9: grouping[9]}
        assert cell_of_group == {}

    def test_scheme_runs_under_handover_with_per_cell_series(self):
        scheme = _handover_scheme()
        result = scheme.run(num_intervals=2)
        assert result.num_intervals == 2
        cells = result.cells()
        assert cells, "expected at least one cell to carry demand"
        predicted = result.predicted_radio_series_by_cell()
        actual = result.actual_radio_series_by_cell()
        accuracy = result.radio_accuracy_series_by_cell()
        for cell_id in cells:
            assert predicted[cell_id].shape == (2,)
            assert actual[cell_id].shape == (2,)
            assert np.all((accuracy[cell_id] >= 0.0) & (accuracy[cell_id] <= 1.0))
        for evaluation in result.intervals:
            # Scoped prediction ids line up with the groups actually played.
            assert set(evaluation.predictions) == set(evaluation.actual.usage_by_group)
            assert sum(evaluation.actual_radio_by_cell.values()) == pytest.approx(
                evaluation.actual_radio_blocks
            )
        payload = result.to_dict()
        assert "mean_radio_accuracy_by_cell" in payload["summary"]
        assert payload["intervals"][0]["actual_radio_by_cell"]

    def test_boundary_scheme_keeps_logical_ids_and_empty_cell_series(self):
        sim = StreamingSimulator(
            SimulationConfig(num_users=8, num_videos=20, interval_s=120.0, seed=5)
        )
        scheme = DTResourcePredictionScheme(
            sim,
            SchemeConfig(
                warmup_intervals=2,
                cnn_epochs=2,
                ddqn_episodes=3,
                mc_rollouts=3,
                k_strategy="fixed",
                fixed_k=2,
            ),
        )
        result = scheme.run(num_intervals=2)
        assert result.cells() == []
        for evaluation in result.intervals:
            assert evaluation.predicted_radio_by_cell == {}
            assert set(evaluation.predictions) == set(
                evaluation.grouping.groups()
            ), "boundary mode must predict against the logical groups"


# ------------------------------------------------------------------ satellites
class TestReferenceLadder:
    def test_homogeneous_catalog_returns_shared_ladder(self):
        catalog = VideoCatalog.generate(CatalogConfig(num_videos=12, seed=1))
        ladder = catalog.reference_ladder()
        assert list(ladder) == list(DEFAULT_LADDER)
        assert catalog.reference_ladder() is ladder  # memoized

    def test_heterogeneous_catalog_raises(self):
        def video(video_id, ladder):
            return Video(
                video_id=video_id,
                category="News",
                duration_s=10.0,
                segment_duration_s=1.0,
                ladder=ladder,
                segment_sizes={r.name: np.ones(10) for r in ladder},
            )

        other = RepresentationLadder(
            [Representation(bitrate_kbps=100.0, name="tiny", width=160, height=90)]
        )
        catalog = VideoCatalog([video(0, DEFAULT_LADDER), video(1, other)])
        with pytest.raises(ValueError, match="heterogeneous"):
            catalog.reference_ladder()


class TestDrawModeDefaults:
    def test_unknown_mode_rejected(self):
        """Retired or unknown engine names fail at spec level, overrides included."""
        for mode in ("compat", "fast", "scalar"):
            with pytest.raises(ValueError, match="channel_draw_mode"):
                get_scenario("campus_fig3", {"engine.channel_draw_mode": mode})
        spec = get_scenario("campus_fig3", {"engine.channel_draw_mode": "grouped"})
        assert spec.engine.channel_draw_mode == "grouped"
