"""Tests for per-group RNG streams and process-sharded playback (PR 4).

Covers the tentpole and the three ground-truth fixes that ride with it:

* the keyed-stream interval engine: identical ``IntervalResult`` content for
  any ``playback_workers`` count (serial == sharded), for shuffled group
  order, and across repeated runs — the per-``(seed, interval, scoped
  group)`` streams of :mod:`repro.sim.rng` make playback order-independent,
* the group task's purity: run forward or in reverse, each group's task
  returns equal outcomes and writes no twin,
* churn-safe handover streaks: :class:`~repro.net.handover.StreakState` is
  keyed by user id and remapped on churn, so a mid-run ``remove_user`` can
  no longer shift one user's candidate/TTT row onto another,
* mobility seeding: per-user ``SeedSequence((seed, user_id))`` streams
  replace the colliding ``seed * 1000 + user_id`` arithmetic, and
* time grids: integer-step :func:`repro.timegrid.time_grid` replaces
  float-step ``np.arange`` so long-horizon grids never gain or drop a
  sample.

The sweep below always covers serial (1) and sharded (2) playback;
``REPRO_TEST_PLAYBACK_WORKERS`` appends one *extra* worker count (CI sets
``3`` for an uneven-shard datapoint — values already in the sweep are
deduplicated, so ``1`` or ``2`` are no-ops).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SimulationConfig, StreamingSimulator
from repro.core.pipeline import DTResourcePredictionScheme
from repro.core.config import SchemeConfig
from repro.mobility import CampusConfig, WalkTable
from repro.net.handover import HandoverConfig, HandoverPolicy, StreakState
from repro.scenario import ScenarioRunner, get_scenario, run_scenario
from repro.scenario.compiler import compile_spec
from repro.scenario.spec import EngineSpec, FlashCrowd, MassDeparture, ScenarioSpec
from repro.sim.rng import (
    COLLECTION_STREAM,
    RngRegistry,
    derive_stream,
    derive_streams,
    legacy_stream,
)
from repro.sim.shard import _probe_shard_worker, build_interval_plan, run_group_interval
from repro.timegrid import num_grid_steps, time_grid
from repro.twin.collector import CollectionPolicy
from collector_reference import member_records, member_samples
from twin_digest import twin_contents_sha256
from walk_reference import GraphTrajectoryMobility

WORKER_COUNTS = [1, 2]
_extra = os.environ.get("REPRO_TEST_PLAYBACK_WORKERS")
if _extra is not None and int(_extra) not in WORKER_COUNTS:
    WORKER_COUNTS.append(int(_extra))


# ------------------------------------------------------------------ helpers
def _grouped_config(workers: int = 1, **overrides) -> SimulationConfig:
    options = dict(
        num_users=10,
        num_videos=30,
        interval_s=90.0,
        seed=31,
        playback_workers=workers,
    )
    options.update(overrides)
    return SimulationConfig(**options)


def _grouping(sim: StreamingSimulator, reverse: bool = False):
    ids = sim.user_ids()
    grouping = {0: ids[: len(ids) // 2], 1: ids[len(ids) // 2 :]}
    if reverse:
        return dict(reversed(list(grouping.items())))
    return grouping


def _interval_fingerprint(result) -> tuple:
    """Everything playback produced, in a comparable form."""
    return (
        result.total_traffic_bits,
        result.total_resource_blocks,
        result.total_computing_cycles,
        tuple(sorted(result.mean_snr_by_user.items())),
        tuple(
            (
                gid,
                tuple(usage.member_ids),
                usage.traffic_bits,
                usage.efficiency_bps_hz,
                usage.representation_name,
                usage.resource_blocks,
                usage.computing_cycles,
                usage.videos_played,
                usage.engagement_seconds,
            )
            for gid, usage in sorted(result.usage_by_group.items())
        ),
        tuple(
            (uid, tuple(events))
            for uid, events in sorted(result.events_by_user.items())
        ),
    )


def _run_grouped(workers: int, reverse_grouping: bool = False, **overrides):
    """``(fingerprints, twin_tensor, watch_records_by_user)`` of a two-interval grouped run."""
    config = _grouped_config(workers, **overrides)
    intervals = 2
    with StreamingSimulator(config) as sim:
        grouping = _grouping(sim, reverse=reverse_grouping)
        fingerprints = [
            _interval_fingerprint(sim.run_interval(grouping)) for _ in range(intervals)
        ]
        tensor = sim.twins.feature_tensor(
            0.0, intervals * config.interval_s, num_steps=16
        )
        watches = {uid: sim.twins.twin(uid).watch_records() for uid in sim.user_ids()}
    return fingerprints, tensor, watches


# --------------------------------------------------- grouped-engine totals
class TestShardedPlaybackDeterminism:
    def test_serial_equals_sharded_for_every_worker_count(self):
        """The acceptance pin: identical totals and twins for workers=1 and
        workers>1, with perfect collection and with a lossy, delayed one in
        handover mode (the drop walk, the kept watches and the serving-cell
        attribute all come out of the group tasks' collected status)."""
        inputs = {
            "perfect": {},
            "lossy-handover": dict(
                num_users=12,
                num_base_stations=4,
                campus=CampusConfig(width_m=1200.0, height_m=1000.0),
                controller_mode="handover",
                collection_policy=CollectionPolicy(drop_probability=0.3, delay_s=2.0),
            ),
        }
        for name, overrides in inputs.items():
            serial, serial_twins, serial_watches = _run_grouped(1, **overrides)
            assert any(serial_watches.values()), name
            for workers in [w for w in WORKER_COUNTS if w > 1]:
                sharded, sharded_twins, sharded_watches = _run_grouped(
                    workers, **overrides
                )
                assert sharded == serial, f"{name}: workers={workers} diverged"
                np.testing.assert_array_equal(sharded_twins, serial_twins)
                assert sharded_watches == serial_watches, name

    def test_group_order_does_not_change_results(self):
        forward, twins_fwd, _ = _run_grouped(1)
        reversed_, twins_rev, _ = _run_grouped(1, reverse_grouping=True)
        assert forward == reversed_
        np.testing.assert_array_equal(twins_fwd, twins_rev)

    def test_grouped_runs_are_reproducible(self):
        assert _run_grouped(1)[0] == _run_grouped(1)[0]

    def test_sharded_handover_mode_matches_serial(self):
        def run(workers):
            config = _grouped_config(
                workers,
                num_users=12,
                num_base_stations=4,
                campus=CampusConfig(width_m=1200.0, height_m=1000.0),
                controller_mode="handover",
            )
            with StreamingSimulator(config) as sim:
                grouping = _grouping(sim)
                return [
                    _interval_fingerprint(sim.run_interval(grouping))
                    for _ in range(2)
                ]

        serial = run(1)
        for workers in [w for w in WORKER_COUNTS if w > 1]:
            assert run(workers) == serial

    def test_workers_require_grouped_mode(self):
        """The retired shared-generator engines are rejected by name."""
        for mode in ("compat", "fast"):
            with pytest.raises(ValueError, match="grouped"):
                EngineSpec(channel_draw_mode=mode, playback_workers=2)

    def test_default_mode_resolution_with_workers(self):
        """``"grouped"`` and ``None`` name the same (only) engine."""
        for workers in (1, 2):
            spec = ScenarioSpec(
                name="engine-name-probe",
                engine=EngineSpec(playback_workers=workers),
            )
            named = dataclasses.replace(
                spec,
                engine=EngineSpec(channel_draw_mode="grouped", playback_workers=workers),
            )
            assert compile_spec(named).sim_config == compile_spec(spec).sim_config

    def test_close_is_idempotent(self):
        sim = StreamingSimulator(_grouped_config(2))
        sim.run_interval(_grouping(sim))
        sim.close()
        sim.close()

    def test_scheme_runs_sharded_end_to_end(self):
        def run(workers):
            sim = StreamingSimulator(
                _grouped_config(workers, num_users=8, num_videos=20, interval_s=60.0)
            )
            with sim:
                scheme = DTResourcePredictionScheme(
                    sim,
                    SchemeConfig(
                        warmup_intervals=2,
                        cnn_epochs=2,
                        ddqn_episodes=2,
                        mc_rollouts=2,
                        min_groups=2,
                        max_groups=3,
                        k_strategy="fixed",
                        fixed_k=2,
                    ),
                )
                result = scheme.run(num_intervals=1)
            assert sim._pool is None, "context manager must close the pool"
            return (
                result.intervals[0].predicted_radio_blocks,
                result.intervals[0].actual_radio_blocks,
                result.intervals[0].actual_computing_cycles,
            )

        assert run(1) == run(2)


# ------------------------------------------------- departures, then arrivals
def _departures_then_arrivals(workers: int, monkeypatch):
    """``(records, twin hash, worker probes)`` of a run whose users leave
    and others then arrive, so each worker frees departed users' walk rows
    and gives them to newcomers.  Each probe, taken as the run closes, is
    ``(worker epoch, worker's walk users, parent epoch, live users)``."""
    probes = []
    close = StreamingSimulator.close

    def probing_close(self):
        if self._pool is not None and not probes:
            for _, epoch, walks in self._pool.map(_probe_shard_worker, range(8)):
                probes.append((epoch, walks, self._population_epoch, self.user_ids()))
        close(self)

    monkeypatch.setattr(StreamingSimulator, "close", probing_close)
    spec = dataclasses.replace(
        get_scenario(
            "multicell_campus",
            {"num_intervals": 5, "population.num_users": 30, "engine.playback_workers": workers},
        ),
        timeline=(
            MassDeparture(interval=1, departures=12),
            FlashCrowd(interval=3, arrivals=16, favourite="News"),
        ),
    )
    run = ScenarioRunner(spec).run()
    records = [
        {key: value for key, value in record.items() if key != "timing"}
        for record in run.to_dict()["intervals"]
    ]
    return records, twin_contents_sha256(run.simulator.twins), probes


def test_departures_then_arrivals_match_serial(monkeypatch):
    serial, serial_twins, _ = _departures_then_arrivals(1, monkeypatch)
    assert [record["num_users"] for record in serial] == [30, 18, 18, 34, 34]
    for workers in [w for w in WORKER_COUNTS if w > 1]:
        sharded, sharded_twins, probes = _departures_then_arrivals(workers, monkeypatch)
        assert sharded == serial, f"workers={workers} diverged"
        assert sharded_twins == serial_twins
        synced = [(walks, live) for epoch, walks, current, live in probes if epoch == current]
        assert synced, "no worker observed the last population epoch"
        for walks, live in synced:
            assert set(walks) <= set(live), "a worker kept a departed user's walk"


# ------------------------------------------------------------ twin contents
def _twin_contents_sha256(workers: int) -> str:
    """sha256 of every twin's stores and watch records after a lossy run.

    Two intervals of ``commuter_rush`` (three cells, handover, arrivals)
    with lossy, slowed and delayed collection.  A playback run's
    ``RunResult`` export does not include twin contents, so its digest
    cannot see a collection change; this hash does.
    """
    result = run_scenario(
        "commuter_rush",
        {
            "num_intervals": 2,
            "engine.playback_workers": workers,
            "engine.collection_drop_probability": 0.3,
            "engine.collection_period_multiplier": 2.0,
            "engine.collection_delay_s": 7.0,
        },
    )
    return twin_contents_sha256(result.simulator.twins)


#: The hash of the twin contents above, taken from the per-member collector
#: before collection was batched per group.
TWIN_CONTENTS_SHA256 = "b464962cd748902b855ce64ec44cfa600f0ef830c30ffcdc6b036807286bab30"


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_lossy_twin_contents_are_pinned(workers):
    assert _twin_contents_sha256(workers) == TWIN_CONTENTS_SHA256


# ------------------------------------------------------- group-task purity
def _assert_blocks_equal(first, second) -> None:
    """Two watch blocks hold the same records, array for array."""
    assert first.categories == second.categories
    for name in ("member_ids", "video_ids", "video_durations_s", "start_times_s",
                 "watch_durations_s", "swiped"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _twin_sizes(sim: StreamingSimulator) -> dict:
    """Per user: every store's sample count and the watch-record count."""
    sizes = {}
    for uid in sim.user_ids():
        twin = sim.twins.twin(uid)
        stores = tuple(len(twin.store(name)) for name in twin.attributes)
        sizes[uid] = (stores, len(twin.watch_records()))
    return sizes


class TestGroupTaskPurity:
    def test_group_tasks_are_pure_in_any_order(self):
        """A group task is a pure function of (plan, group index).

        Running every group's task forward and then in reverse gives equal
        outcomes, including every array each member's lossy collection
        returns, and writes no twin: re-running a task (say, one a dead
        worker never returned) cannot change anything.
        """
        config = _grouped_config(
            1, num_users=12, collection_policy=CollectionPolicy(drop_probability=0.3)
        )
        with StreamingSimulator(config) as sim:
            ids = sim.user_ids()
            grouping = {0: ids[:4], 1: ids[4:9], 2: ids[9:]}
            sim.run_interval(grouping)
            sizes = _twin_sizes(sim)
            interval = sim.clock.current_interval
            plan = build_interval_plan(
                grouping,
                sim.users,
                sim._preferences,
                tuple(config.categories),
                sim.catalog,
                config.recommendation_popularity_weight,
            )
            task = functools.partial(
                run_group_interval,
                sim._static,
                sim.walks,
                plan,
                interval,
                *sim.clock.interval_bounds(interval),
            )
            indices = list(range(len(plan.group_ids)))
            forward = {index: task(index) for index in indices}
            backward = {index: task(index) for index in reversed(indices)}
            assert _twin_sizes(sim) == sizes, "a group task wrote a twin"

        dropped = False
        for index in indices:
            first, second = forward[index], backward[index]
            assert first.usage == second.usage
            _assert_blocks_equal(first.records, second.records)
            assert first.mean_snrs == second.mean_snrs
            assert first.requests == second.requests
            np.testing.assert_array_equal(first.end_positions, second.end_positions)
            members = first.usage.member_ids
            assert first.records.member_ids.tolist() == members
            assert first.collection.watches is first.records
            _assert_blocks_equal(first.collection.watches, second.collection.watches)
            assert first.collection.kept.shape == first.records.swiped.shape
            np.testing.assert_array_equal(first.collection.kept, second.collection.kept)
            for m, uid in enumerate(members):
                status = member_samples(first.collection, m)
                other = member_samples(second.collection, m)
                records = member_records(first.collection, m)
                assert records == member_records(second.collection, m)
                assert all(record.user_id == uid for record in records)
                dropped |= len(records) < len(first.records.records(m))
                assert list(status) == list(other)
                for name, (times, values) in status.items():
                    np.testing.assert_array_equal(times, other[name][0])
                    np.testing.assert_array_equal(values, other[name][1])
        assert dropped, "the lossy policy should drop some watch records"

    def test_group_task_evaluates_each_trajectory_once(self):
        """One walk-table call per task, covering every member once, shared
        by the stage-1 channel draws and every position attribute's
        collection."""
        config = _grouped_config(
            1,
            num_users=9,
            num_base_stations=3,
            controller_mode="handover",
            collection_policy=CollectionPolicy(drop_probability=0.3),
        )
        with StreamingSimulator(config) as sim:
            ids = sim.user_ids()
            grouping = {0: ids[:4], 1: ids[4:]}
            interval = sim.clock.current_interval
            plan = build_interval_plan(
                grouping,
                sim.users,
                sim._preferences,
                tuple(config.categories),
                sim.catalog,
                config.recommendation_popularity_weight,
            )
            calls = []

            def positions(user_ids, times):
                calls.append(list(user_ids))
                return sim.walks.positions(user_ids, times)

            walks = types.SimpleNamespace(positions=positions)
            for index in range(len(plan.group_ids)):
                before = len(calls)
                outcome = run_group_interval(
                    sim._static,
                    walks,
                    plan,
                    interval,
                    *sim.clock.interval_bounds(interval),
                    index,
                )
                assert calls[before:] == [outcome.usage.member_ids]
                assert all(
                    member_samples(outcome.collection, m)
                    for m in range(len(outcome.usage.member_ids))
                )
        assert len(calls) == len(plan.group_ids)
        assert sorted(uid for call in calls for uid in call) == ids


# ------------------------------------------------------- boundary positions
class TestBoundaryPositions:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize(
        "name", ["stadium_egress", "edge_flash_crowd", "weak_signal_demotion"]
    )
    def test_stored_positions_are_the_walks_at_each_boundary(self, monkeypatch, name, workers):
        """Association reads positions the group tasks return, not the walks.

        After every interval, each user's stored position equals a fresh
        reference walk's ``position`` at the new boundary, bit for bit,
        through arrivals and departures (``stadium_egress`` associates at
        every boundary, ``edge_flash_crowd`` scopes through the handover
        controller, and ``weak_signal_demotion``'s demotion app reads the
        controller's mean-SNR lookup).  And the run asks the walk table for
        a single time only to place users: at set-up and in ``add_user``.
        """
        placing = [0]
        placed, stray = [], []
        positions = WalkTable.positions
        run_interval = StreamingSimulator.run_interval
        boundaries = []

        def counted_positions(self, user_ids, times_s):
            if np.size(times_s) == 1:
                (placed if placing[0] else stray).append(times_s)
            return positions(self, user_ids, times_s)

        def placing_users(method):
            def placed(self, *args, **kwargs):
                placing[0] += 1
                try:
                    return method(self, *args, **kwargs)
                finally:
                    placing[0] -= 1

            return placed

        def checked_run_interval(self, grouping):
            result = run_interval(self, grouping)
            for uid in self.users:
                walk = GraphTrajectoryMobility(
                    self.campus, seed=self._registry.mobility_seed(uid)
                ).position(self.clock.now_s)
                assert self._positions[uid].tobytes() == walk.tobytes(), uid
            assert set(self._positions) == set(self.users)
            boundaries.append(self.clock.now_s)
            return result

        monkeypatch.setattr(WalkTable, "positions", counted_positions)
        for placer in ("__init__", "add_user"):
            method = getattr(StreamingSimulator, placer)
            monkeypatch.setattr(StreamingSimulator, placer, placing_users(method))
        monkeypatch.setattr(StreamingSimulator, "run_interval", checked_run_interval)
        spec = get_scenario(name, {"engine.playback_workers": workers})
        if not spec.timeline:
            spec = dataclasses.replace(
                spec,
                timeline=(
                    FlashCrowd(interval=2, arrivals=12, favourite="News"),
                    MassDeparture(interval=4, departures=12),
                ),
            )
        run = ScenarioRunner(spec).run()
        run.simulator.close()
        num_users = [record["num_users"] for record in run.intervals]
        assert len(set(num_users)) > 1, "the run should churn"
        assert len(boundaries) == len(run.intervals)
        assert placed, "set-up places users with one single-time call"
        assert stray == []


# ------------------------------------------------------------- rng registry
#: Key words of every kind ``derive_stream`` accepts: small, zero, negative,
#: either side of 2**32, and past 2**64 (masked).
_KEY_WORDS = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.just(0),
    st.integers(min_value=-(2**70), max_value=-1),
    st.integers(min_value=2**32 - 2, max_value=2**32 + 1),
    st.integers(min_value=2**32, max_value=2**70),
)


def _assert_same_stream(stream, key):
    """``stream`` is ``derive_stream(key)``: its state, then its first draws."""
    reference = derive_stream(key)
    assert stream.bit_generator.state == reference.bit_generator.state, key
    assert np.array_equal(stream.random(3), reference.random(3))
    assert np.array_equal(stream.normal(size=2), reference.normal(size=2))
    # A 32-bit draw leaves half a word buffered; the next re-point drops it.
    assert stream.integers(0, 1000, dtype=np.uint32) == reference.integers(
        0, 1000, dtype=np.uint32
    )


class TestRngRegistry:
    def test_legacy_stream_masks_only_negative_seeds(self):
        """A negative seed is taken modulo 2**64; a non-negative one is passed on."""
        pairs = [(-1, 2**64 - 1), (-5, 2**64 - 5), (np.int64(-3), 2**64 - 3)]
        pairs += [(seed, seed) for seed in (0, 2023, 2**64 - 1, 2**70 + 3)]
        for seed, expected in pairs:
            drawn = legacy_stream(seed).random(4)
            assert drawn.tolist() == np.random.default_rng(expected).random(4).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.integers(min_value=1, max_value=6).flatmap(
            lambda width: st.lists(
                st.lists(_KEY_WORDS, min_size=width, max_size=width), min_size=1, max_size=8
            )
        )
    )
    def test_batched_streams_equal_derive_stream(self, keys):
        """Keys of mixed uint32 layouts in one batch, each its own stream."""
        words = np.array([[word & (2**64 - 1) for word in key] for key in keys], dtype=np.uint64)
        for key, stream in zip(keys, derive_streams(words), strict=True):
            _assert_same_stream(stream, key)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=_KEY_WORDS,
        interval=st.integers(min_value=0, max_value=2**40),
        user_ids=st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=12),
    )
    def test_collection_streams_equal_derive_stream(self, seed, interval, user_ids):
        streams = RngRegistry(seed).collection_streams(interval, np.array(user_ids))
        for user_id, stream in zip(user_ids, streams, strict=True):
            _assert_same_stream(stream, (seed, interval, user_id, COLLECTION_STREAM))

    def test_streams_are_reproducible_and_distinct(self):
        registry = RngRegistry(seed=9)
        a = registry.watch_stream(3, 7).random(4)
        assert np.array_equal(a, registry.watch_stream(3, 7).random(4))
        assert not np.array_equal(a, registry.watch_stream(3, 8).random(4))
        assert not np.array_equal(a, registry.channel_stream(3, 7).random(4))

    def test_negative_seed_is_valid(self):
        assert derive_stream((-1, 2, 3)).random() == derive_stream((-1, 2, 3)).random()

    def test_mobility_seeding_has_no_cross_seed_collisions(self, campus):
        """Regression: ``seed * 1000 + user_id`` collided across seeds.

        Under the legacy arithmetic, user 1000 at seed 0 and user 0 at
        seed 1 shared the integer seed 1000 and therefore replayed the
        identical trajectory.  The registry's ``SeedSequence((seed,
        user_id))`` keying keeps them apart.
        """
        legacy_a = 0 * 1000 + 1000
        legacy_b = 1 * 1000 + 0
        assert legacy_a == legacy_b  # the documented collision
        times = np.arange(0.0, 600.0, 30.0)
        collided_a, collided_b = WalkTable(
            campus, [legacy_a, legacy_b].__getitem__
        ).positions([0, 1], times)
        np.testing.assert_array_equal(collided_a, collided_b)

        keyed = [RngRegistry(0).mobility_seed(1000), RngRegistry(1).mobility_seed(0)]
        keyed_a, keyed_b = WalkTable(campus, keyed.__getitem__).positions([0, 1], times)
        assert not np.array_equal(keyed_a, keyed_b)

    def test_mobility_stream_is_churn_independent(self):
        """Adding a user must not perturb existing users' draws (grouped)."""
        def positions_of_user_0(add_extra_user):
            sim = StreamingSimulator(_grouped_config(1, num_users=4))
            if add_extra_user:
                sim.add_user()
            return sim.walks.positions([0], np.arange(0.0, 300.0, 30.0))[0]

        np.testing.assert_array_equal(
            positions_of_user_0(False), positions_of_user_0(True)
        )


# ----------------------------------------------------- churn streak carry
def _snr_tensor(num_times: int, margins_db: np.ndarray) -> np.ndarray:
    """(T, U, 2) tensor: cell 0 at 10 dB, cell 1 at 10 + margin per user."""
    num_users = margins_db.shape[0]
    snr = np.full((num_times, num_users, 2), 10.0)
    snr[:, :, 1] = 10.0 + margins_db[None, :]
    return snr


class TestChurnSafeStreaks:
    def test_streak_survives_removal_of_another_user(self):
        """The PR's churn regression: carried TTT rows follow the user id.

        User 30 establishes a margin streak in batch one.  User 20 (a
        *lower* row) then leaves.  With id-keyed carry the streak still
        belongs to user 30 and triggers in batch two; a positional carry
        would have applied user 20's empty row to user 30 (and user 30's
        streak to nobody), postponing the handover.
        """
        policy = HandoverPolicy(
            HandoverConfig(hysteresis_db=3.0, time_to_trigger_s=10.0, sample_period_s=5.0)
        )
        users = [10, 20, 30]
        # Only user 30 holds a 6 dB margin towards cell 1.
        margins = np.array([0.0, 0.0, 6.0])
        times1 = np.array([0.0, 5.0])
        decisions, serving, state = policy.evaluate(
            times1,
            _snr_tensor(2, margins),
            serving_index=[0, 0, 0],
            user_ids=users,
        )
        assert decisions == []
        streaks = dict(
            zip(
                state.user_ids.tolist(),
                zip(state.candidate.tolist(), state.entered_at_s.tolist()),
            )
        )
        assert streaks[30] == (1, 0.0)
        assert streaks[20] == (-1, 0.0)

        # User 20 churns out between batches; the survivors keep their rows.
        survivors = [10, 30]
        times2 = np.array([10.0, 15.0])
        decisions, serving, state = policy.evaluate(
            times2,
            _snr_tensor(2, np.array([0.0, 6.0])),
            serving_index=[0, 0],
            state=state,
            user_ids=survivors,
        )
        # 10 s of continuous margin elapsed at t=10: the trigger fires for
        # user 30 (measurement column 1), not for the vanished user.
        assert [d.user_index for d in decisions] == [1]
        assert decisions[0].time_s == 10.0
        assert serving.tolist() == [0, 1]

    def test_aligned_to_remaps_drops_and_backfills(self):
        state = StreakState.keyed([1, 2, 3])
        state.candidate[:] = [4, 5, 6]
        state.entered_at_s[:] = [40.0, 50.0, 60.0]
        remapped = state.aligned_to([3, 9, 1])
        assert remapped.candidate.tolist() == [6, -1, 4]
        assert remapped.entered_at_s.tolist() == [60.0, 0.0, 40.0]
        assert remapped.user_ids.tolist() == [3, 9, 1]

    def test_simulator_churn_with_streaks_regression(self):
        """End to end: remove a mid-list user between handover intervals."""
        config = _grouped_config(
            1,
            num_users=9,
            num_base_stations=4,
            campus=CampusConfig(width_m=1200.0, height_m=1000.0),
            controller_mode="handover",
        )
        with StreamingSimulator(config) as sim:
            sim.run_interval(_grouping(sim))
            removed = sim.user_ids()[3]
            sim.remove_user(removed)
            streaks = sim.controller.app("a3_handover")._streaks
            assert removed not in streaks.user_ids.tolist()
            for _ in range(2):
                ids = sim.user_ids()
                result = sim.run_interval(
                    {0: ids[: len(ids) // 2], 1: ids[len(ids) // 2 :]}
                )
                for event in result.handover_events:
                    assert event.user_id in ids
            # Carried streak rows describe exactly the surviving users.
            carried = set(sim.controller.app("a3_handover")._streaks.user_ids.tolist())
            assert carried == set(sim.user_ids())


# ------------------------------------------------------------- time grids
class TestTimeGrid:
    def test_matches_arange_on_well_behaved_spans(self):
        for start, end, step in [
            (0.0, 300.0, 5.0),
            (300.0, 600.0, 5.0),
            (0.0, 90.0, 5.0),
            (120.0, 420.0, 7.5),
            (0.0, 300.0, 60.0),
        ]:
            np.testing.assert_array_equal(
                time_grid(start, end, step), np.arange(start, end, step)
            )

    def test_drops_the_spurious_arange_sample(self):
        # The classic float-step failure: arange emits a 4th sample at
        # 1.3000000000000003 >= end.
        assert np.arange(1.0, 1.3, 0.1).shape[0] == 4
        grid = time_grid(1.0, 1.3, 0.1)
        assert grid.shape[0] == 3
        assert np.all(grid < 1.3)

    def test_long_horizon_counts_are_stable(self):
        for start in (0.0, 1e6, 1e9, 1e12):
            grid = time_grid(start, start + 300.0, 5.0)
            assert grid.shape[0] == 60
            assert grid[0] == start
            assert np.all(grid < start + 300.0)
        assert num_grid_steps(0.0, 300.0, 5.0) == 60
        assert num_grid_steps(5.0, 5.0, 1.0) == 0

    def test_measurement_grid_never_exceeds_the_interval(self):
        policy = HandoverPolicy(HandoverConfig(sample_period_s=0.1))
        times = policy.measurement_times(1.0, 1.3)
        assert times.shape[0] == 3
        assert np.all(times < 1.3)

    def test_grouped_playback_far_from_time_origin(self):
        """Long-horizon regression: intervals far from t=0 stay consistent.

        The simulator clock can be advanced arbitrarily far; the grids that
        drive channel sampling, collection and handover measurement must
        keep their per-interval sample counts once there.
        """
        config = _grouped_config(1, num_users=6)
        with StreamingSimulator(config) as sim:
            # Far enough to matter for float grids, near enough that the
            # lazily-generated mobility legs stay cheap to extend.
            far_interval = int(1e5 // config.interval_s)
            sim.clock.advance(far_interval * config.interval_s)
            result = sim.run_interval(_grouping(sim))
        assert result.start_s == far_interval * config.interval_s
        grid = time_grid(
            result.start_s, result.end_s, config.channel_sample_period_s
        )
        assert grid.shape[0] == num_grid_steps(0.0, config.interval_s, config.channel_sample_period_s)
        assert result.total_traffic_bits > 0.0
        assert set(result.mean_snr_by_user) == set(range(6))
        assert np.isfinite(list(result.mean_snr_by_user.values())).all()
