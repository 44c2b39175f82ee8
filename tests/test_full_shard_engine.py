"""Tests for the full-interval sharded engine (PR 8).

Covers the tentpole and its satellites:

* sharded intervals: the whole interval (channel draws, playback, status
  collection) runs on the worker pool, and the results are bit-identical
  to the inline run — pinned here at 10k users, including a
  shuffled-grouping run,
* persistent worker population state: mobility models and preference
  state live across tasks inside each worker, keyed by a population
  epoch that ``add_user``/``remove_user`` bump — workers prune by set
  difference on the next task instead of rebuilding,
* shared-memory plan hygiene: every ``repro-shard-*`` segment the plan
  publishes is unlinked by ``close()`` even when the run dies mid-flight,
  ``close()`` is idempotent, and a plan that outgrows its segments grows
  them with 2x headroom,
* per-stage timing: the inline and the sharded path report ``stage1_s`` /
  ``playback_s`` / ``collection_s`` on ``IntervalResult.timing``, the
  scheme accumulates ``predict_s``, and the scenario runner aggregates
  both into ``RunResult.timing`` (a new top-level ``to_dict`` key that
  stays outside the golden digests),
* the population feature tensor: the one cross-user batched resample
  stays bit-identical to each twin's own ``feature_matrix``, on fresh and
  sliding windows and across churn.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro import SimulationConfig, StreamingSimulator
from repro.core.config import SchemeConfig
from repro.core.pipeline import DTResourcePredictionScheme
from repro.sim.shard import SEGMENT_PREFIX, SharedIntervalPlan, _probe_shard_worker

STAGE_KEYS = ("stage1_s", "playback_s", "collection_s")


# ------------------------------------------------------------------ helpers
def _config(workers: int = 1, **overrides) -> SimulationConfig:
    options = dict(
        num_users=40,
        num_videos=30,
        interval_s=60.0,
        seed=23,
        playback_workers=workers,
    )
    options.update(overrides)
    return SimulationConfig(**options)


def _grouping(ids, group_size: int, shuffle_seed=None):
    """Chunk ``ids`` into fixed-size groups.

    ``shuffle_seed`` permutes the *insertion order* of the grouping dict
    (the order groups are dispatched in), never the membership: grouped
    streams must make dispatch order invisible in the results.
    """
    ids = list(ids)
    groups = {}
    for index in range(0, len(ids), group_size):
        groups[index // group_size] = ids[index : index + group_size]
    if shuffle_seed is not None:
        keys = list(groups)
        np.random.default_rng(shuffle_seed).shuffle(keys)
        groups = {key: groups[key] for key in keys}
    return groups


def _fingerprint(result) -> tuple:
    """Everything an interval produced, in a comparable form."""
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


def _shard_segments() -> list:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-*")


# ------------------------------------------------- 10k-user bit identity
class TestFullShardBitIdentity:
    def test_ten_thousand_users_serial_equals_sharded(self):
        """The acceptance pin, at scale: one 10k-user interval, serial vs
        2-worker full-shard vs 2-worker with shuffled grouping insertion
        order, plus the downstream twin tensor (collection replay included).
        """

        def run(workers: int, shuffle_seed=None):
            config = _config(
                workers,
                num_users=10_000,
                num_videos=60,
                interval_s=30.0,
                seed=17,
            )
            with StreamingSimulator(config) as sim:
                grouping = _grouping(sim.user_ids(), 200, shuffle_seed)
                fingerprint = _fingerprint(sim.run_interval(grouping))
                tensor = sim.twins.feature_tensor(
                    0.0, config.interval_s, num_steps=8
                )
            return fingerprint, tensor

        serial, serial_tensor = run(1)
        sharded, sharded_tensor = run(2)
        assert sharded == serial
        np.testing.assert_array_equal(sharded_tensor, serial_tensor)
        shuffled, shuffled_tensor = run(2, shuffle_seed=5)
        # Shuffled insertion order reorders the groups, not their members:
        # every per-group and per-user record must still match exactly.
        assert shuffled == serial
        np.testing.assert_array_equal(shuffled_tensor, serial_tensor)


# ------------------------------------------------ worker population state
class TestWorkerPopulationEpochs:
    def test_epoch_resync_after_churn(self):
        """Mid-run churn bumps the epoch; workers prune removed users from
        their persistent mobility caches on the next task they execute."""
        config = _config(2, num_users=24)
        with StreamingSimulator(config) as sim:
            sim.run_interval(_grouping(sim.user_ids(), 4))
            removed = sim.user_ids()[5]
            sim.remove_user(removed)
            added = sim.add_user()
            epoch = sim._population_epoch
            assert epoch == 2  # one remove + one add
            sim.run_interval(_grouping(sim.user_ids(), 4))
            probes = sim._pool.map(_probe_shard_worker, range(8))
            synced = [p for p in probes if p[1] == epoch]
            # At least one worker ran a task at the new epoch, and every
            # worker that did has dropped the removed user's state.
            assert synced, "no worker observed the new population epoch"
            for _pid, _epoch, cached in synced:
                assert removed not in cached
            assert added in sim.user_ids()

    def test_churned_run_matches_serial(self):
        """Bit-identity holds across churn, not just static populations,
        including growth that outgrows the plan segments mid-run."""

        def run(workers: int):
            with StreamingSimulator(_config(workers, num_users=20)) as sim:
                fingerprints, versions = [], []

                def step():
                    result = sim.run_interval(_grouping(sim.user_ids(), 5))
                    fingerprints.append(_fingerprint(result))
                    versions.append(sim._plan.version if sim._plan else 0)

                step()
                sim.remove_user(sim.user_ids()[3])
                sim.add_user()
                for growth in (4, 30):
                    for _ in range(growth):
                        sim.add_user()
                    step()
            return fingerprints, versions

        serial, _ = run(1)
        sharded, versions = run(2)
        assert sharded == serial
        # 20 -> 24 -> 54 users: each growth outgrew the plan segments, so
        # the workers attached a reallocated plan version each interval.
        assert versions == [1, 2, 3]


# ------------------------------------------------------- shm plan hygiene
class TestSharedMemoryHygiene:
    def test_no_segment_leak_after_crashed_run(self):
        """A run that dies mid-interval must not leak /dev/shm segments:
        the context manager's ``close()`` unlinks every published buffer."""
        before = set(_shard_segments())
        with pytest.raises(RuntimeError, match="mid-run crash"):
            with StreamingSimulator(_config(2)) as sim:
                sim.run_interval(_grouping(sim.user_ids(), 10))
                assert set(_shard_segments()) - before, (
                    "expected live repro-shard segments during the run"
                )
                raise RuntimeError("mid-run crash")
        assert set(_shard_segments()) == before
        assert sim._pool is None
        assert sim._plan is None

    def test_growing_plan_reallocates_with_headroom(self):
        """Overflow grows every segment 2x, so a population that gains a
        user per interval reuses the segments instead of reallocating."""
        plan = SharedIntervalPlan(token=f"{os.getpid()}-headroom")
        versions = []
        try:
            for num_users in (100, 101, 102, 103):
                handle = plan.publish(
                    epoch=0,
                    interval_index=0,
                    start_s=0.0,
                    end_s=1.0,
                    offsets=np.array([0, num_users]),
                    group_ids=np.array([0]),
                    user_ids=np.arange(num_users),
                    serving=np.zeros(num_users, dtype=np.int64),
                    weights=np.ones((num_users, 4)),
                    cdf=np.ones((1, 10)),
                )
                versions.append(handle.version)
        finally:
            plan.close()
        assert versions == [1, 2, 2, 2]
        assert not glob.glob(f"/dev/shm/{SEGMENT_PREFIX}-{plan.token}-*")

    def test_close_is_idempotent_and_releases_segments(self):
        sim = StreamingSimulator(_config(2))
        before = set(_shard_segments())
        sim.run_interval(_grouping(sim.user_ids(), 10))
        sim.close()
        assert set(_shard_segments()) == before
        sim.close()  # second close must be a no-op, not a double-unlink


# ------------------------------------------------------- per-stage timing
class TestStageTiming:
    @pytest.mark.parametrize(
        "overrides",
        [dict(playback_workers=1), dict(playback_workers=2)],
        ids=["grouped-serial", "grouped-sharded"],
    )
    def test_every_engine_path_reports_stage_times(self, overrides):
        options = dict(num_users=20, num_videos=30, interval_s=60.0, seed=23)
        options.update(overrides)
        with StreamingSimulator(SimulationConfig(**options)) as sim:
            result = sim.run_interval(_grouping(sim.user_ids(), 10))
        for key in STAGE_KEYS:
            assert key in result.timing, f"missing {key}"
            assert result.timing[key] >= 0.0

    def test_scheme_accumulates_predict_time(self):
        with StreamingSimulator(_config(1, num_users=8, num_videos=20)) as sim:
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
            scheme.run(num_intervals=1)
            assert scheme.timing["predict_s"] > 0.0

    def test_run_result_exports_timing(self):
        from repro.scenario import ScenarioRunner
        from repro.scenario.spec import (
            EngineSpec,
            PopulationSpec,
            ScenarioSpec,
        )

        spec = ScenarioSpec(
            name="timing-probe",
            mode="playback",
            num_intervals=2,
            population=PopulationSpec(num_users=12),
            engine=EngineSpec(playback_workers=2),
            seed=11,
        )
        result = ScenarioRunner(spec).run()
        for key in STAGE_KEYS:
            assert result.timing[key] >= 0.0
        exported = result.to_dict()
        assert set(STAGE_KEYS) <= set(exported["timing"])
        # Timing is additive metadata: the digest-hashed keys are untouched.
        assert "timing" not in exported["intervals"][0]


# ------------------------------------------------- population feature tensor
def _per_twin_tensor(twins, start_s, end_s, num_steps):
    """The reference: every twin's own zero-order-hold feature matrix."""
    return np.stack(
        [
            twins.twin(uid).feature_matrix(start_s, end_s, num_steps=num_steps)
            for uid in twins.user_ids()
        ]
    )


class TestHybridFeatureTensor:
    """The population tensor equals the per-twin reference bit for bit."""

    def _simulator(self, **overrides):
        return StreamingSimulator(_config(1, num_users=10, **overrides))

    def test_hybrid_matches_per_user_and_batched(self):
        """Fresh windows (warm-up shape) and sliding or repeated windows
        (the prediction loop's shape) all match the per-twin reference."""
        with self._simulator() as sim:
            for _ in range(2):
                sim.run_interval(_grouping(sim.user_ids(), 5))
            windows = [(0.0, 120.0), (30.0, 90.0), (60.0, 120.0), (60.0, 120.0)]
            for start, end in windows:
                np.testing.assert_array_equal(
                    sim.twins.feature_tensor(start, end, num_steps=16),
                    _per_twin_tensor(sim.twins, start, end, 16),
                )

    def test_hybrid_survives_churn(self):
        with self._simulator() as sim:
            sim.run_interval(_grouping(sim.user_ids(), 5))
            sim.twins.feature_tensor(0.0, 60.0, num_steps=16)
            sim.remove_user(sim.user_ids()[2])
            sim.add_user()  # fresh user: empty stores
            sim.run_interval(_grouping(sim.user_ids(), 5))
            np.testing.assert_array_equal(
                sim.twins.feature_tensor(30.0, 120.0, num_steps=16),
                _per_twin_tensor(sim.twins, 30.0, 120.0, 16),
            )
