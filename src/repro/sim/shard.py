"""The interval engine's per-group task, its shared-memory fabric and worker runtime.

Every random draw of an interval comes from a structured key
(:mod:`repro.sim.rng`), so any group's interval can be computed anywhere —
a worker process needs *keys*, not generator state.  An interval runs one
way whether it stays in the parent or goes to the worker pool:

* :func:`build_interval_plan` — the parent-side :class:`IntervalPlan`: the
  member-slot layout (group offsets, group ids, user ids, serving cells),
  the per-member preference-weight matrix and the per-group video-sampling
  CDFs.

* :func:`run_group_interval` — one group's whole interval as a pure
  function of its plan slices and keys: channel draws from the group's
  ``(seed, interval, group)`` stream with the worst-member rule, multicast
  playback from its watch stream, and twin status collection from each
  member's ``(seed, interval, user)`` stream.  It returns a
  :class:`GroupOutcome` carrying the group's watch records as one
  :class:`~repro.behavior.watching.WatchBlock` of arrays (no record object
  is built), the group's :class:`~repro.twin.collector.CollectedStatus`
  (one block per attribute, plus the watch block and the collector's keep
  mask over it) and each member's position at the interval's end; the
  parent folds outcomes in group order, appends each group's status to its
  members' twins in one call, which is the only place twins are written,
  and keeps the watch blocks for the interval's preference and popularity
  updates and the end positions for the next boundary's association.  The
  pickled outcome is a handful of arrays per group.  The task reads
  every member's positions with one call to a
  :class:`~repro.mobility.trajectory.WalkTable`.  Inline intervals map it
  over the in-process plan with the parent's walk table; sharded intervals
  map :func:`_run_shard_task` over the pool.

* :class:`SharedIntervalPlan` — the parent-owned shared-memory fabric a
  sharded interval publishes its plan through.  Segments are ring-reused
  across intervals (reallocated only when the population outgrows them)
  and unlinked by ``close()``.  Tasks shrink to ``(plan handle, group
  index)`` — no arrays are pickled per task.

* :class:`ShardWorkerRuntime` — the persistent per-worker population state.
  Each worker keeps its own walk table, whose rows it builds lazily from
  the users' ``SeedSequence((seed, user_id))`` keys (bit-identical to the
  parent's rows, since a walk is a pure function of campus + seed) and
  keeps across intervals.  The population *epoch* — bumped by the parent on
  every ``add_user``/``remove_user`` — gates resynchronisation: only when
  the epoch advances does a worker free departed users' rows, and new users
  get a row on first touch, so churn resyncs exactly the delta and ships no
  state at all.

Serial and sharded runs are bit-identical for every worker count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.behavior.preference import PreferenceVector
from repro.behavior.watching import WatchBlock, WatchingDurationModel
from repro.mobility.campus import CampusMap
from repro.mobility.trajectory import WalkTable
from repro.net.basestation import BaseStation
from repro.net.multicast import group_spectral_efficiency, resource_blocks_for_traffic
from repro.numeric import ordered_sum
from repro.sim.config import SimulationConfig
from repro.sim.rng import RngRegistry
from repro.timegrid import time_grid
from repro.twin.attributes import AttributeSpec
from repro.twin.collector import CollectedStatus, StatusCollector
from repro.video.catalog import Video, VideoCatalog
from repro.video.popularity import sample_index, sampling_cdf
from repro.video.representations import Representation

if TYPE_CHECKING:
    from repro.sim.simulator import GroupIntervalUsage

#: Prefix of every shared-memory segment this module creates; the /dev/shm
#: leak regression test keys on it.
SEGMENT_PREFIX = "repro-shard"

_PLAN_KEYS = ("idx", "wts", "cdf")


# --------------------------------------------------------------------------
# Static state, the interval plan and the per-group task
# --------------------------------------------------------------------------


@dataclass
class ShardStatic:
    """Content/config state of the interval engine, fixed for a simulator's life.

    The parent builds it once; the inline path reads it directly and each
    shard worker receives a copy at pool start.  The link, interval and
    viewing settings are read from ``config``, the simulator's own
    :class:`~repro.sim.config.SimulationConfig`, not copied out of it.
    """

    config: SimulationConfig
    registry: RngRegistry
    catalog: VideoCatalog
    watching_model: WatchingDurationModel
    video_ids: np.ndarray
    category_indices: np.ndarray
    #: Column permutation mapping the catalog's sampling-category order onto
    #: the config-category order the plan's weight matrix uses.
    sampling_perm: np.ndarray
    campus: CampusMap
    bs_by_id: Mapping[int, BaseStation]
    attributes: Dict[str, AttributeSpec]
    collector: StatusCollector
    report_cells: bool


class IntervalPlan(NamedTuple):
    """One interval's groups as flat arrays, groups in sorted scoped-id order.

    Member slots ``offsets[g]:offsets[g + 1]`` of ``user_ids``, ``serving``
    and ``weights`` belong to group ``group_ids[g]``, whose video-sampling
    CDF is ``cdf[g]``.
    """

    offsets: np.ndarray
    group_ids: np.ndarray
    user_ids: np.ndarray
    serving: np.ndarray
    weights: np.ndarray
    cdf: np.ndarray


class GroupOutcome(NamedTuple):
    """Everything one group's interval produced, for the parent to fold."""

    usage: GroupIntervalUsage
    #: The group's watch records, one row per member in ``usage.member_ids``
    #: order.
    records: WatchBlock
    #: ``(video_id, transmitted_s)`` pairs; the parent re-resolves videos
    #: for edge transcoding.
    requests: List[Tuple[int, float]]
    representation: Representation
    #: Per-member mean SNR in dB, in ``usage.member_ids`` order.
    mean_snrs: List[float]
    #: The group's collected status, for the parent to append to the twins.
    collection: CollectedStatus
    #: ``(members, 2)`` positions at the interval's end, in
    #: ``usage.member_ids`` order.
    end_positions: np.ndarray
    #: ``(stage1_s, playback_s, collection_s)`` of this task.
    stage_times: Tuple[float, float, float]


def build_interval_plan(
    grouping: Mapping[int, Sequence[int]],
    users: Mapping[int, Any],
    preferences: np.ndarray,
    categories: Sequence[str],
    catalog: VideoCatalog,
    popularity_weight: float,
) -> IntervalPlan:
    """The :class:`IntervalPlan` of one interval's played grouping.

    ``users`` maps a user id to its live state (``serving_bs_id``), and
    row ``u`` of ``preferences`` is user ``u``'s preference weights in
    ``categories`` order (the config's, and the collector's).  ``weights``
    gathers one of those rows per member slot; ``cdf`` holds one
    video-sampling CDF per group: the catalog's served-video distribution
    (:meth:`~repro.video.catalog.VideoCatalog.sampling_probabilities`) for
    the group's mean preference.
    """
    group_ids = sorted(grouping)
    members = [grouping[gid] for gid in group_ids]
    offsets = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum([len(group) for group in members], out=offsets[1:])
    flat = [uid for group in members for uid in group]
    serving = np.array([users[uid].serving_bs_id for uid in flat], dtype=np.int64)
    weights = preferences[np.array(flat, dtype=np.intp)]
    cdf = np.empty((len(members), len(catalog)))
    for row in range(len(members)):
        mean = weights[offsets[row] : offsets[row + 1]].mean(axis=0)
        group_preference = PreferenceVector(
            dict(zip(categories, mean)), categories=categories
        )
        cdf[row] = sampling_cdf(
            catalog.sampling_probabilities(group_preference, popularity_weight)
        )
    return IntervalPlan(
        offsets=offsets,
        group_ids=np.array(group_ids, dtype=np.int64),
        user_ids=np.array(flat, dtype=np.int64),
        serving=serving,
        weights=weights,
        cdf=cdf,
    )


def run_group_interval(
    static: ShardStatic,
    walks: WalkTable,
    plan: IntervalPlan,
    interval_index: int,
    start_s: float,
    end_s: float,
    group_index: int,
) -> GroupOutcome:
    """One group's whole interval, as a pure function of its plan slices and keys.

    Each member's trajectory is evaluated once, as one ``(members, times,
    2)`` block from one ``walks.positions`` call on the sorted union of the
    stage-1 channel grid, the collector's position grids and the interval's
    end; stages 1 and 3 read their own columns of it, and the end column is
    returned as the members' positions at the next boundary.  Stage 1 draws every member's
    SNR trace from the group's channel stream: one ``sample_snr_traces``
    block per serving station, stations sorted so the stream walk depends
    only on (members, associations).  The worst-member rule over the per-member mean SNRs then fixes the group's
    efficiency and representation.  Stage 2 plays the group's shared
    multicast stream: video choices and watch durations come from the
    group's watch stream, per-member weights from the plan's weight rows
    (config-category order) and video choices from its CDF row.  Each
    video's draws are one array over the members; the stream carries the
    video for its longest watch, capped at the interval end, and the
    viewings become one :class:`~repro.behavior.watching.WatchBlock`,
    checked once.  Stage 3 runs the status collector for every member from
    their ``(interval, user)`` stream — samples and a lossy policy's drop
    decisions alike, the watch records' included — into one
    :class:`CollectedStatus` block per attribute, in one collector call for
    the whole group, whose streams are derived as one batch
    (:meth:`~repro.sim.rng.RngRegistry.collection_streams`); no twin is
    touched.
    """
    # Imported lazily: repro.sim.simulator imports this module at load time.
    from repro.sim.simulator import GroupIntervalUsage

    started = time.perf_counter()
    lo = int(plan.offsets[group_index])
    hi = int(plan.offsets[group_index + 1])
    group_id = int(plan.group_ids[group_index])
    member_ids: List[int] = plan.user_ids[lo:hi].tolist()
    serving = plan.serving[lo:hi]
    serving_ids: List[int] = serving.tolist()
    weights = plan.weights[lo:hi]
    registry = static.registry
    config = static.config

    channel_times = time_grid(start_s, end_s, config.channel_sample_period_s)
    times = np.unique(
        np.concatenate(
            [
                channel_times,
                *static.collector.position_times(static.attributes, start_s, end_s),
                [end_s],
            ]
        )
    )
    positions = walks.positions(member_ids, times)
    # A copy: a view would keep the whole block alive in the parent.
    end_positions = positions[:, times.searchsorted(end_s)].copy()
    channel_columns = times.searchsorted(channel_times)

    rng = registry.channel_stream(interval_index, group_id)
    channel_positions = positions[:, channel_columns]
    member_means = np.empty(len(member_ids))
    for bs_id in sorted(set(serving_ids)):
        rows = serving == bs_id
        traces = static.bs_by_id[bs_id].sample_snr_traces(channel_positions[rows], rng=rng)
        member_means[rows] = traces.mean(axis=1)
    mean_snrs: List[float] = member_means.tolist()
    efficiency = group_spectral_efficiency(
        mean_snrs, implementation_loss=config.implementation_loss
    )
    representation = static.catalog.reference_ladder().best_fitting(
        efficiency * config.stream_bandwidth_hz
    )
    stage1_done = time.perf_counter()

    rng = registry.watch_stream(interval_index, group_id)
    catalog = static.catalog
    cdf = plan.cdf[group_index]
    # Gathered into the catalog's sampling-category order once per group.
    member_weights = weights[:, static.sampling_perm]
    videos: List[Video] = []
    starts: List[float] = []
    drawn: List[np.ndarray] = []
    now = start_s
    traffic_bits = 0.0
    requests: List[Tuple[int, float]] = []
    while now < end_s:
        row = sample_index(cdf, rng)
        video = catalog.get(int(static.video_ids[row]))
        durations = static.watching_model.sample_watch_durations(
            video, member_weights[:, static.category_indices[row]], rng
        )
        transmitted = min(float(durations.max()), end_s - now)
        videos.append(video)
        starts.append(now)
        drawn.append(durations)
        traffic_bits += video.bits_watched(representation, transmitted)
        requests.append((video.video_id, transmitted))
        now += transmitted + config.swipe_gap_s
    # (videos, members) grids.  `swiped` reflects each member's *intended*
    # (uncapped) duration: a watch cut short only by the interval boundary
    # is not a swipe.  The records and the engagement use the interval-capped
    # time; the engagement adds it left to right, video by video and member
    # by member (a numpy sum would add pairwise).
    lengths = np.array([video.duration_s for video in videos])
    start_times = np.array(starts)
    uncapped = np.array(drawn)
    capped = np.minimum(uncapped, (end_s - start_times)[:, None])
    watches = WatchBlock(
        member_ids=np.array(member_ids, dtype=np.int64),
        video_ids=np.array([video.video_id for video in videos], dtype=np.int64),
        categories=tuple(video.category for video in videos),
        video_durations_s=lengths,
        start_times_s=start_times,
        watch_durations_s=np.ascontiguousarray(capped.T),
        swiped=np.ascontiguousarray((uncapped < (lengths - 1e-9)[:, None]).T),
    )
    watches.check()
    usage = GroupIntervalUsage(
        group_id=group_id,
        member_ids=member_ids,
        traffic_bits=traffic_bits,
        efficiency_bps_hz=efficiency,
        representation_name=representation.name,
        resource_blocks=resource_blocks_for_traffic(
            traffic_bits,
            efficiency,
            rb_bandwidth_hz=config.rb_bandwidth_hz,
            interval_s=config.interval_s,
        ),
        computing_cycles=0.0,  # filled in after edge processing
        videos_played=len(videos),
        engagement_seconds=ordered_sum(capped.ravel().tolist()),
    )
    playback_done = time.perf_counter()

    collection = static.collector.collect_interval(
        static.attributes,
        times,
        positions,
        [static.bs_by_id[bs_id] for bs_id in serving_ids],
        weights,
        watches,
        start_s,
        end_s,
        rngs=registry.collection_streams(interval_index, plan.user_ids[lo:hi]),
        serving_cells=serving_ids if static.report_cells else None,
    )

    stage_times = (
        stage1_done - started,
        playback_done - stage1_done,
        time.perf_counter() - playback_done,
    )
    return GroupOutcome(
        usage,
        watches,
        requests,
        representation,
        mean_snrs,
        collection,
        end_positions,
        stage_times,
    )


# --------------------------------------------------------------------------
# Plan handle + shared-memory fabric (parent side)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanHandle:
    """Picklable descriptor of one interval's published plan.

    Carries only names, shapes and scalars (a few hundred bytes); the
    arrays themselves live in the shared segments.
    """

    token: str
    version: int
    epoch: int
    interval_index: int
    start_s: float
    end_s: float
    num_users: int
    num_groups: int
    num_categories: int
    num_videos: int
    #: ``{key: segment name}`` of the plan's shared-memory segments.
    names: Mapping[str, str]


class SharedIntervalPlan:
    """Parent-owned, ring-reused shared-memory backing of interval plans.

    One instance per simulator.  ``publish`` writes the interval's arrays
    into the segments (growing them — under a new version — only when the
    population outgrows the current capacity) and returns the
    :class:`PlanHandle` workers attach by name.  ``close`` unlinks every
    segment and is idempotent; the owning simulator calls it from its own
    ``close()``/``__exit__``.
    """

    def __init__(self, token: str) -> None:
        self.token = token
        self.version = 0
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._capacity: Dict[str, int] = {}

    # ------------------------------------------------------------- publish
    def publish(
        self,
        *,
        epoch: int,
        interval_index: int,
        start_s: float,
        end_s: float,
        offsets: np.ndarray,
        group_ids: np.ndarray,
        user_ids: np.ndarray,
        serving: np.ndarray,
        weights: np.ndarray,
        cdf: np.ndarray,
    ) -> PlanHandle:
        num_users, num_categories = weights.shape
        num_groups, num_videos = cdf.shape
        index = np.concatenate([offsets, group_ids, user_ids, serving]).astype(np.int64)
        sizes = {"idx": index.nbytes, "wts": weights.nbytes, "cdf": cdf.nbytes}
        if not self._segments or any(
            sizes[key] > self._capacity.get(key, -1) for key in _PLAN_KEYS
        ):
            self._reallocate(sizes)
        self._write("idx", index)
        self._write("wts", np.ascontiguousarray(weights, dtype=np.float64))
        self._write("cdf", np.ascontiguousarray(cdf, dtype=np.float64))
        return PlanHandle(
            token=self.token,
            version=self.version,
            epoch=epoch,
            interval_index=interval_index,
            start_s=float(start_s),
            end_s=float(end_s),
            num_users=int(num_users),
            num_groups=int(num_groups),
            num_categories=int(num_categories),
            num_videos=int(num_videos),
            names={key: seg.name for key, seg in self._segments.items()},
        )

    # ------------------------------------------------------------ internals
    def _write(self, key: str, array: np.ndarray) -> None:
        segment = self._segments[key]
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[:] = array
        del view

    def _reallocate(self, sizes: Dict[str, int]) -> None:
        # Read before _release, which forgets the capacities.
        previous = self._capacity
        self._release(unlink=True)
        self.version += 1
        for key in _PLAN_KEYS:
            # Grow with headroom so steady churn doesn't reallocate every
            # interval; segments are page-granular anyway.
            capacity = max(int(sizes[key]), 2 * previous.get(key, 0), 8)
            name = f"{SEGMENT_PREFIX}-{self.token}-v{self.version}-{key}"
            self._segments[key] = shared_memory.SharedMemory(
                name=name, create=True, size=capacity
            )
            self._capacity[key] = capacity

    def _release(self, unlink: bool) -> None:
        for segment in self._segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exported views linger
                pass
            if unlink:
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        self._segments = {}
        self._capacity = {}

    def close(self) -> None:
        """Unlink and forget every segment (idempotent)."""
        self._release(unlink=True)


# --------------------------------------------------------------------------
# Worker runtime (worker side)
# --------------------------------------------------------------------------


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # Attaching registers the segment with the (fork-shared) resource
    # tracker, which would race the parent's own register/unlink pair and
    # try to clean the segment up again at worker exit.  The parent owns
    # the lifecycle, so suppress the worker-side registration entirely
    # (Python < 3.13 has no ``track=False``).
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class ShardWorkerRuntime:
    """Persistent per-worker state: the worker's walk table + plan attachments."""

    def __init__(self, static: ShardStatic) -> None:
        self.static = static
        self.epoch = -1
        #: The worker's own walk table, its rows built on first touch.  A
        #: walk is a pure function of (campus, per-user seed), so each row is
        #: bit-identical to the parent's no matter when it is built.
        self.walks = WalkTable(static.campus, static.registry.mobility_seed)
        self._attached: Optional[dict] = None

    # ------------------------------------------------------------ population
    def _resync_population(self, epoch: int, user_ids: np.ndarray) -> None:
        """Epoch-gated delta resync: free departed users' rows, keep the rest."""
        if epoch == self.epoch:
            return
        live = {int(uid) for uid in user_ids}
        self.walks.free([uid for uid in self.walks.user_ids() if uid not in live])
        self.epoch = epoch

    # ----------------------------------------------------------------- plans
    def plan_arrays(self, handle: PlanHandle) -> IntervalPlan:
        """Attach (cached by version) and view the published plan, zero-copy."""
        num_users = handle.num_users
        num_groups = handle.num_groups
        attached = self._attached
        if (
            attached is None
            or attached["token"] != handle.token
            or attached["version"] != handle.version
        ):
            self._close_attachments()
            attached = {
                "token": handle.token,
                "version": handle.version,
                "segments": {
                    key: _attach_segment(name) for key, name in handle.names.items()
                },
            }
            self._attached = attached
        segments = attached["segments"]
        index = np.ndarray(
            (num_groups + 1 + num_groups + 2 * num_users,),
            dtype=np.int64,
            buffer=segments["idx"].buf,
        )
        user_ids = index[2 * num_groups + 1 : 2 * num_groups + 1 + num_users]
        self._resync_population(handle.epoch, user_ids)
        return IntervalPlan(
            offsets=index[: num_groups + 1],
            group_ids=index[num_groups + 1 : 2 * num_groups + 1],
            user_ids=user_ids,
            serving=index[2 * num_groups + 1 + num_users :],
            weights=np.ndarray(
                (num_users, handle.num_categories),
                dtype=np.float64,
                buffer=segments["wts"].buf,
            ),
            cdf=np.ndarray(
                (num_groups, handle.num_videos),
                dtype=np.float64,
                buffer=segments["cdf"].buf,
            ),
        )

    def _close_attachments(self) -> None:
        if self._attached is None:
            return
        segments = self._attached["segments"]
        self._attached = None
        for segment in segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view still exported
                pass


class _WorkerRuntimeSlot:
    """Holder for the per-process runtime, set once by the pool initializer.

    A class-attribute slot rather than a module global: the only mutation is
    the initializer's one assignment in a freshly-forked worker, and keeping
    it off the module namespace makes that invariant checkable (SHARD003
    forbids mutable module-level bindings in worker-reachable code).
    """

    runtime: Optional[ShardWorkerRuntime] = None


def _init_shard_worker(static: ShardStatic) -> None:
    _WorkerRuntimeSlot.runtime = ShardWorkerRuntime(static)


def _probe_shard_worker(_: int) -> tuple:
    """Test/debug hook: this worker's (pid, epoch, walk-table user ids)."""
    runtime = _WorkerRuntimeSlot.runtime
    assert runtime is not None, "shard worker not initialized"
    return os.getpid(), runtime.epoch, tuple(runtime.walks.user_ids())


def _run_shard_task(task: tuple) -> GroupOutcome:
    """One pool task: attach the published plan and run one group's interval."""
    handle, group_index = task
    runtime = _WorkerRuntimeSlot.runtime
    assert runtime is not None, "shard worker not initialized"
    return run_group_interval(
        runtime.static,
        runtime.walks,
        runtime.plan_arrays(handle),
        handle.interval_index,
        handle.start_s,
        handle.end_s,
        group_index,
    )
