"""The multicast short-video streaming simulator.

The simulator is interval-driven: callers decide the multicast grouping for
the next reservation interval (that is exactly what the DT-assisted scheme
does) and then ask the simulator to play the interval out.  Per interval and
per group it:

1. samples every member's downlink SNR along their trajectory and applies
   the worst-member rule to get the group's spectral efficiency and the
   representation the group can sustain,
2. plays a *shared* multicast video stream: videos are drawn from a mixture
   of global popularity and the group's mean preference, every member draws
   an individual watch duration, and the stream carries each video for as
   long as the longest-watching member stays (multicast cannot stop earlier),
3. charges the transmitted bits against the radio model (resource blocks)
   and the transcoding work against the edge server (CPU cycles), and
4. pushes each member's status (channel condition, location, watch records,
   preference) into their digital twin through the status collector.

The recorded :class:`GroupIntervalUsage` values are the ground truth the
prediction scheme is evaluated against.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.behavior.preference import blend_engagement, random_preference
from repro.behavior.watching import (
    WatchBlock,
    WatchingDurationModel,
    WatchRecord,
    video_engagement,
)
from repro.numeric import ordered_sum
from repro.placement.fleet import EdgeFleet
from repro.placement.manager import PlacementManager, ReprovisionEvent
from repro.placement.planner import ServerCapacity, fragmentation_index
from repro.mobility.campus import CampusMap
from repro.mobility.trajectory import WalkTable
from repro.net.basestation import BaseStationConfig, associate_users, place_base_stations
from repro.net.apps import AppEvent
from repro.net.controller import (
    CellLoadEvent,
    GroupScopeEvent,
    HandoverEvent,
    RanController,
)
from repro.sim.clock import SimulationClock
from repro.sim.config import SimulationConfig
from repro.sim.rng import RngRegistry
from repro.sim.shard import (
    SharedIntervalPlan,
    ShardStatic,
    _init_shard_worker,
    _run_shard_task,
    build_interval_plan,
    run_group_interval,
)
from repro.twin.collector import StatusCollector
from repro.twin.manager import DigitalTwinManager
from repro.twin.attributes import SERVING_CELL, serving_cell_attribute, standard_attributes
from repro.video.catalog import CatalogConfig, VideoCatalog


@dataclass
class UserState:
    """Live state of one simulated user.

    Preferences, walks and boundary positions are held population-wide by
    the simulator (see :meth:`StreamingSimulator.preference_weights` and
    :attr:`StreamingSimulator.walks`).
    """

    user_id: int
    serving_bs_id: int = 0


@dataclass
class GroupIntervalUsage:
    """Ground-truth resource usage of one multicast group in one interval."""

    group_id: int
    member_ids: List[int]
    traffic_bits: float
    efficiency_bps_hz: float
    representation_name: str
    resource_blocks: float
    computing_cycles: float
    videos_played: int
    engagement_seconds: float


@dataclass
class IntervalResult:
    """Everything the simulator recorded for one reservation interval.

    The only record of an interval: the simulator keeps no other usage,
    event or metric log, so every consumer reads these fields.
    """

    interval_index: int
    start_s: float
    end_s: float
    usage_by_group: Dict[int, GroupIntervalUsage] = field(default_factory=dict)
    #: The interval's watch records, one block per played group in sorted
    #: scoped-group order (see :attr:`events_by_user`).
    watch_blocks: List[WatchBlock] = field(default_factory=list)
    mean_snr_by_user: Dict[int, float] = field(default_factory=dict)
    #: RAN-controller outputs; empty in ``controller_mode="boundary"``.
    cell_of_group: Dict[int, int] = field(default_factory=dict)
    handover_events: List[HandoverEvent] = field(default_factory=list)
    group_scope_events: List[GroupScopeEvent] = field(default_factory=list)
    cell_load_events: List[CellLoadEvent] = field(default_factory=list)
    app_events: List[AppEvent] = field(default_factory=list)
    rb_utilization_by_cell: Dict[int, float] = field(default_factory=dict)
    rb_budget_by_cell: Dict[int, float] = field(default_factory=dict)
    #: Edge-fleet outputs (``placement_*`` fields stay empty unless a
    #: placement strategy is configured; ``edge_*`` fields are always set).
    server_of_group: Dict[int, int] = field(default_factory=dict)
    edge_utilization_by_server: Dict[int, float] = field(default_factory=dict)
    edge_cache_misses: int = 0
    #: Fleet fragmentation snapshot (``None`` for a single-server fleet).
    edge_fragmentation: Optional[float] = None
    placement_events: List[ReprovisionEvent] = field(default_factory=list)
    #: Per-stage seconds of this interval, defined the same way inline and
    #: sharded: ``stage1_s`` (channel draws), ``playback_s`` (multicast
    #: playback, the watch blocks included) and ``collection_s`` (twin
    #: status collection) each sum the group tasks' own stage times;
    #: ``playback_s`` adds the parent's plan build and its fold of each
    #: outcome's usage, mean SNRs, watch block, transcode requests and end
    #: positions, ``collection_s`` its one
    #: :meth:`~repro.twin.manager.DigitalTwinManager.append_group` call per
    #: group.  Time spent waiting on the worker pool counts in none of them,
    #: and neither do the preference and popularity updates after the fold.
    timing: Dict[str, float] = field(default_factory=dict)
    _events_by_user: Optional[Dict[int, List[WatchRecord]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def events_by_user(self) -> Dict[int, List[WatchRecord]]:
        """Each user's watch records of the interval, in playback order.

        Keyed by ascending user id: every user the interval played, which
        is every simulated user, in the simulator's own user order, since
        user ids only grow.  Built from :attr:`watch_blocks` on first read
        and kept (copy-on-read): a run that never reads it builds no
        :class:`~repro.behavior.watching.WatchRecord`.
        """
        if self._events_by_user is None:
            rows = sorted(
                (
                    (user_id, block, row)
                    for block in self.watch_blocks
                    for row, user_id in enumerate(block.member_ids.tolist())
                ),
                key=lambda item: item[0],
            )
            self._events_by_user = {
                user_id: block.records(row) for user_id, block, row in rows
            }
        return self._events_by_user

    @property
    def num_handovers(self) -> int:
        return len(self.handover_events)

    @property
    def rb_demand_by_cell(self) -> Dict[int, float]:
        """Finite resource-block demand per serving cell (handover mode)."""
        demand: Dict[int, float] = {}
        for group_id, usage in self.usage_by_group.items():
            cell_id = self.cell_of_group.get(group_id)
            if cell_id is not None and np.isfinite(usage.resource_blocks):
                demand[cell_id] = demand.get(cell_id, 0.0) + usage.resource_blocks
        return demand

    @property
    def outage_groups_by_cell(self) -> Dict[int, List[int]]:
        """Outage groups keyed by their serving cell (handover mode)."""
        outages: Dict[int, List[int]] = {}
        for group_id in self.outage_groups:
            cell_id = self.cell_of_group.get(group_id)
            if cell_id is not None:
                outages.setdefault(cell_id, []).append(group_id)
        return outages

    @property
    def outage_groups(self) -> List[int]:
        """Groups whose resource-block demand is infinite (zero efficiency).

        These groups had traffic to deliver but no decodable modulation and
        coding scheme; no finite resource allocation can serve them, so they
        are surfaced here instead of being folded into the finite totals.
        """
        return sorted(
            group_id
            for group_id, usage in self.usage_by_group.items()
            if not np.isfinite(usage.resource_blocks)
        )

    @property
    def total_resource_blocks(self) -> float:
        """Sum of resource blocks over groups with *finite* demand.

        Convention: outage groups (``resource_blocks == inf``) are excluded
        from this total so it stays a meaningful, schedulable quantity; they
        are reported separately via :attr:`outage_groups` rather than
        silently dropped.
        """
        finite = [
            usage.resource_blocks
            for usage in self.usage_by_group.values()
            if np.isfinite(usage.resource_blocks)
        ]
        return float(ordered_sum(finite))

    @property
    def total_computing_cycles(self) -> float:
        return float(
            ordered_sum(usage.computing_cycles for usage in self.usage_by_group.values())
        )

    @property
    def total_traffic_bits(self) -> float:
        return float(ordered_sum(usage.traffic_bits for usage in self.usage_by_group.values()))


def singleton_grouping(user_ids: Sequence[int]) -> Dict[int, List[int]]:
    """The unicast baseline: every user is their own multicast group."""
    return {index: [user_id] for index, user_id in enumerate(user_ids)}


def round_robin_grouping(user_ids: Sequence[int], num_groups: int) -> Dict[int, List[int]]:
    """Deal ``user_ids`` in order over ``num_groups`` groups (clamped to [1, users])."""
    num_groups = min(max(num_groups, 1), len(user_ids))
    grouping: Dict[int, List[int]] = {gid: [] for gid in range(num_groups)}
    for index, uid in enumerate(user_ids):
        grouping[index % num_groups].append(uid)
    return grouping


#: Monotonic suffix keeping concurrent simulators' plan segments distinct.
_PLAN_SEQ = itertools.count()


class StreamingSimulator:
    """Ground-truth simulator of DT-assisted multicast short-video streaming."""

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config if config is not None else SimulationConfig()
        config = self.config
        #: SeedSequence-derived stream registry (see repro.sim.rng): every
        #: draw of the simulation comes from a keyed child stream.
        self._registry = RngRegistry(config.seed)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Shared-memory interval plan (sharded intervals only, lazy).
        self._plan: Optional[SharedIntervalPlan] = None
        #: Bumped on every add_user/remove_user; shipped in each plan handle
        #: so workers resync their population caches exactly on churn.
        self._population_epoch = 0
        #: Id the next add_user() gives out.  It only grows, so a departed
        #: user's id (and with it their keyed streams and kept twin) is never
        #: handed to a newcomer.
        self._next_user_id = config.num_users

        # Content.
        self.catalog = VideoCatalog.generate(
            CatalogConfig(
                num_videos=config.num_videos,
                categories=config.categories,
                zipf_exponent=config.zipf_exponent,
                seed=config.seed,
            )
        )
        self.catalog.popularity.engagement_learning_rate = config.popularity_update_rate

        # Area, mobility and radio.
        self.campus = CampusMap.generate(config.campus, seed=config.seed)
        self.base_stations = place_base_stations(
            config.num_base_stations,
            config.campus.width_m,
            config.campus.height_m,
            BaseStationConfig(
                tx_power_dbm=config.tx_power_dbm,
                resource_block_bandwidth_hz=config.rb_bandwidth_hz,
                num_resource_blocks=config.num_resource_blocks,
            ),
        )
        self._bs_by_id = {bs.bs_id: bs for bs in self.base_stations}

        # Users.  The preference weights live in one population table (a
        # row per user id, config-category order) that each interval updates
        # at once, and the walks in one walk table (a row per user, made on
        # first touch from the user's keyed mobility seed).  Each user's
        # position at the current interval boundary is stored too: set when
        # the user joins, then returned by the group tasks for the next
        # boundary.
        self.clock = SimulationClock(interval_s=config.interval_s)
        self.walks = WalkTable(self.campus, self._registry.mobility_seed)
        self._category_column = {c: i for i, c in enumerate(config.categories)}
        self._preferences = np.empty((config.num_users, len(config.categories)))
        self.users: Dict[int, UserState] = {}
        num_favoured = int(round(config.favourite_user_fraction * config.num_users))
        for user_id in range(config.num_users):
            favourite = (
                config.favourite_category
                if config.favourite_category is not None and user_id < num_favoured
                else None
            )
            self.users[user_id] = self._new_user(user_id, favourite)
        user_ids = list(self.users)
        self._positions = dict(
            zip(user_ids, self.walks.positions(user_ids, [self.clock.now_s])[:, 0])
        )
        self._associate_users()

        # Event-driven multi-cell RAN controller (handover mode only; the
        # default boundary mode keeps the pre-controller behaviour exactly).
        self.controller: Optional[RanController] = None
        if config.controller_mode == "handover":
            self.controller = RanController(self.base_stations, config.controller)
            for user_id, user in self.users.items():
                self.controller.attach_user(user_id, user.serving_bs_id)

        # Edge fleet.  One server with no placement strategy (the default)
        # behaves bit-for-bit like the historical hard-wired EdgeServer:
        # every group routes to server 0 in grouping order, so the cache
        # walk and cycle accounting are unchanged.
        edge = config.edge_server
        self.edge_fleet = EdgeFleet(self.catalog, [edge] * config.edge_servers)
        self.edge_fleet.warm_caches()
        self.placement: Optional[PlacementManager] = None
        if config.placement.strategy is not None:
            capacity = ServerCapacity(
                cpu_cycles_per_interval=edge.cpu_capacity_cycles_per_s * config.interval_s,
                cache_bytes=edge.cache_capacity_gbytes * 1e9,
            )
            self.placement = PlacementManager(
                [capacity] * config.edge_servers, config.placement
            )

        # Digital twins.  The serving-cell attribute is only collected when
        # the RAN controller is active, so boundary-mode twins keep their
        # pre-controller contents (and RNG draws) bit-for-bit.
        attributes = standard_attributes(num_categories=len(config.categories))
        if self.controller is not None:
            attributes[SERVING_CELL] = serving_cell_attribute()
        self.twins = DigitalTwinManager(attributes=attributes)
        self.twins.register_users(self.users.keys())

        # Behaviour and bookkeeping.
        self.watching_model = WatchingDurationModel()
        self.history: List[IntervalResult] = []

        # Static state of the per-group interval stages, read inline and
        # shipped to each shard worker at pool start.
        video_ids, _, category_indices, sampling_categories = (
            self.catalog.sampling_arrays()
        )
        config_index = {c: i for i, c in enumerate(config.categories)}
        self._static = ShardStatic(
            config=config,
            registry=self._registry,
            catalog=self.catalog,
            watching_model=self.watching_model,
            video_ids=video_ids,
            category_indices=category_indices,
            sampling_perm=np.array(
                [config_index[c] for c in sampling_categories], dtype=np.intp
            ),
            campus=self.campus,
            bs_by_id=self._bs_by_id,
            attributes=dict(self.twins.attributes),
            collector=StatusCollector(policy=config.collection_policy),
            report_cells=self.controller is not None,
        )

    def _new_user(self, user_id: int, favourite: Optional[str]) -> UserState:
        """A fresh user drawn from their own keyed streams.

        The preference draw uses the ``(seed, user, tag)`` setup stream, and
        the walk table builds the user's walk from ``SeedSequence((seed,
        user_id))`` when it is first asked for, so population churn never
        perturbs another user's draws and no two (seed, user) pairs share a
        walk.  Fills the user's preference row.
        """
        config = self.config
        preference = random_preference(
            self._registry.preference_stream(user_id),
            categories=config.categories,
            concentration=config.preference_concentration,
            favourite=favourite,
            favourite_boost=config.favourite_boost,
        )
        rows = self._preferences.shape[0]
        if user_id >= rows:
            grown = np.empty((max(2 * rows, user_id + 1), self._preferences.shape[1]))
            grown[:rows] = self._preferences
            self._preferences = grown
        self._preferences[user_id] = preference.as_array()
        return UserState(user_id=user_id)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the worker pool and shared-memory plan segments.

        Idempotent: safe to call any number of times, including when the
        pool was never started, and again after an exception already tore
        part of the state down.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._plan is not None:
            self._plan.close()
            self._plan = None

    def __enter__(self) -> "StreamingSimulator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def _playback_pool(self) -> ProcessPoolExecutor:
        """The lazily-started process pool the interval is sharded over.

        Each worker boots a persistent
        :class:`repro.sim.shard.ShardWorkerRuntime` from the simulator's
        static state: the population state (its own walk table) lives in
        the worker and tasks shrink to ``(plan handle, group index)``.  The pool
        survives across intervals and is torn down by :meth:`close`.
        """
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.playback_workers,
                mp_context=context,
                initializer=_init_shard_worker,
                initargs=(self._static,),
            )
        return self._pool

    def _interval_plan(self) -> SharedIntervalPlan:
        if self._plan is None:
            self._plan = SharedIntervalPlan(token=f"{os.getpid()}-{next(_PLAN_SEQ)}")
        return self._plan

    # ------------------------------------------------------------ population
    def user_ids(self) -> List[int]:
        return sorted(self.users.keys())

    def preference_weights(self, user_ids: Sequence[int]) -> np.ndarray:
        """The users' preference weights, one row each in config-category order."""
        missing = [uid for uid in user_ids if uid not in self.users]
        if missing:
            raise KeyError(f"unknown users {missing}")
        return self._preferences[np.asarray(user_ids, dtype=np.intp)]

    def add_user(self, favourite: Optional[str] = None) -> int:
        """Add a user mid-simulation (churn) and register their digital twin.

        Returns the new user's id, the next id no user of this simulation
        has held.  The user starts at a random campus node and is associated
        with a base station at the current simulation time.
        """
        if favourite is not None and favourite not in self.config.categories:
            raise ValueError(f"favourite {favourite!r} not in configured categories")
        user_id = self._next_user_id
        self._next_user_id += 1
        user = self._new_user(user_id, favourite)
        self.users[user_id] = user
        self.twins.register_user(user_id)
        self._population_epoch += 1
        position = self.walks.positions([user_id], [self.clock.now_s])[0, 0]
        self._positions[user_id] = position
        user.serving_bs_id = int(associate_users([position], self.base_stations)[0])
        if self.controller is not None:
            self.controller.attach_user(user_id, user.serving_bs_id)
        return user_id

    def remove_user(self, user_id: int, keep_twin: bool = True) -> None:
        """Remove a user (departure).  The twin is kept by default for audit."""
        if user_id not in self.users:
            raise KeyError(f"unknown user {user_id}")
        del self.users[user_id]
        del self._positions[user_id]
        self.walks.free([user_id])
        self._population_epoch += 1
        if self.controller is not None:
            self.controller.detach_user(user_id)
        if not keep_twin:
            self.twins.remove_user(user_id)

    def _associate_users(self) -> None:
        """Re-associate every user with their strongest base station.

        Reads each user's stored position at the current boundary.
        """
        users = list(self.users.values())
        if not users:
            return
        positions = np.array([self._positions[user.user_id] for user in users])
        for user, bs_id in zip(users, associate_users(positions, self.base_stations)):
            user.serving_bs_id = int(bs_id)

    # ------------------------------------------------------------- intervals
    def preview_scoped_grouping(
        self, grouping: Mapping[int, Sequence[int]]
    ) -> tuple:
        """``(scoped_grouping, cell_of_group)`` the next interval will play.

        In handover mode this applies the controller's *current* associations
        to ``grouping`` without mutating controller state (no scope events,
        no footprint updates), so the prediction layer can target exactly the
        per-cell multicast channels :meth:`run_interval` is about to create.
        Boundary mode returns the grouping unchanged with an empty cell map.
        """
        if self.controller is None:
            return {gid: list(members) for gid, members in grouping.items()}, {}
        start_s, _ = self.clock.interval_bounds(self.clock.current_interval)
        return self.controller.preview_scope(
            grouping, time_s=start_s, mean_snr_db=self._controller_mean_snr()
        )

    def run_interval(self, grouping: Mapping[int, Sequence[int]]) -> IntervalResult:
        """Play out the next reservation interval under ``grouping``.

        ``grouping`` maps group id to the member user ids; every simulated
        user must belong to exactly one group.
        """
        self._validate_grouping(grouping)
        interval_index = self.clock.current_interval
        start_s, end_s = self.clock.interval_bounds(interval_index)

        result = IntervalResult(interval_index=interval_index, start_s=start_s, end_s=end_s)
        if self.controller is None:
            # Boundary mode: strongest-cell argmax at every interval start,
            # groups played exactly as given (the pre-controller behaviour).
            self._associate_users()
            played_grouping: Mapping[int, Sequence[int]] = grouping
        else:
            # Handover mode: association evolves only through handover
            # events (applied at the end of the previous interval); each
            # logical group is scoped per serving cell, because a multicast
            # channel -- and the worst-member rule -- spans one cell only.
            scoped, cell_of_group, scope_events = self.controller.scope_grouping(
                grouping,
                time_s=start_s,
                mean_snr_db=self._controller_mean_snr(),
            )
            played_grouping = scoped
            result.cell_of_group = cell_of_group
            result.group_scope_events = scope_events

        # Predictive placement packs the interval's groups onto the fleet
        # *before* playback (reservation semantics: the assignment is made
        # from forecast demand, not observed demand).  Placement never
        # touches the simulator's random streams, so playback draws are
        # identical with or without it.
        assignment: Optional[Dict[int, int]] = None
        if self.placement is not None:
            assignment = self.placement.begin_interval(
                interval_index, list(played_grouping.keys()), time_s=start_s
            )

        transcode_requests = self._play_groups(played_grouping, result)

        # Edge transcoding for all groups of this interval, routed over the
        # fleet (all groups on server 0 when placement is disabled — the
        # historical single-server behaviour).
        compute_usage = self.edge_fleet.process_interval(
            interval_index, transcode_requests, assignment=assignment, time_s=start_s
        )
        for group_id, cycles in compute_usage.cycles_by_group.items():
            result.usage_by_group[group_id].computing_cycles = float(cycles)
        result.server_of_group = dict(compute_usage.server_of_group)
        result.edge_cache_misses = compute_usage.cache_misses
        cycles_by_server = compute_usage.cycles_by_server()
        result.edge_utilization_by_server = {
            server: cycles
            / (self.config.edge_server.cpu_capacity_cycles_per_s * self.config.interval_s)
            for server, cycles in cycles_by_server.items()
        }
        if self.placement is not None:
            result.placement_events = self.placement.observe_interval(
                interval_index,
                compute_usage.cycles_by_group,
                compute_usage.cache_bytes_by_group,
                time_s=end_s,
            )

        # Behavioural updates (the twins were written while folding).
        self._update_preferences(result.watch_blocks)
        engagement = video_engagement(result.watch_blocks)
        if engagement:
            self.catalog.popularity.update_from_engagement(engagement)

        # RAN-controller end-of-interval phase: handover evaluation on
        # mid-interval samples (events applied for the *next* interval),
        # per-cell load reports and budget rebalancing.
        if self.controller is not None:
            self._run_controller_phase(result, start_s, end_s)

        self.history.append(result)
        if self.edge_fleet.num_servers > 1:
            cpu_utils = [
                result.edge_utilization_by_server.get(server, 0.0)
                for server in range(self.edge_fleet.num_servers)
            ]
            cache_utils = [
                self.edge_fleet.cache_utilization_by_server()[server]
                for server in range(self.edge_fleet.num_servers)
            ]
            result.edge_fragmentation = fragmentation_index(cpu_utils, cache_utils)
        self.clock.advance_interval()
        return result

    def _play_groups(
        self, grouping: Mapping[int, Sequence[int]], result: IntervalResult
    ) -> tuple:
        """Play every group of ``grouping``; fold the outcomes into ``result``.

        One driver wherever the work runs.  The parent builds the interval
        plan, gathering its weight rows from the preference table; with one
        worker (or one group) builtin ``map`` runs
        :func:`~repro.sim.shard.run_group_interval` over it in this process,
        against the parent's own walk table, otherwise the plan is
        published to shared memory and ``pool.map`` runs ``(plan handle,
        group index)`` tasks on the worker pool.  Either way outcomes arrive
        in sorted scoped-group order and are folded as they arrive: each
        group's watch block kept on ``result``, the members' end positions
        stored for the next boundary, and the group's collected status
        appended to its members' twins with one
        :meth:`~repro.twin.manager.DigitalTwinManager.append_group` call (one
        block per attribute, plus the watch block) — the only place an
        interval writes twins.

        Returns the transcode requests by group id.
        """
        started = time.perf_counter()
        plan = build_interval_plan(
            grouping,
            self.users,
            self._preferences,
            tuple(self.config.categories),
            self.catalog,
            self.config.recommendation_popularity_weight,
        )
        num_groups = len(plan.group_ids)
        workers = self.config.playback_workers
        if workers > 1 and num_groups > 1:
            handle = self._interval_plan().publish(
                epoch=self._population_epoch,
                interval_index=result.interval_index,
                start_s=result.start_s,
                end_s=result.end_s,
                **plan._asdict(),
            )
            plan_s = time.perf_counter() - started
            outcomes = self._playback_pool().map(
                _run_shard_task,
                [(handle, index) for index in range(num_groups)],
                chunksize=max(1, num_groups // (workers * 4)),
            )
        else:
            plan_s = time.perf_counter() - started
            outcomes = map(
                functools.partial(
                    run_group_interval,
                    self._static,
                    self.walks,
                    plan,
                    result.interval_index,
                    result.start_s,
                    result.end_s,
                ),
                range(num_groups),
            )

        transcode_requests: Dict[int, List[tuple]] = {}
        stage1_s, playback_s, collection_s = 0.0, plan_s, 0.0
        for outcome in outcomes:
            merge_started = time.perf_counter()
            usage = outcome.usage
            result.usage_by_group[usage.group_id] = usage
            result.mean_snr_by_user.update(zip(usage.member_ids, outcome.mean_snrs))
            result.watch_blocks.append(outcome.records)
            transcode_requests[usage.group_id] = [
                (self.catalog.get(video_id), outcome.representation, transmitted)
                for video_id, transmitted in outcome.requests
            ]
            self._positions.update(zip(usage.member_ids, outcome.end_positions))
            record_started = time.perf_counter()
            self.twins.append_group(usage.member_ids, outcome.collection)
            record_done = time.perf_counter()
            task_stage1_s, task_playback_s, task_collection_s = outcome.stage_times
            stage1_s += task_stage1_s
            playback_s += task_playback_s + (record_started - merge_started)
            collection_s += task_collection_s + (record_done - record_started)
        result.timing.update(
            stage1_s=stage1_s, playback_s=playback_s, collection_s=collection_s
        )
        return transcode_requests

    def _controller_mean_snr(self):
        """Lazy per-user serving-cell mean-SNR lookup for controller apps.

        Returns ``user_ids -> {user_id: mean SNR dB towards the serving
        cell at the current boundary}``, from the stored boundary positions.
        Deterministic (mean SNR draws no randomness), so the preview and
        playback scoping paths agree exactly.
        """
        def lookup(user_ids) -> Dict[int, float]:
            controller = self.controller
            return {
                uid: float(
                    self._bs_by_id[controller.serving_cell[uid]].mean_snr_db(
                        self._positions[uid]
                    )
                )
                for uid in user_ids
            }

        return lookup

    def _run_controller_phase(
        self, result: IntervalResult, start_s: float, end_s: float
    ) -> None:
        """Handover + load-balancing bookkeeping for one finished interval."""
        assert self.controller is not None
        controller = self.controller

        # Handover: one walk-table query for every user over the interval's
        # measurement grid, one mean-SNR tensor, no randomness consumed.
        user_ids = self.user_ids()
        times = controller.measurement_times(start_s, end_s)
        positions = self.walks.positions(user_ids, times).transpose(1, 0, 2)
        result.handover_events = controller.observe_interval(
            times, positions, user_ids, end_s
        )
        for user_id in user_ids:
            self.users[user_id].serving_bs_id = controller.serving_cell[user_id]

        # Per-cell load accounting and budget rebalancing.
        outage_by_cell = {
            cell_id: len(groups) for cell_id, groups in result.outage_groups_by_cell.items()
        }
        load_events, utilization = controller.finish_interval(
            result.rb_demand_by_cell, outage_by_cell, time_s=end_s
        )
        result.cell_load_events = load_events
        result.rb_utilization_by_cell = utilization
        # Pre-rebalance snapshot, so utilization == demand / budget holds on
        # this result; the rebalanced budgets (in force next interval) are
        # available via controller.rb_budget_by_cell().
        result.rb_budget_by_cell = {e.cell_id: e.budget_blocks for e in load_events}

        # Scope events fired after the interval-start scoping (mid-interval
        # re-scopes on handover) and the interval's app events.
        result.group_scope_events.extend(controller.drain_scope_events())
        result.app_events = controller.drain_app_events()

    # ------------------------------------------------------------ internals
    def _validate_grouping(self, grouping: Mapping[int, Sequence[int]]) -> None:
        if not grouping:
            raise ValueError("grouping must contain at least one group")
        seen: set = set()
        for group_id, member_ids in grouping.items():
            if not len(member_ids):
                raise ValueError(f"group {group_id} has no members")
            for uid in member_ids:
                if uid not in self.users:
                    raise ValueError(f"grouping references unknown user {uid}")
                if uid in seen:
                    raise ValueError(f"user {uid} appears in more than one group")
                seen.add(uid)
        missing = set(self.users) - seen
        if missing:
            raise ValueError(f"grouping does not cover users {sorted(missing)}")

    def _update_preferences(self, blocks: Sequence[WatchBlock]) -> None:
        """Blend every user's engagement of the interval into the preference table.

        Each block's records go in member by member, each member's in
        playback order, which is all :func:`blend_engagement` needs.
        """
        column = self._category_column
        blend_engagement(
            self._preferences,
            np.concatenate(
                [np.repeat(block.member_ids, len(block.categories)) for block in blocks]
            ),
            np.concatenate(
                [
                    np.tile(
                        np.array([column[c] for c in block.categories], dtype=np.intp),
                        len(block.member_ids),
                    )
                    for block in blocks
                ]
            ),
            np.concatenate([block.watch_durations_s.ravel() for block in blocks]),
            self.config.preference_learning_rate,
        )
