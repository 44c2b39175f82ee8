"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.twin.collector import CollectionPolicy
from repro.video.categories import DEFAULT_CATEGORIES


@dataclass
class SimulationConfig:
    """End-to-end configuration of the multicast streaming simulation.

    The defaults follow the paper's setup where it is specified: a
    5-minute resource-reservation interval, users scattered over a
    campus-sized area and moving along trajectories, and preferences updated
    from engagement time.  Everything else (user count, catalog size, BS
    parameters) is sized so a full experiment runs in seconds on a laptop.
    """

    # Population and content.
    num_users: int = 30
    num_videos: int = 120
    categories: Sequence[str] = DEFAULT_CATEGORIES
    zipf_exponent: float = 1.0
    preference_concentration: float = 0.7
    favourite_category: Optional[str] = "News"
    favourite_user_fraction: float = 0.6
    favourite_boost: float = 3.0
    preference_learning_rate: float = 0.2

    # Time structure.
    num_intervals: int = 8
    interval_s: float = 300.0

    # Area, mobility and radio.
    area_width_m: float = 1000.0
    area_height_m: float = 800.0
    num_buildings: int = 18
    num_base_stations: int = 2
    tx_power_dbm: float = 43.0
    rb_bandwidth_hz: float = 180e3
    num_resource_blocks: int = 100
    stream_bandwidth_hz: float = 1.8e6  # bandwidth assumed per multicast stream
    implementation_loss: float = 0.9
    channel_sample_period_s: float = 5.0
    #: Number of processes an interval is sharded over.  Every random draw
    #: comes from a keyed stream of :mod:`repro.sim.rng` (per ``(seed,
    #: interval, scoped group)`` for channel and playback, per ``(seed,
    #: interval, user)`` for collection), so any value yields identical
    #: results for identical seeds.  ``1`` runs each group's task (channel
    #: draws, playback, twin collection) in this process; more than one
    #: runs the same tasks on a persistent worker pool fed through
    #: shared-memory plans (see :mod:`repro.sim.shard`).
    playback_workers: int = 1

    # Multi-cell RAN controller (see repro.net.controller).
    #: ``"boundary"`` keeps the pre-controller behaviour (strongest-cell
    #: argmax at every interval boundary, bit-for-bit identical results);
    #: ``"handover"`` delegates association to the event-driven RAN
    #: controller: hysteresis + time-to-trigger handover on mid-interval
    #: samples, per-cell multicast group scoping and cross-cell
    #: resource-block budget rebalancing.
    controller_mode: str = "boundary"
    #: Controller-app stack for ``controller_mode="handover"``: a sequence
    #: of app names, ``(name, params)`` pairs or ``{"name", "params"}``
    #: mappings (see :mod:`repro.net.apps`), normalised to ``(name,
    #: params)`` tuples.  ``None`` (default) builds the default stack
    #: (``a3_handover``, ``cell_scoping``, ``prorata_rebalance``), which
    #: reproduces the pre-framework monolithic controller bit-for-bit.
    controller_apps: Optional[Sequence] = None
    handover_hysteresis_db: float = 3.0
    handover_time_to_trigger_s: float = 10.0
    handover_sample_period_s: float = 5.0
    #: Load-aware handover: cells the controller saw overloaded in the last
    #: load report are discounted by this many dB in the A3 rule, steering
    #: users away from them.  ``0.0`` (default) keeps handover pure-SNR.
    handover_load_bias_db: float = 0.0
    cell_overload_threshold: float = 0.9
    cell_underload_threshold: float = 0.5
    cell_rebalance_fraction: float = 0.25

    # Edge fleet (see repro.edge.server / repro.placement).  The per-server
    # EdgeServerConfig fields are lifted here so cache size and CPU capacity
    # are configurable (and spec-overridable) without code edits; defaults
    # equal the EdgeServerConfig defaults, so a default config compiles to
    # the historical single hard-wired server bit-for-bit.
    edge_servers: int = 1
    cache_capacity_gbytes: float = 8.0
    cpu_capacity_cycles_per_s: float = 3.0e9 * 16  # 16 cores at 3 GHz
    cycles_per_pixel: float = 12.0
    remote_fetch_penalty_s: float = 0.2

    # Predictive placement (repro.placement).  ``None`` disables placement:
    # every group runs on server 0 exactly like the pre-fleet simulator.
    # ``"drr"`` packs by dominant remaining resource, ``"first_fit"`` is the
    # naive A/B baseline.  A multi-server fleet needs a strategy — without
    # one the extra servers would sit idle.
    placement_strategy: Optional[str] = None
    placement_horizon: int = 3
    placement_mispredict_threshold: float = 0.5
    placement_reprovision: bool = True

    # Viewing behaviour.
    swipe_gap_s: float = 0.5
    recommendation_popularity_weight: float = 0.5
    popularity_update_rate: float = 0.1

    # Digital twins.
    collection_policy: CollectionPolicy = field(default_factory=CollectionPolicy)

    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users <= 0 or self.num_videos <= 0:
            raise ValueError("num_users and num_videos must be positive")
        if self.num_intervals <= 0 or self.interval_s <= 0:
            raise ValueError("num_intervals and interval_s must be positive")
        if self.num_base_stations <= 0:
            raise ValueError("num_base_stations must be positive")
        if self.area_width_m <= 0 or self.area_height_m <= 0:
            raise ValueError("area dimensions must be positive")
        if not 0.0 <= self.favourite_user_fraction <= 1.0:
            raise ValueError("favourite_user_fraction must be in [0, 1]")
        if self.favourite_category is not None and self.favourite_category not in self.categories:
            raise ValueError("favourite_category must be one of categories")
        if self.favourite_boost <= 0:
            raise ValueError("favourite_boost must be positive")
        if self.stream_bandwidth_hz <= 0 or self.rb_bandwidth_hz <= 0:
            raise ValueError("bandwidths must be positive")
        if self.channel_sample_period_s <= 0:
            raise ValueError("channel_sample_period_s must be positive")
        if self.controller_mode not in ("boundary", "handover"):
            raise ValueError("controller_mode must be 'boundary' or 'handover'")
        if self.playback_workers < 1:
            raise ValueError("playback_workers must be at least 1")
        if self.controller_apps is not None:
            if self.controller_mode != "handover":
                raise ValueError("controller_apps requires controller_mode='handover'")
            # Imported lazily: repro.net.apps pulls in repro.net.controller,
            # which must stay importable without repro.sim at module level.
            from repro.net.apps import create_app, normalize_app_entry

            self.controller_apps = tuple(map(normalize_app_entry, self.controller_apps))
            # The registry checks each name (KeyError), the app its params.
            for name, params in self.controller_apps:
                create_app(name, params)
        if self.handover_hysteresis_db < 0 or self.handover_time_to_trigger_s < 0:
            raise ValueError("handover hysteresis and time-to-trigger must be non-negative")
        if self.handover_load_bias_db < 0:
            raise ValueError("handover_load_bias_db must be non-negative")
        if self.handover_sample_period_s <= 0:
            raise ValueError("handover_sample_period_s must be positive")
        if not 0.0 < self.cell_underload_threshold < self.cell_overload_threshold:
            raise ValueError(
                "thresholds must satisfy 0 < cell_underload_threshold < cell_overload_threshold"
            )
        if not 0.0 <= self.cell_rebalance_fraction <= 1.0:
            raise ValueError("cell_rebalance_fraction must be in [0, 1]")
        if self.edge_servers < 1:
            raise ValueError("edge_servers must be at least 1")
        if self.cache_capacity_gbytes <= 0 or self.cpu_capacity_cycles_per_s <= 0:
            raise ValueError("edge cache and CPU capacities must be positive")
        if self.remote_fetch_penalty_s < 0:
            raise ValueError("remote_fetch_penalty_s must be non-negative")
        if self.placement_strategy is not None:
            # Imported lazily: repro.placement imports repro.sim.events.
            from repro.placement.planner import PLACEMENT_STRATEGIES

            if self.placement_strategy not in PLACEMENT_STRATEGIES:
                raise ValueError(
                    f"placement_strategy must be one of "
                    f"{', '.join(PLACEMENT_STRATEGIES)} (or None to disable), "
                    f"got {self.placement_strategy!r}"
                )
        elif self.edge_servers > 1:
            raise ValueError(
                "edge_servers > 1 requires a placement_strategy: without one "
                "every group runs on server 0 and the extra servers sit idle"
            )
        if self.placement_horizon < 1:
            raise ValueError("placement_horizon must be at least 1")
        if self.placement_mispredict_threshold <= 0:
            raise ValueError("placement_mispredict_threshold must be positive")
        if self.swipe_gap_s < 0:
            raise ValueError("swipe_gap_s must be non-negative")
        if not 0.0 <= self.recommendation_popularity_weight <= 1.0:
            raise ValueError("recommendation_popularity_weight must be in [0, 1]")
        if not 0.0 <= self.popularity_update_rate <= 1.0:
            raise ValueError("popularity_update_rate must be in [0, 1]")
