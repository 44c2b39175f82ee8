"""Simulation configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.edge.server import EdgeServerConfig
from repro.mobility.campus import CampusConfig
from repro.net.controller import ControllerConfig
from repro.placement.manager import PlacementConfig
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

    This is the one home of every simulator setting.  The interval engine
    (:class:`~repro.sim.shard.ShardStatic`) and both demand predictors
    (:class:`~repro.core.demand.GroupDemandPredictor` and
    :class:`~repro.predict.peruser.PerUserDemandPredictor`) read the link,
    interval and transcoding settings from it rather than keeping copies.
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
    interval_s: float = 300.0

    # Area, mobility and radio.  The base stations are placed on a grid over
    # the campus area.
    campus: CampusConfig = field(default_factory=CampusConfig)
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
    #: The controller's knobs and app stack, passed to the controller as
    #: they are; read only in handover mode, but checked in both.
    controller: ControllerConfig = field(default_factory=ControllerConfig)

    # Edge fleet (see repro.placement.fleet): ``edge_servers`` copies of
    # one server build.  The defaults are the historical single hard-wired
    # server.
    edge_servers: int = 1
    edge_server: EdgeServerConfig = field(default_factory=EdgeServerConfig)

    # Predictive placement (repro.placement).  ``placement.strategy=None``
    # (the default) disables placement: every group runs on server 0
    # exactly like the pre-fleet simulator.
    placement: PlacementConfig = field(default_factory=PlacementConfig)

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
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be non-negative")
        if not 0 < self.preference_concentration < math.inf:
            raise ValueError("preference_concentration must be positive and finite")
        if not 0.0 <= self.preference_learning_rate <= 1.0:
            raise ValueError("preference_learning_rate must be in [0, 1]")
        if not 0 < self.interval_s < math.inf:
            raise ValueError("interval_s must be positive and finite")
        if self.num_base_stations <= 0:
            raise ValueError("num_base_stations must be positive")
        if not 0.0 <= self.favourite_user_fraction <= 1.0:
            raise ValueError("favourite_user_fraction must be in [0, 1]")
        if self.favourite_category is not None and self.favourite_category not in self.categories:
            raise ValueError("favourite_category must be one of categories")
        if not 0 < self.favourite_boost < math.inf:
            raise ValueError("favourite_boost must be positive and finite")
        if not -math.inf < self.tx_power_dbm < math.inf:
            raise ValueError("tx_power_dbm must be finite")
        # An infinite stream bandwidth is allowed: it means "unlimited".
        if self.stream_bandwidth_hz <= 0:
            raise ValueError("stream_bandwidth_hz must be positive")
        if not 0 < self.rb_bandwidth_hz < math.inf:
            raise ValueError("rb_bandwidth_hz must be positive and finite")
        if self.num_resource_blocks <= 0:
            raise ValueError("num_resource_blocks must be positive")
        if not 0.0 < self.implementation_loss <= 1.0:
            raise ValueError("implementation_loss must be in (0, 1]")
        if not 0 < self.channel_sample_period_s < math.inf:
            raise ValueError("channel_sample_period_s must be positive and finite")
        if self.controller_mode not in ("boundary", "handover"):
            raise ValueError("controller_mode must be 'boundary' or 'handover'")
        if self.playback_workers < 1:
            raise ValueError("playback_workers must be at least 1")
        if self.controller.apps is not None and self.controller_mode != "handover":
            raise ValueError("controller apps require controller_mode='handover'")
        if self.edge_servers < 1:
            raise ValueError("edge_servers must be at least 1")
        if self.edge_servers > 1 and self.placement.strategy is None:
            raise ValueError(
                "edge_servers > 1 requires a placement strategy: without one "
                "every group runs on server 0 and the extra servers sit idle"
            )
        if self.swipe_gap_s < 0:
            raise ValueError("swipe_gap_s must be non-negative")
        if not 0.0 <= self.recommendation_popularity_weight <= 1.0:
            raise ValueError("recommendation_popularity_weight must be in [0, 1]")
        if not 0.0 <= self.popularity_update_rate <= 1.0:
            raise ValueError("popularity_update_rate must be in [0, 1]")
