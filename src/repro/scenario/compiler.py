"""Deterministic lowering of a :class:`ScenarioSpec` to runtime configs.

:func:`compile_spec` is a *pure function*: it touches no global state,
draws no randomness, and two calls with equal specs return equal
:class:`CompiledScenario` values (field-for-field equal configs).  That
purity is what makes scenario runs reproducible from the spec alone, and
it is pinned by the compile-determinism tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import SchemeConfig
from repro.edge.server import EdgeServerConfig
from repro.mobility.campus import CampusConfig
from repro.net.controller import ControllerConfig
from repro.net.handover import HandoverConfig
from repro.placement.manager import PlacementConfig
from repro.scenario.spec import ScenarioSpec
from repro.sim.config import SimulationConfig
from repro.twin.collector import CollectionPolicy


@dataclass(frozen=True)
class CompiledScenario:
    """A spec lowered to the configs the runtime consumes.

    ``sim_config`` fully describes the ground-truth simulator;
    ``scheme_config`` is ``None`` for playback-mode scenarios.  The source
    ``spec`` rides along with its runtime-only parts (run length, timeline,
    churn phases, grouping policy), which no config carries.
    """

    spec: ScenarioSpec
    sim_config: SimulationConfig
    scheme_config: Optional[SchemeConfig]


def compile_spec(spec: ScenarioSpec) -> CompiledScenario:
    """Lower ``spec`` to ``SimulationConfig`` (+ ``SchemeConfig``), purely.

    Every field of the configs built here is set from a spec field (lint
    rule ``SPEC001`` checks this).  The run length is not compiled: the
    runner steps the simulator ``spec.num_intervals`` times after any
    warm-up.

    The campus, controller, edge-server and placement configs are built
    here, straight from their spec sections, and the simulator uses them
    as they are.  The placement config is built even when
    ``placement.strategy`` is unset, so every spec value is checked.  The
    configs check the values they carry, so a bad one raises here:
    ``ValueError``, or ``KeyError`` for an unknown controller app.
    """
    sim_config = SimulationConfig(
        num_users=spec.population.num_users,
        num_videos=spec.catalog.num_videos,
        categories=tuple(spec.catalog.categories),
        zipf_exponent=spec.catalog.zipf_exponent,
        preference_concentration=spec.population.preference_concentration,
        favourite_category=spec.population.favourite_category,
        favourite_user_fraction=spec.population.favourite_user_fraction,
        favourite_boost=spec.population.favourite_boost,
        preference_learning_rate=spec.population.preference_learning_rate,
        interval_s=spec.interval_s,
        campus=CampusConfig(
            width_m=spec.topology.area_width_m,
            height_m=spec.topology.area_height_m,
            num_buildings=spec.mobility.num_buildings,
        ),
        num_base_stations=spec.topology.num_cells,
        tx_power_dbm=spec.topology.tx_power_dbm,
        rb_bandwidth_hz=spec.topology.rb_bandwidth_hz,
        num_resource_blocks=spec.topology.rb_budget_blocks,
        stream_bandwidth_hz=spec.topology.stream_bandwidth_hz,
        implementation_loss=spec.topology.implementation_loss,
        channel_sample_period_s=spec.topology.channel_sample_period_s,
        playback_workers=spec.engine.playback_workers,
        controller_mode=spec.controller.mode,
        controller=ControllerConfig(
            handover=HandoverConfig(
                hysteresis_db=spec.controller.handover_hysteresis_db,
                time_to_trigger_s=spec.controller.handover_time_to_trigger_s,
                sample_period_s=spec.controller.handover_sample_period_s,
                load_bias_db=spec.controller.handover_load_bias_db,
            ),
            overload_threshold=spec.controller.cell_overload_threshold,
            underload_threshold=spec.controller.cell_underload_threshold,
            rebalance_fraction=spec.controller.cell_rebalance_fraction,
            apps=tuple((app.name, app.params) for app in spec.controller.apps) or None,
        ),
        edge_servers=spec.edge.num_servers,
        edge_server=EdgeServerConfig(
            cache_capacity_gbytes=spec.edge.cache_capacity_gbytes,
            cpu_capacity_cycles_per_s=spec.edge.cpu_capacity_cycles_per_s,
            cycles_per_pixel=spec.edge.cycles_per_pixel,
        ),
        placement=PlacementConfig(
            strategy=spec.placement.strategy,
            horizon_intervals=spec.placement.horizon_intervals,
            mispredict_threshold=spec.placement.mispredict_threshold,
            reprovision=spec.placement.reprovision,
        ),
        recommendation_popularity_weight=spec.catalog.recommendation_popularity_weight,
        popularity_update_rate=spec.catalog.popularity_update_rate,
        swipe_gap_s=spec.catalog.swipe_gap_s,
        collection_policy=CollectionPolicy(
            period_multiplier=spec.engine.collection_period_multiplier,
            drop_probability=spec.engine.collection_drop_probability,
            delay_s=spec.engine.collection_delay_s,
        ),
        seed=spec.seed,
    )
    scheme_config: Optional[SchemeConfig] = None
    if spec.mode == "scheme":
        scheme_config = SchemeConfig(
            warmup_intervals=spec.scheme.warmup_intervals,
            cnn_epochs=spec.scheme.cnn_epochs,
            ddqn_episodes=spec.scheme.ddqn_episodes,
            mc_rollouts=spec.scheme.mc_rollouts,
            min_groups=spec.scheme.min_groups,
            max_groups=spec.scheme.max_groups,
            k_strategy=spec.scheme.k_strategy,
            fixed_k=spec.scheme.fixed_k,
            feature_steps=spec.engine.feature_steps,
            seed=spec.scheme.seed,
        )
    return CompiledScenario(spec=spec, sim_config=sim_config, scheme_config=scheme_config)
