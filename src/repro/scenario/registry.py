"""Named scenario registry.

Each entry is a zero-argument factory returning a fresh
:class:`~repro.scenario.spec.ScenarioSpec`, so specs stay immutable values:
callers override fields via :meth:`ScenarioSpec.with_overrides` without
affecting anyone else.  ``repro scenarios`` lists this registry and
``repro run <name>`` executes from it; the CI smoke matrix runs every entry
for one interval.

The two ports — :func:`campus_fig3` and :func:`multicell_campus` — are
golden-pinned: compiled configs and run totals are bit-identical to the
hand-wired code they replaced (``tests/test_scenario.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.scenario.compiler import CompiledScenario, compile_spec
from repro.scenario.runner import RunResult, ScenarioRunner
from repro.scenario.spec import (
    BudgetChange,
    CatalogSpec,
    CellOutage,
    ChurnPhase,
    ControllerAppSpec,
    ControllerSpec,
    EdgeSpec,
    FlashCrowd,
    GroupingSpec,
    MassDeparture,
    PlacementSpec,
    PopulationSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
)

_REGISTRY: Dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(factory: Callable[[], ScenarioSpec]) -> Callable[[], ScenarioSpec]:
    """Register a spec factory under its spec's name (decorator-friendly)."""
    spec = factory()
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = factory
    return factory


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def get_scenario(
    name: str, overrides: Optional[Mapping[str, Any]] = None
) -> ScenarioSpec:
    """A fresh spec of the named scenario, with optional dotted overrides."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r} (registered: {known})") from None
    spec = factory()
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec


def compile_scenario(
    name: str, overrides: Optional[Mapping[str, Any]] = None
) -> CompiledScenario:
    return compile_spec(get_scenario(name, overrides))


def run_scenario(name: str, overrides: Optional[Mapping[str, Any]] = None) -> RunResult:
    """The one-call entry point: registry name (+ overrides) → RunResult."""
    return ScenarioRunner(get_scenario(name, overrides)).run()


# --------------------------------------------------------------------------
# Ports of the historical hand-wired scenarios (golden-pinned).
# --------------------------------------------------------------------------
@register_scenario
def campus_fig3() -> ScenarioSpec:
    """The paper's Fig. 3 evaluation, exactly as ``run_fig3_experiment`` wired it."""
    return ScenarioSpec(
        name="campus_fig3",
        description=(
            "The paper's evaluation scenario: a News-heavy campus population, "
            "DT-assisted predict-then-observe loop (Fig. 3 panels + headline "
            "accuracy)."
        ),
        seed=2023,
        mode="scheme",
        num_intervals=6,
        interval_s=150.0,
        population=PopulationSpec(
            num_users=24,
            favourite_category="News",
            favourite_user_fraction=0.8,
            favourite_boost=8.0,
        ),
        catalog=CatalogSpec(
            num_videos=100,
            recommendation_popularity_weight=0.3,
            popularity_update_rate=0.05,
        ),
        scheme=SchemeSpec(),
    )


@register_scenario
def multicell_campus() -> ScenarioSpec:
    """The multi-cell handover + outage-drill walk-through, as the example wired it."""
    return ScenarioSpec(
        name="multicell_campus",
        description=(
            "2x2 cell grid with A3 handover, per-cell multicast scoping and "
            "budget rebalancing; the busiest cell loses its whole RB budget "
            "mid-run (outage drill)."
        ),
        seed=17,
        mode="playback",
        num_intervals=8,
        interval_s=300.0,
        topology=TopologySpec(num_cells=4, area_width_m=1400.0, area_height_m=1100.0),
        population=PopulationSpec(
            num_users=48, favourite_category="News", favourite_user_fraction=0.5
        ),
        catalog=CatalogSpec(num_videos=80),
        controller=ControllerSpec(mode="handover"),
        grouping=GroupingSpec(policy="preference", num_groups=4),
        timeline=(CellOutage(interval=4, cell="busiest", budget_blocks=0.0),),
    )


# --------------------------------------------------------------------------
# New workloads the declarative layer opens up.
# --------------------------------------------------------------------------
@register_scenario
def flash_crowd() -> ScenarioSpec:
    """A viral moment: the population doubles at once, mid-prediction-loop."""
    return ScenarioSpec(
        name="flash_crowd",
        description=(
            "DT prediction loop through a flash crowd: 20 Sports-leaning users "
            "join at once at interval 2, stressing group re-construction and "
            "cold twins."
        ),
        seed=42,
        mode="scheme",
        num_intervals=5,
        interval_s=120.0,
        population=PopulationSpec(
            num_users=20,
            favourite_category="News",
            favourite_user_fraction=0.5,
            favourite_boost=4.0,
        ),
        catalog=CatalogSpec(num_videos=80),
        controller=ControllerSpec(mode="handover"),
        scheme=SchemeSpec(cnn_epochs=4, ddqn_episodes=8, mc_rollouts=8),
        timeline=(FlashCrowd(interval=2, arrivals=20, favourite="Sports"),),
    )


@register_scenario
def stadium_egress() -> ScenarioSpec:
    """A stadium empties: most of a dense crowd leaves over a few intervals."""
    return ScenarioSpec(
        name="stadium_egress",
        description=(
            "Dense 72-user crowd on a 4-cell grid drains away (12 departures "
            "per interval from interval 2, plus a final mass departure), "
            "shrinking multicast groups and per-cell load."
        ),
        seed=7,
        mode="playback",
        num_intervals=6,
        interval_s=180.0,
        topology=TopologySpec(num_cells=4, area_width_m=1200.0, area_height_m=900.0),
        population=PopulationSpec(
            num_users=72,
            favourite_category="Sports",
            favourite_user_fraction=0.7,
            favourite_boost=6.0,
            churn_phases=(
                ChurnPhase(
                    start_interval=2, end_interval=5, departures_per_interval=12
                ),
            ),
        ),
        catalog=CatalogSpec(num_videos=60),
        controller=ControllerSpec(mode="handover"),
        grouping=GroupingSpec(policy="preference", num_groups=4),
        timeline=(MassDeparture(interval=5, departures=20),),
    )


@register_scenario
def commuter_rush() -> ScenarioSpec:
    """Morning rush: commuters stream in, linger, then stream out."""
    return ScenarioSpec(
        name="commuter_rush",
        description=(
            "Arrival wave (6 users/interval for 3 intervals) followed by a "
            "departure wave, over a 3-cell corridor with handover — the "
            "churn-heavy workload the paper's motivation describes."
        ),
        seed=29,
        mode="playback",
        num_intervals=8,
        interval_s=150.0,
        topology=TopologySpec(num_cells=3, area_width_m=1600.0, area_height_m=600.0),
        population=PopulationSpec(
            num_users=18,
            favourite_category="News",
            favourite_user_fraction=0.6,
            churn_phases=(
                ChurnPhase(
                    start_interval=0,
                    end_interval=3,
                    arrivals_per_interval=6,
                    arrival_favourite="News",
                ),
                ChurnPhase(
                    start_interval=5, end_interval=8, departures_per_interval=7
                ),
            ),
        ),
        catalog=CatalogSpec(num_videos=70),
        controller=ControllerSpec(mode="handover"),
        grouping=GroupingSpec(policy="preference", num_groups=3),
    )


@register_scenario
def cell_outage_storm() -> ScenarioSpec:
    """Cascading cell outages under load-aware handover."""
    return ScenarioSpec(
        name="cell_outage_storm",
        description=(
            "Two successive cell outages on a 4-cell grid with load-aware "
            "handover (6 dB bias steers users off overloaded cells) and a "
            "late budget restore — the load balancer and the biased A3 rule "
            "work together."
        ),
        seed=23,
        mode="playback",
        num_intervals=8,
        interval_s=180.0,
        topology=TopologySpec(num_cells=4, area_width_m=1400.0, area_height_m=1100.0),
        population=PopulationSpec(
            num_users=40, favourite_category="News", favourite_user_fraction=0.5
        ),
        catalog=CatalogSpec(num_videos=60),
        controller=ControllerSpec(
            mode="handover",
            handover_load_bias_db=6.0,
            handover_time_to_trigger_s=5.0,
        ),
        grouping=GroupingSpec(policy="preference", num_groups=4),
        timeline=(
            CellOutage(interval=2, cell="busiest", budget_blocks=0.0),
            CellOutage(interval=4, cell="busiest", budget_blocks=0.0),
            BudgetChange(interval=6, cell=0, budget_blocks=100.0),
        ),
    )


@register_scenario
def weak_signal_demotion() -> ScenarioSpec:
    """Cell-edge users demoted to unicast before the worst-member rule prices them."""
    return ScenarioSpec(
        name="weak_signal_demotion",
        description=(
            "multicell_campus topology with a custom controller-app stack: "
            "weak_member_demotion pulls cell-edge members (mean SNR below "
            "30 dB) out of multicast groups into unicast before the "
            "worst-member rule prices the group, and cell_scoping re-scopes "
            "mid-interval on every handover."
        ),
        seed=17,
        mode="playback",
        num_intervals=6,
        interval_s=300.0,
        topology=TopologySpec(num_cells=4, area_width_m=1400.0, area_height_m=1100.0),
        population=PopulationSpec(
            num_users=48, favourite_category="News", favourite_user_fraction=0.5
        ),
        catalog=CatalogSpec(num_videos=80),
        controller=ControllerSpec(
            mode="handover",
            apps=(
                ControllerAppSpec(name="a3_handover"),
                ControllerAppSpec(
                    # 30 dB sits near the campus topology's 20th-percentile
                    # mean SNR, so a handful of members demote per interval.
                    name="weak_member_demotion",
                    params={"rssi_threshold_db": 30.0},
                ),
                ControllerAppSpec(
                    name="cell_scoping", params={"rescope_on_handover": True}
                ),
                ControllerAppSpec(name="prorata_rebalance"),
            ),
        ),
        grouping=GroupingSpec(policy="preference", num_groups=4),
    )


@register_scenario
def edge_flash_crowd() -> ScenarioSpec:
    """Predictive edge placement stressed by a flash crowd (PR 7 tentpole demo)."""
    return ScenarioSpec(
        name="edge_flash_crowd",
        description=(
            "A 3-server edge fleet under DRR predictive placement and "
            "2-interval horizon reservation: a flash crowd doubles the "
            "population at interval 3, the demand forecasters mispredict, "
            "and reprovision events migrate hot groups across the fleet."
        ),
        seed=11,
        mode="playback",
        num_intervals=6,
        interval_s=150.0,
        topology=TopologySpec(num_cells=4, area_width_m=1200.0, area_height_m=900.0),
        population=PopulationSpec(
            num_users=24,
            favourite_category="News",
            favourite_user_fraction=0.5,
        ),
        catalog=CatalogSpec(num_videos=60),
        controller=ControllerSpec(mode="handover"),
        grouping=GroupingSpec(policy="preference", num_groups=6),
        edge=EdgeSpec(
            num_servers=3,
            # Deliberately CPU-starved servers (3e9 cycles per 150 s
            # interval) so per-group transcode jobs are *large* relative to
            # capacity: packing quality becomes visible in the utilization
            # and fragmentation series instead of rounding to zero.
            cpu_capacity_cycles_per_s=2.0e7,
            cache_capacity_gbytes=2.0,
        ),
        placement=PlacementSpec(
            strategy="drr",
            horizon_intervals=3,
            mispredict_threshold=0.5,
            reservation_lead_intervals=2,
        ),
        timeline=(FlashCrowd(interval=3, arrivals=24, favourite="Sports"),),
    )
