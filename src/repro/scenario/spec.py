"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen dataclass tree describing *what* a
workload looks like — topology (cell grid and budgets), population (size
and churn phases), content catalog, mobility, controller/handover knobs,
engine selection and a timeline of scripted :class:`ScenarioEvent`\\ s —
without saying anything about *how* to run it.  The spec is pure data:

* :func:`repro.scenario.compiler.compile_spec` lowers it deterministically
  to a :class:`~repro.sim.config.SimulationConfig`, with the campus,
  controller, edge-server, placement and collection configs nested in it
  (plus, for scheme-mode scenarios, a
  :class:`~repro.core.config.SchemeConfig`), and
* :class:`repro.scenario.runner.ScenarioRunner` drives the compiled
  scenario and returns a typed, JSON-serializable ``RunResult``.

Every entry point (CLI, examples, benchmarks, analysis runners) builds on
this one spec → compile → run pipeline; named specs live in
:mod:`repro.scenario.registry`.

Each input has one check.  The compiled config that carries a value checks
it, so ``compile_spec`` raises for a bad one, and the message names that
config's field (``horizon_intervals must be at least 1``); the spec checks
only what no compiled config carries (mode, the interval count, timeline,
churn phases, reservation lead and margin, grouping policy, draw engine).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.net.apps.base import normalize_app_entry
from repro.video.categories import DEFAULT_CATEGORIES


# ------------------------------------------------------------------ sub-specs
@dataclass(frozen=True)
class TopologySpec:
    """Cell grid, per-cell radio budgets and the area they cover."""

    num_cells: int = 2
    area_width_m: float = 1000.0
    area_height_m: float = 800.0
    tx_power_dbm: float = 43.0
    rb_budget_blocks: int = 100
    rb_bandwidth_hz: float = 180e3
    stream_bandwidth_hz: float = 1.8e6
    implementation_loss: float = 0.9
    channel_sample_period_s: float = 5.0


@dataclass(frozen=True)
class ChurnPhase:
    """Scripted arrivals/departures applied over a range of run steps.

    Active for run steps ``start_interval <= step < end_interval`` (0-based
    indices into the evaluated/played intervals).  Departing users are
    picked by a dedicated scenario stream derived from the spec seed, so a
    phase is a pure function of the spec.
    """

    start_interval: int
    end_interval: int
    arrivals_per_interval: int = 0
    departures_per_interval: int = 0
    arrival_favourite: Optional[str] = None


@dataclass(frozen=True)
class PopulationSpec:
    """Who is on the campus: size, preference skew and churn phases."""

    num_users: int = 30
    favourite_category: Optional[str] = "News"
    favourite_user_fraction: float = 0.6
    favourite_boost: float = 3.0
    preference_concentration: float = 0.7
    preference_learning_rate: float = 0.2
    churn_phases: Tuple[ChurnPhase, ...] = ()


@dataclass(frozen=True)
class CatalogSpec:
    """The short-video catalog and its popularity dynamics."""

    num_videos: int = 120
    categories: Tuple[str, ...] = DEFAULT_CATEGORIES
    zipf_exponent: float = 1.0
    recommendation_popularity_weight: float = 0.5
    popularity_update_rate: float = 0.1
    swipe_gap_s: float = 0.5


@dataclass(frozen=True)
class MobilitySpec:
    """Campus map the trajectory mobility model walks."""

    num_buildings: int = 18


@dataclass(frozen=True)
class ControllerAppSpec:
    """One controller app in :attr:`ControllerSpec.apps`.

    ``name`` is the app's registry key (see :func:`repro.net.apps.app_names`)
    and ``params`` its own knobs (``repro apps`` lists them; the
    controller-wide knobs live on :class:`ControllerSpec`).
    ``compile_spec`` rejects unknown ones through
    :class:`~repro.net.controller.ControllerConfig` (``KeyError`` for a
    name, ``ValueError`` for a param).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class ControllerSpec:
    """RAN-controller mode, handover / load-balancing knobs and app stack.

    ``compile_spec`` lowers this section to
    :class:`~repro.net.controller.ControllerConfig`, which checks it in
    either mode: the ``handover_*`` knobs become its
    :class:`~repro.net.handover.HandoverConfig`, the ``cell_*`` knobs its
    thresholds and rebalance fraction, and ``apps`` its app stack.  The
    apps read the controller-wide knobs from there and have no per-app
    copies of them.

    ``apps`` selects the controller-app stack for ``mode="handover"`` (see
    :mod:`repro.net.apps`): a tuple of :class:`ControllerAppSpec` entries.
    Any other entry is parsed by :func:`repro.net.apps.normalize_app_entry`,
    the parser ``ControllerConfig.apps`` uses too.  The default empty
    tuple compiles to the built-in default stack (``a3_handover``,
    ``cell_scoping``, ``prorata_rebalance``), which is bit-identical to the
    historical monolithic controller.
    """

    mode: str = "boundary"
    handover_hysteresis_db: float = 3.0
    handover_time_to_trigger_s: float = 10.0
    handover_sample_period_s: float = 5.0
    #: Load-aware handover: overloaded cells are discounted by this many dB
    #: in the A3 rule (0.0 keeps handover pure-SNR).
    handover_load_bias_db: float = 0.0
    cell_overload_threshold: float = 0.9
    cell_underload_threshold: float = 0.5
    cell_rebalance_fraction: float = 0.25
    apps: Tuple[ControllerAppSpec, ...] = ()

    def __post_init__(self) -> None:
        apps: List[ControllerAppSpec] = []
        for entry in self.apps:
            if not isinstance(entry, ControllerAppSpec):
                name, params = normalize_app_entry(entry)
                entry = ControllerAppSpec(name=name, params=params)
            apps.append(entry)
        object.__setattr__(self, "apps", tuple(apps))


@dataclass(frozen=True)
class EdgeSpec:
    """The edge-server fleet: how many servers, and each server's build.

    ``compile_spec`` lowers the per-server fields to one
    :class:`~repro.edge.server.EdgeServerConfig`, which checks them, and
    ``num_servers`` to ``SimulationConfig.edge_servers``.  Defaults equal
    the historical single hard-wired server, so a default spec compiles
    (and runs) bit-for-bit like the pre-fleet simulator.
    """

    num_servers: int = 1
    cache_capacity_gbytes: float = 8.0
    cpu_capacity_cycles_per_s: float = 3.0e9 * 16
    cycles_per_pixel: float = 12.0


@dataclass(frozen=True)
class PlacementSpec:
    """Predictive placement + horizon reservation (see :mod:`repro.placement`).

    ``strategy=None`` (default) disables placement entirely: every group
    runs on edge server 0, exactly the pre-fleet behaviour.  ``"drr"``
    packs jobs by dominant remaining resource against forecast demand and
    fires mispredict :class:`~repro.placement.manager.ReprovisionEvent`\\ s;
    ``"first_fit"`` is the naive A/B baseline.
    ``reservation_lead_intervals > 0`` additionally books per-cell radio
    blocks that many intervals ahead of the scripted timeline
    (:class:`~repro.placement.horizon.HorizonReservationPlanner`).  The spec
    checks the lead and margin; ``compile_spec`` lowers the other fields to
    a :class:`~repro.placement.manager.PlacementConfig`, which checks them
    even when ``strategy`` is unset.
    """

    strategy: Optional[str] = None
    horizon_intervals: int = 3
    mispredict_threshold: float = 0.5
    reprovision: bool = True
    reservation_lead_intervals: int = 0
    reservation_margin: float = 1.1

    def __post_init__(self) -> None:
        if self.reservation_lead_intervals < 0:
            raise ValueError(
                "placement.reservation_lead_intervals must be non-negative"
            )
        if not 1.0 <= self.reservation_margin < math.inf:
            raise ValueError("placement.reservation_margin must be finite and at least 1.0")


@dataclass(frozen=True)
class EngineSpec:
    """Interval sharding and twin-collection imperfections.

    ``playback_workers`` is the number of processes an interval is sharded
    over (see :class:`~repro.sim.config.SimulationConfig`); the
    ``collection_*`` knobs degrade digital-twin status collection (the
    staleness ablation's axis): a period multiplier (slower twins), a drop
    probability (lossy uplink) and a reporting delay.
    """

    #: Names the draw engine.  The per-group keyed-stream engine is the only
    #: one, so this accepts ``None`` or ``"grouped"`` (as older specs and
    #: overrides spell it) and selects nothing.
    channel_draw_mode: Optional[str] = None
    playback_workers: int = 1
    feature_steps: int = 32
    collection_period_multiplier: float = 1.0
    collection_drop_probability: float = 0.0
    collection_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.channel_draw_mode not in (None, "grouped"):
            raise ValueError(
                "engine.channel_draw_mode must be None or 'grouped' (the only "
                f"draw engine), got {self.channel_draw_mode!r}"
            )


@dataclass(frozen=True)
class SchemeSpec:
    """Prediction scheme hyper-parameters (``mode="scheme"``), checked by ``SchemeConfig``."""

    warmup_intervals: int = 2
    cnn_epochs: int = 6
    ddqn_episodes: int = 12
    mc_rollouts: int = 10
    min_groups: int = 2
    max_groups: int = 6
    k_strategy: str = "ddqn"
    #: Group count pinned when ``k_strategy="fixed"`` (``None`` otherwise).
    fixed_k: Optional[int] = None
    seed: int = 0


#: Raw-playback grouping policies (see :class:`GroupingSpec`).
GROUPING_POLICIES = ("preference", "round_robin", "singleton")


@dataclass(frozen=True)
class GroupingSpec:
    """How raw-playback scenarios build multicast groups (``mode="playback"``).

    ``policy`` is one of ``"preference"`` (group by each user's strongest
    preference category, modulo ``num_groups``), ``"round_robin"`` (user
    order striped over ``num_groups``) or ``"singleton"`` (the unicast
    baseline: one group per user).
    """

    policy: str = "preference"
    num_groups: int = 4

    def __post_init__(self) -> None:
        if self.policy not in GROUPING_POLICIES:
            raise ValueError(
                f"grouping.policy must be one of {', '.join(GROUPING_POLICIES)}, "
                f"got {self.policy!r}"
            )
        if self.num_groups < 1:
            raise ValueError("grouping.num_groups must be at least 1")


# ------------------------------------------------------------ timeline events
@dataclass(frozen=True)
class ScenarioEvent:
    """Base of all scripted timeline events.

    ``interval`` is the 0-based run step (evaluated interval in scheme
    mode, played interval in playback mode) at whose *start* the event is
    applied, before that interval's grouping/prediction happens.
    """

    interval: int


@dataclass(frozen=True)
class CellOutage(ScenarioEvent):
    """A cell loses (most of) its resource-block budget, as in a site outage.

    ``cell`` is a concrete cell id or ``"busiest"`` (resolved at run time to
    the cell serving the most users).  Requires the handover controller.
    """

    cell: Union[int, str] = "busiest"
    budget_blocks: float = 0.0


@dataclass(frozen=True)
class BudgetChange(ScenarioEvent):
    """Operator override of one cell's resource-block budget."""

    cell: Union[int, str] = 0
    budget_blocks: float = 100.0


@dataclass(frozen=True)
class FlashCrowd(ScenarioEvent):
    """A burst of ``arrivals`` users joins at once (e.g. an event lets out)."""

    arrivals: int = 10
    favourite: Optional[str] = None


@dataclass(frozen=True)
class MassDeparture(ScenarioEvent):
    """``departures`` users leave at once (picked by the scenario stream)."""

    departures: int = 10


#: Event-type registry used by ``ScenarioSpec.to_dict`` round-trips.
EVENT_TYPES: Dict[str, type] = {
    "cell_outage": CellOutage,
    "budget_change": BudgetChange,
    "flash_crowd": FlashCrowd,
    "mass_departure": MassDeparture,
}
_EVENT_NAMES = {cls: name for name, cls in EVENT_TYPES.items()}


# ------------------------------------------------------------- top-level spec
@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, declarative scenario description.

    ``num_intervals`` is the run length: the runner reads it from the spec,
    and no compiled config carries it.
    """

    name: str
    description: str = ""
    seed: int = 0
    #: Run steps the runner executes: evaluated intervals in scheme mode,
    #: played intervals in playback mode (scheme warm-up is extra).
    num_intervals: int = 8
    interval_s: float = 300.0
    #: ``"scheme"`` runs the DT predict-then-observe loop; ``"playback"``
    #: plays raw ground-truth intervals under a grouping policy.
    mode: str = "playback"
    topology: TopologySpec = field(default_factory=TopologySpec)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    catalog: CatalogSpec = field(default_factory=CatalogSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    controller: ControllerSpec = field(default_factory=ControllerSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    scheme: SchemeSpec = field(default_factory=SchemeSpec)
    grouping: GroupingSpec = field(default_factory=GroupingSpec)
    edge: EdgeSpec = field(default_factory=EdgeSpec)
    placement: PlacementSpec = field(default_factory=PlacementSpec)
    timeline: Tuple[ScenarioEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("scheme", "playback"):
            raise ValueError("mode must be 'scheme' or 'playback'")
        if self.num_intervals <= 0:
            raise ValueError("num_intervals must be positive")
        for event in self.timeline:
            if event.interval < 0:
                raise ValueError("timeline event intervals must be non-negative")
            if (
                isinstance(event, (CellOutage, BudgetChange))
                and self.controller.mode != "handover"
            ):
                raise ValueError(
                    f"{type(event).__name__} events need controller.mode='handover'"
                )
        for phase in self.population.churn_phases:
            if phase.start_interval < 0 or phase.end_interval <= phase.start_interval:
                raise ValueError("churn phases need 0 <= start_interval < end_interval")

    # ------------------------------------------------------------- overrides
    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """A copy of this spec with dotted-path field overrides applied.

        ``overrides`` maps paths like ``"population.num_users"`` or
        top-level fields like ``"seed"`` to new values — the mechanism
        behind the CLI's ``--override key=value``.  List-valued fields
        (``catalog.categories``, ``controller.apps``) accept a JSON list
        or a comma-separated string (``controller.apps=a3_handover,
        cell_scoping``).  Unknown paths raise ``KeyError``; event-
        structured fields (``timeline``, ``population.churn_phases``)
        are not reachable this way, replace them with
        :func:`dataclasses.replace` instead.

        All overrides of one section are applied in a single replace, so the
        spec's checks see the final values whatever the order of
        ``overrides``.  Cross-field rules such as ``scheme.fixed_k`` going
        with ``scheme.k_strategy="fixed"`` are checked by ``compile_spec``.
        """
        return _replace_paths(self, [(path.split("."), value) for path, value in overrides.items()])

    # ---------------------------------------------------------------- export
    def to_dict(self) -> dict:
        """JSON-canonical dictionary form (used by ``RunResult`` exports)."""

        def convert(obj: Any) -> Any:
            if isinstance(obj, ScenarioEvent):
                payload = {"type": _EVENT_NAMES[type(obj)]}
                payload.update(
                    {str(f.name): convert(getattr(obj, f.name)) for f in fields(obj)}
                )
                return payload
            if dataclasses.is_dataclass(obj):
                return {str(f.name): convert(getattr(obj, f.name)) for f in fields(obj)}
            if isinstance(obj, Mapping):
                return {str(key): convert(val) for key, val in obj.items()}
            if isinstance(obj, tuple):
                return [convert(item) for item in obj]
            return obj

        return convert(self)


def _replace_paths(node: Any, overrides: List[Tuple[List[str], Any]]) -> Any:
    """``node`` with every ``(path parts, value)`` override applied in one replace."""
    names = {f.name for f in fields(node)} if dataclasses.is_dataclass(node) else set()
    changes: Dict[str, Any] = {}
    nested: Dict[str, List[Tuple[List[str], Any]]] = {}
    for parts, value in overrides:
        name = parts[0]
        if name not in names:
            raise KeyError(f"unknown spec field {name!r}")
        if len(parts) == 1:
            changes[name] = _leaf_value(node, name, value)
        else:
            nested.setdefault(name, []).append((parts[1:], value))
    for name, items in nested.items():
        changes[name] = _replace_paths(getattr(node, name), items)
    return dataclasses.replace(node, **changes)


def _leaf_value(node: Any, name: str, value: Any) -> Any:
    """An override value coerced to the type of leaf field ``name``."""
    current = getattr(node, name)
    if isinstance(current, tuple):
        return _coerce_tuple_override(node, name, current, value)
    if dataclasses.is_dataclass(current):
        raise KeyError(f"field {name!r} is structured; override its leaves instead")
    if isinstance(current, bool):
        return bool(value)
    if isinstance(current, int) and not isinstance(value, bool) and value is not None:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"field {name!r} is an integer; got {value!r}")
        return int(value)
    if isinstance(current, float) and value is not None:
        number = float(value)
        if math.isnan(number):
            raise ValueError(f"field {name!r} must not be NaN")
        return number
    return value


#: Tuple fields whose elements are event/phase dataclasses; overriding them
#: from a flat string would bypass their constructors, so they stay
#: replace()-only.
_STRUCTURED_TUPLE_FIELDS = {"timeline", "churn_phases"}


def _coerce_tuple_override(node: Any, name: str, current: tuple, value: Any) -> tuple:
    """Coerce an override value for a tuple-valued leaf field.

    Accepts a JSON list (already parsed by the caller) or a comma-separated
    string.  ``controller.apps`` entries pass through untouched —
    :class:`ControllerSpec` coerces names/mappings to
    :class:`ControllerAppSpec` — while scalar tuples (e.g.
    ``catalog.categories``) have elements coerced to the current element
    type.
    """
    if name in _STRUCTURED_TUPLE_FIELDS or (
        current and dataclasses.is_dataclass(current[0]) and not isinstance(node, ControllerSpec)
    ):
        raise KeyError(
            f"field {name!r} is structured; replace it with dataclasses.replace instead"
        )
    if isinstance(value, str):
        items = tuple(part.strip() for part in value.split(",") if part.strip())
    elif isinstance(value, (list, tuple)):
        items = tuple(value)
    else:
        raise ValueError(
            f"field {name!r} is list-valued; pass a JSON list or comma-separated string"
        )
    if isinstance(node, ControllerSpec) and name == "apps":
        return items
    if current:
        elem = current[0]
        if isinstance(elem, bool):
            items = tuple(bool(item) for item in items)
        elif isinstance(elem, int):
            items = tuple(int(item) for item in items)
        elif isinstance(elem, float):
            items = tuple(float(item) for item in items)
    return items
