"""Controller-app framework: lifecycle, hook contexts and the app registry.

The RAN controller (:class:`repro.net.controller.RanController`) is a thin
runtime — association state, per-cell bookkeeping, scoped-id math and one
time-ordered event bus, its :class:`repro.sim.events.EventQueue`.
Every *policy* lives in a :class:`ControllerApp`: a small component that
attaches to the runtime and reacts to its lifecycle hooks, the same shape
SDN controllers (POX/EMPOWER) use for pluggable network applications.

Hook points, in the order the runtime drives them each interval:

``on_interval_start``
    Fired while the runtime scopes a logical grouping per serving cell at
    the interval start.  Apps may emit events and/or rewrite the scoped
    grouping in place (:class:`~repro.net.apps.builtin.CellScopingApp`
    emits split/merge/move events here;
    :class:`~repro.net.apps.builtin.WeakMemberDemotionApp` demotes weak
    members).  The same hook runs with ``ctx.preview=True`` for the
    non-mutating :meth:`~repro.net.controller.RanController.preview_scope`
    path — apps must not touch persistent state or emit events then.
``measurement_times`` / ``on_measurement``
    The first app returning a non-``None`` sample grid decides when the
    interval is measured; ``on_measurement`` then sees the mean-SNR tensor
    over that grid (:class:`~repro.net.apps.builtin.A3HandoverApp`
    schedules handover events from it).
``on_handover``
    Fired by the runtime as each handover event fires on the bus, after
    association state is updated — mid-interval reactions (e.g. re-scoping
    a group whose member just moved) go here.
``on_interval_end``
    Fired after the end-of-interval load report; budget rebalancers
    (:class:`~repro.net.apps.builtin.ProRataRebalanceApp`,
    :class:`~repro.net.apps.builtin.GreedyRebalanceApp`) act here.

Apps are registered by name via :func:`register_app` and instantiated from
``(name, params)`` pairs by :func:`build_app_stack`; ``None`` builds
:data:`DEFAULT_APP_STACK`, which reproduces the historical monolithic
controller bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np


@dataclass(frozen=True)
class AppEvent:
    """An event emitted by a controller app onto the runtime's bus.

    ``payload`` carries JSON-canonical values only (numbers, strings,
    booleans, ``None``, lists, dicts) so app events export verbatim into
    ``RunResult`` records.
    """

    time_s: float
    app: str
    name: str
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ScopeContext:
    """What ``on_interval_start`` sees (and may mutate) while scoping.

    ``scoped`` / ``cell_of_group`` are the per-cell grouping the interval
    will play; apps rewrite them *in place*.  ``mean_snr_db`` is a lazy
    measurement callable (``user_ids -> {user_id: mean SNR dB towards the
    serving cell}``) supplied by the simulator — ``None`` when the runtime
    is driven standalone.  ``preview=True`` marks the non-mutating
    prediction path: no events, no persistent state changes.
    """

    time_s: float
    grouping: Mapping[int, Sequence[int]]
    scoped: Dict[int, List[int]]
    cell_of_group: Dict[int, int]
    mean_snr_db: Optional[Callable[[Sequence[int]], Dict[int, float]]] = None
    preview: bool = False


@dataclass
class MeasurementContext:
    """One interval's measurement batch, shared by every app.

    ``snr_db`` has shape ``(times, users, cells)`` aligned with
    ``times_s`` and ``user_ids``; cells follow the runtime's cell order.
    """

    times_s: np.ndarray
    snr_db: np.ndarray
    user_ids: List[int]
    end_s: float


@dataclass
class LoadContext:
    """The end-of-interval load report ``on_interval_end`` reacts to."""

    time_s: float
    load_events: List[Any]
    utilization: Dict[int, float]
    demand_by_cell: Dict[int, float]
    outage_by_cell: Dict[int, int]


class ControllerApp:
    """Base class of all controller apps.

    Subclasses set ``name`` (the registry key) and ``default_params`` (the
    complete set of recognised knobs with their defaults; unknown keys in
    ``params`` raise at construction).  ``configure()`` runs once the app
    is attached and ``self.runtime`` is available.
    """

    name: str = ""
    default_params: Dict[str, Any] = {}

    def __init__(self, params: Optional[Mapping[str, Any]] = None) -> None:
        params = dict(params or {})
        unknown = set(params) - set(self.default_params)
        if unknown:
            raise ValueError(
                f"unknown params for app {self.name!r}: {sorted(unknown)} "
                f"(recognised: {sorted(self.default_params)})"
            )
        self.params: Dict[str, Any] = {**self.default_params, **params}
        self.runtime = None

    # ------------------------------------------------------------- lifecycle
    def attach(self, runtime) -> None:
        """Bind the app to a runtime and run its ``configure()`` step."""
        self.runtime = runtime
        self.configure()

    def configure(self) -> None:
        """Post-attach setup; ``self.runtime`` is available here."""

    # ------------------------------------------------------------------ hooks
    def on_user_attached(self, user_id: int) -> None:
        """A user was (re-)associated via ``attach_user``."""

    def on_user_detached(self, user_id: int) -> None:
        """A user left via ``detach_user``."""

    def measurement_times(self, start_s: float, end_s: float) -> Optional[np.ndarray]:
        """Sample grid this app wants for ``[start_s, end_s)``; ``None`` = no opinion."""
        return None

    def on_measurement(self, ctx: MeasurementContext) -> None:
        """React to one interval's mean-SNR measurement batch."""

    def on_handover(self, event) -> None:
        """A handover event fired on the bus (association already updated)."""

    def on_interval_start(self, ctx: ScopeContext) -> None:
        """The runtime is scoping a grouping at the interval start."""

    def on_interval_end(self, ctx: LoadContext) -> None:
        """The end-of-interval load report was emitted."""


# ---------------------------------------------------------------- registry
_APP_REGISTRY: Dict[str, Type[ControllerApp]] = {}

#: The stack ``RanController`` builds when no apps are specified; it
#: reproduces the pre-framework monolithic controller bit-for-bit.
DEFAULT_APP_STACK: Tuple[str, ...] = (
    "a3_handover",
    "cell_scoping",
    "prorata_rebalance",
)

#: One app entry as accepted by :func:`build_app_stack` and
#: ``ControllerConfig.apps`` (which takes no live instances).
AppEntry = Union[str, Mapping[str, Any], Tuple[str, Mapping[str, Any]], ControllerApp]


def register_app(cls: Type[ControllerApp]) -> Type[ControllerApp]:
    """Class decorator registering ``cls`` under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty 'name'")
    if cls.name in _APP_REGISTRY:
        raise ValueError(f"controller app {cls.name!r} already registered")
    _APP_REGISTRY[cls.name] = cls
    return cls


def app_names() -> List[str]:
    """Sorted names of every registered controller app."""
    _ensure_builtins()
    return sorted(_APP_REGISTRY)


def get_app_class(name: str) -> Type[ControllerApp]:
    _ensure_builtins()
    try:
        return _APP_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_APP_REGISTRY))
        raise KeyError(
            f"unknown controller app {name!r} (registered: {known})"
        ) from None


def create_app(name: str, params: Optional[Mapping[str, Any]] = None) -> ControllerApp:
    """Instantiate the registered app ``name`` with ``params``."""
    return get_app_class(name)(params)


def normalize_app_entry(entry: AppEntry) -> Tuple[str, Dict[str, Any]]:
    """Lower one stack entry to a ``(name, params)`` pair (pure data).

    Accepts a bare name, a ``{"name": ..., "params": {...}}`` mapping or a
    ``(name, params)`` pair; live :class:`ControllerApp` instances are
    rejected here because config-level entries must stay serialisable.
    """
    if isinstance(entry, str):
        return entry, {}
    if isinstance(entry, Mapping):
        extra = set(entry) - {"name", "params"}
        if "name" not in entry or extra:
            raise ValueError(
                f"app entry mapping needs 'name' (+ optional 'params'), got {dict(entry)!r}"
            )
        return str(entry["name"]), dict(entry.get("params") or {})
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        return str(entry[0]), dict(entry[1] or {})
    raise TypeError(
        f"app entry must be a name, a {{'name', 'params'}} mapping or a "
        f"(name, params) pair, got {entry!r}"
    )


def build_app_stack(entries: Optional[Sequence[AppEntry]] = None) -> List[ControllerApp]:
    """Instantiate an app stack; ``None`` builds :data:`DEFAULT_APP_STACK`."""
    if entries is None:
        entries = DEFAULT_APP_STACK
    apps: List[ControllerApp] = []
    for entry in entries:
        if isinstance(entry, ControllerApp):
            apps.append(entry)
        else:
            name, params = normalize_app_entry(entry)
            apps.append(create_app(name, params))
    return apps


def _ensure_builtins() -> None:
    """Import the builtin apps so the registry is complete."""
    import repro.net.apps.builtin  # noqa: F401  (registers on import)
