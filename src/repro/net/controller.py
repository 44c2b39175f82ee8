"""Event-driven multi-cell RAN controller runtime.

The controller owns two pieces of network state the simulator used to treat
as implicit: which cell serves each user, and how multicast groups map onto
cells.  It is driven by records flowing through its own
:class:`repro.sim.events.EventQueue` instance (the same event machinery the
simulation substrate exposes), which serialises every state change into one
time-ordered stream.  Each call returns (or drains) the events it fired; the
simulator records them on the interval's result, and the controller keeps
no log of its own:

* :class:`HandoverEvent` -- a user's serving cell changes after the
  hysteresis + time-to-trigger rule (:mod:`repro.net.handover`) fires on
  mid-interval measurement samples,
* :class:`GroupScopeEvent` -- a logical multicast group splits across (or
  merges back into fewer) cells because members crossed a cell boundary; a
  multicast channel is per-cell, so the worst-member rule is scoped to the
  serving base station,
* :class:`CellLoadEvent` -- a cell's resource-block demand versus its
  budget at the end of an interval,
* :class:`~repro.net.apps.base.AppEvent` -- anything a controller app
  emits (demotions, budget transfers, ...).

:class:`RanController` itself is a thin *runtime*: association state,
per-cell bookkeeping, scoped-id math and the event bus.  Every policy --
which handovers fire, how groups are scoped, how budgets rebalance -- lives
in a pluggable :class:`~repro.net.apps.base.ControllerApp` attached to the
runtime (see :mod:`repro.net.apps`).  The default app stack
(``a3_handover``, ``cell_scoping``, ``prorata_rebalance``) reproduces the
historical monolithic controller bit-for-bit.

Everything is deterministic: the controller consumes no randomness, so for
identical seeds the simulator produces the identical event sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.net.handover import HandoverConfig, measure_mean_snr

if TYPE_CHECKING:  # imported lazily at runtime -- see RanController.__init__
    from repro.net.apps.base import AppEvent


@dataclass(frozen=True)
class HandoverEvent:
    """A user's serving cell changed."""

    time_s: float
    user_id: int
    source_cell: int
    target_cell: int
    margin_db: float


@dataclass(frozen=True)
class GroupScopeEvent:
    """A logical group's cell footprint changed.

    ``kind`` is ``"split"`` (more cells than before), ``"merge"`` (fewer)
    or ``"move"`` (same number of cells but a different set -- e.g. every
    member handed over from cell 0 to cell 1).
    """

    time_s: float
    logical_group_id: int
    kind: str
    cells: Tuple[int, ...]
    previous_cells: Tuple[int, ...]


@dataclass(frozen=True)
class CellLoadEvent:
    """End-of-interval load report of one cell."""

    time_s: float
    cell_id: int
    demand_blocks: float
    budget_blocks: float
    utilization: float
    overloaded: bool
    outage_groups: int = 0


@dataclass
class CellState:
    """Mutable per-cell bookkeeping the controller maintains."""

    cell_id: int
    rb_budget: float
    rb_demand: float = 0.0
    served_users: int = 0
    outage_groups: int = 0

    @property
    def utilization(self) -> float:
        return cell_utilization(self.rb_demand, self.rb_budget)


def cell_utilization(demand_blocks: float, budget_blocks: float) -> float:
    """Demand over budget; ``inf`` for a zero-budget cell with demand."""
    if budget_blocks > 0:
        return demand_blocks / budget_blocks
    return 0.0 if demand_blocks <= 0 else float("inf")


@dataclass(frozen=True)
class ControllerConfig:
    """Controller parameters: the one home of every controller knob.

    ``handover`` holds the A3 rule the ``a3_handover`` app runs and the
    load bias :meth:`RanController.cell_bias_db` applies.
    ``overload_threshold`` / ``underload_threshold`` classify cells by
    resource-block utilization, for the load reports and the rebalance
    apps alike; each interval a rebalance app moves at most
    ``rebalance_fraction`` of an underloaded cell's budget towards
    overloaded cells (total budget is conserved).  Apps read these values
    from the runtime and declare no copies of them.

    ``apps`` is the controller-app stack: a sequence of app names,
    ``(name, params)`` pairs or ``{"name", "params"}`` mappings (see
    :mod:`repro.net.apps`), normalised to ``(name, params)`` tuples.  The
    registry checks each name (``KeyError``), the app its params
    (``ValueError``).  ``None`` builds the default stack (``a3_handover``,
    ``cell_scoping``, ``prorata_rebalance``), which reproduces the
    pre-framework monolithic controller bit-for-bit.
    """

    handover: HandoverConfig = field(default_factory=HandoverConfig)
    overload_threshold: float = 0.9
    underload_threshold: float = 0.5
    rebalance_fraction: float = 0.25
    apps: Optional[Sequence] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.underload_threshold < self.overload_threshold:
            raise ValueError(
                "thresholds must satisfy 0 < underload_threshold < overload_threshold"
            )
        if not 0.0 <= self.rebalance_fraction <= 1.0:
            raise ValueError("rebalance_fraction must be in [0, 1]")
        if self.apps is not None:
            # Imported lazily: repro.net.apps.builtin imports this module.
            from repro.net.apps import create_app, normalize_app_entry

            apps = tuple(map(normalize_app_entry, self.apps))
            for name, params in apps:
                create_app(name, params)
            object.__setattr__(self, "apps", apps)


class RanController:
    """Thin controller runtime: association, cell state, event bus, apps.

    The policy stack is built from ``config.apps`` (see
    :class:`ControllerConfig`).
    """

    def __init__(
        self,
        base_stations: Sequence,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        if not base_stations:
            raise ValueError("need at least one base station")
        self.config = config if config is not None else ControllerConfig()
        self.base_stations = list(base_stations)
        self.cell_ids: List[int] = [bs.bs_id for bs in self.base_stations]
        if len(set(self.cell_ids)) != len(self.cell_ids):
            raise ValueError("base station ids must be unique")
        self._cell_index = {cid: index for index, cid in enumerate(self.cell_ids)}
        # Imported here, not at module level: repro.net must stay importable
        # without repro.sim (whose config imports repro.twin, which imports
        # repro.net -- a module-level import would close that cycle).
        from repro.sim.events import EventQueue

        self.events = EventQueue()
        self.serving_cell: Dict[int, int] = {}
        self.cell_states: Dict[int, CellState] = {
            bs.bs_id: CellState(cell_id=bs.bs_id, rb_budget=float(bs.config.num_resource_blocks))
            for bs in self.base_stations
        }
        #: Cells flagged overloaded by the most recent load report, captured
        #: *before* budget rebalancing (which by construction pulls a cell
        #: back to the threshold whenever donors suffice — measuring after
        #: it would hide exactly the overloads the bias should react to).
        self._last_overloaded: FrozenSet[int] = frozenset()
        #: Bus-fired events buffered for the caller: scope events emitted
        #: since the last drain (mid-interval re-scopes land here) and app
        #: events of the current interval.
        self._scope_fired: List[GroupScopeEvent] = []
        self._app_fired: List["AppEvent"] = []
        self._handover_sink: Optional[List[HandoverEvent]] = None
        # Deferred import: repro.net.apps.builtin imports this module for
        # the event dataclasses, so the apps package cannot be a module-
        # level import here (and, as with EventQueue above, the runtime
        # must stay importable without the app layer loaded).
        from repro.net.apps import build_app_stack

        self.apps = build_app_stack(self.config.apps)
        for app in self.apps:
            app.attach(self)

    # ------------------------------------------------------------------- apps
    def app(self, name: str):
        """The first attached app with registry name ``name`` (or ``None``)."""
        for app in self.apps:
            if app.name == name:
                return app
        return None

    # ------------------------------------------------------------ association
    def attach_user(self, user_id: int, cell_id: int) -> None:
        """Associate a (new) user with ``cell_id``."""
        if cell_id not in self.cell_states:
            raise KeyError(f"unknown cell {cell_id}")
        previous = self.serving_cell.get(user_id)
        if previous is not None:
            self.cell_states[previous].served_users -= 1
        self.serving_cell[user_id] = cell_id
        self.cell_states[cell_id].served_users += 1
        for app in self.apps:
            app.on_user_attached(user_id)

    def detach_user(self, user_id: int) -> None:
        if user_id not in self.serving_cell:
            raise KeyError(f"unknown user {user_id}")
        self.cell_states[self.serving_cell.pop(user_id)].served_users -= 1
        for app in self.apps:
            app.on_user_detached(user_id)

    def cell_bias_db(self) -> Optional[np.ndarray]:
        """Load-aware handover bias per cell (``None`` when disabled).

        Every cell whose utilization (as of the most recent load report, or
        an operator budget override such as an outage drill) exceeds the
        overload threshold is discounted by ``handover.load_bias_db``:
        candidates on it need that much extra genuine margin, and its own
        users leave it that much more readily.  With the default
        ``load_bias_db == 0`` this returns ``None`` and the pure-SNR
        decision sequence is preserved bit-for-bit.
        """
        bias_db = self.config.handover.load_bias_db
        if bias_db <= 0:
            return None
        bias = np.zeros(len(self.cell_ids))
        for index, cell_id in enumerate(self.cell_ids):
            # Overloaded in the last (pre-rebalance) load report, or over the
            # threshold right now (e.g. an operator outage drill between
            # intervals drove the budget to zero under live demand).
            if (
                cell_id in self._last_overloaded
                or self.cell_states[cell_id].utilization > self.config.overload_threshold
            ):
                bias[index] = -bias_db
        return bias

    # -------------------------------------------------------------- handover
    def measurement_times(self, start_s: float, end_s: float) -> np.ndarray:
        """The interval's measurement grid: first app with an opinion wins.

        Without a measurement-driven app (e.g. a stack with no
        ``a3_handover``) the grid is empty and no handovers can fire.
        """
        for app in self.apps:
            times = app.measurement_times(start_s, end_s)
            if times is not None:
                return np.asarray(times, dtype=float)
        return np.zeros(0)

    def observe_interval(
        self,
        times_s: np.ndarray,
        positions: np.ndarray,
        user_ids: Sequence[int],
        end_s: float,
    ) -> List[HandoverEvent]:
        """Feed one interval's measurements to the apps and run the bus.

        ``positions`` has shape ``(times, users, 2)`` aligned with
        ``user_ids``.  Apps schedule :class:`HandoverEvent` records on the
        bus at their trigger times; the runtime applies them (association +
        per-cell counters) as the bus fires and returns this interval's
        fired events.
        """
        user_ids = list(user_ids)
        fired: List[HandoverEvent] = []
        self._handover_sink = fired
        try:
            if user_ids and len(self.cell_ids) > 1 and np.asarray(times_s).size:
                from repro.net.apps.base import MeasurementContext

                snr = measure_mean_snr(self.base_stations, positions)
                ctx = MeasurementContext(
                    times_s=np.asarray(times_s, dtype=float),
                    snr_db=snr,
                    user_ids=user_ids,
                    end_s=end_s,
                )
                for app in self.apps:
                    app.on_measurement(ctx)
            self.events.run_until(end_s)
        finally:
            self._handover_sink = None
        return fired

    def schedule_handover(self, event: HandoverEvent) -> None:
        """Schedule an app-decided handover on the bus at its trigger time."""
        self.events.schedule(
            event.time_s,
            name="handover",
            payload=event,
            callback=lambda event=event: self._apply_handover(event),
        )

    def _apply_handover(self, event: HandoverEvent) -> None:
        self.serving_cell[event.user_id] = event.target_cell
        self.cell_states[event.source_cell].served_users -= 1
        self.cell_states[event.target_cell].served_users += 1
        if self._handover_sink is not None:
            self._handover_sink.append(event)
        for app in self.apps:
            app.on_handover(event)

    # ------------------------------------------------------- group management
    def scoped_group_id(self, logical_group_id: int, cell_id: int) -> int:
        """Stable id of a logical group's per-cell slice.

        With a single cell the scoped id equals the logical id, so
        single-cell deployments see unchanged group ids.
        """
        return logical_group_id * len(self.cell_ids) + self._cell_index[cell_id]

    def logical_group_id(self, scoped_group_id: int) -> int:
        return scoped_group_id // len(self.cell_ids)

    def _split_by_cell(self, member_ids: Sequence[int]) -> Dict[int, List[int]]:
        by_cell: Dict[int, List[int]] = {}
        for uid in member_ids:
            by_cell.setdefault(self.serving_cell[uid], []).append(uid)
        return by_cell

    def _split_grouping(
        self, grouping: Mapping[int, Sequence[int]]
    ) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
        """The pure per-cell split every scoping path starts from."""
        scoped: Dict[int, List[int]] = {}
        cell_of_group: Dict[int, int] = {}
        for logical_id, member_ids in grouping.items():
            by_cell = self._split_by_cell(member_ids)
            for cell_id in sorted(by_cell):
                scoped_id = self.scoped_group_id(logical_id, cell_id)
                scoped[scoped_id] = by_cell[cell_id]
                cell_of_group[scoped_id] = cell_id
        return scoped, cell_of_group

    def preview_scope(
        self,
        grouping: Mapping[int, Sequence[int]],
        time_s: float = 0.0,
        mean_snr_db=None,
    ) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
        """Non-mutating view of :meth:`scope_grouping`.

        Returns the ``(scoped_grouping, cell_of_group)`` the next
        :meth:`scope_grouping` call would produce under the current
        associations, without emitting events or updating app state
        (apps see ``ctx.preview=True``).  The DT prediction layer uses it
        to predict demand against the per-cell groups the simulator will
        actually play.
        """
        from repro.net.apps.base import ScopeContext

        scoped, cell_of_group = self._split_grouping(grouping)
        ctx = ScopeContext(
            time_s=time_s,
            grouping=grouping,
            scoped=scoped,
            cell_of_group=cell_of_group,
            mean_snr_db=mean_snr_db,
            preview=True,
        )
        for app in self.apps:
            app.on_interval_start(ctx)
        return scoped, cell_of_group

    def scope_grouping(
        self,
        grouping: Mapping[int, Sequence[int]],
        time_s: float,
        mean_snr_db=None,
    ) -> Tuple[Dict[int, List[int]], Dict[int, int], List[GroupScopeEvent]]:
        """Split each logical group by its members' serving cells.

        A multicast channel exists per (group, cell): the worst-member rule
        only spans users the same base station transmits to.  Returns
        ``(scoped_grouping, cell_of_group, scope_events)`` where scoped ids
        come from :meth:`scoped_group_id`.  Apps observe (and may rewrite)
        the scoped grouping via ``on_interval_start``; footprint changes
        versus the previous interval are emitted as
        :class:`GroupScopeEvent` records through the bus at ``time_s``.
        """
        from repro.net.apps.base import ScopeContext

        scoped, cell_of_group = self._split_grouping(grouping)
        ctx = ScopeContext(
            time_s=time_s,
            grouping=grouping,
            scoped=scoped,
            cell_of_group=cell_of_group,
            mean_snr_db=mean_snr_db,
            preview=False,
        )
        for app in self.apps:
            app.on_interval_start(ctx)
        self.events.run_until(time_s)
        return scoped, cell_of_group, self.drain_scope_events()

    def emit_scope_event(self, event: GroupScopeEvent) -> None:
        """Schedule a scope event on the bus; fired events are buffered."""
        self.events.schedule(
            event.time_s,
            name=f"group_{event.kind}",
            payload=event,
            callback=lambda event=event: self._scope_fired.append(event),
        )

    def drain_scope_events(self) -> List[GroupScopeEvent]:
        """Scope events fired since the last drain (mid-interval re-scopes included)."""
        fired, self._scope_fired = self._scope_fired, []
        return fired

    # ------------------------------------------------------------- app events
    def emit_app_event(self, event: AppEvent) -> None:
        """Schedule an app event on the bus; fired events are buffered."""
        self.events.schedule(
            event.time_s,
            name=f"app:{event.app}:{event.name}",
            payload=event,
            callback=lambda event=event: self._app_fired.append(event),
        )

    def drain_app_events(self) -> List[AppEvent]:
        """App events fired since the last drain."""
        fired, self._app_fired = self._app_fired, []
        return fired

    # --------------------------------------------------------- load balancing
    def set_cell_budget(self, cell_id: int, blocks: float) -> None:
        """Operator override of one cell's budget (e.g. an outage drill)."""
        if blocks < 0:
            raise ValueError("blocks must be non-negative")
        self.cell_states[cell_id].rb_budget = float(blocks)

    def rb_budget_by_cell(self) -> Dict[int, float]:
        return {cid: self.cell_states[cid].rb_budget for cid in self.cell_ids}

    def finish_interval(
        self,
        demand_by_cell: Mapping[int, float],
        outage_by_cell: Mapping[int, int],
        time_s: float,
    ) -> Tuple[List[CellLoadEvent], Dict[int, float]]:
        """Record per-cell load, emit load events and run the end hooks.

        ``demand_by_cell`` carries each cell's finite resource-block demand
        of the interval that just ended; ``outage_by_cell`` the number of
        its groups whose demand was infinite (no decodable MCS).  Returns
        ``(load_events, utilization_by_cell)`` with utilization measured
        against the pre-rebalance budgets; budget rebalancing itself is an
        app concern (``on_interval_end``).
        """
        fired: List[CellLoadEvent] = []
        utilization: Dict[int, float] = {}
        for cell_id in self.cell_ids:
            state = self.cell_states[cell_id]
            state.rb_demand = float(demand_by_cell.get(cell_id, 0.0))
            state.outage_groups = int(outage_by_cell.get(cell_id, 0))
            utilization[cell_id] = state.utilization
            event = CellLoadEvent(
                time_s=time_s,
                cell_id=cell_id,
                demand_blocks=state.rb_demand,
                budget_blocks=state.rb_budget,
                utilization=state.utilization,
                overloaded=state.utilization > self.config.overload_threshold,
                outage_groups=state.outage_groups,
            )
            self.events.schedule(
                time_s,
                name="cell_load",
                payload=event,
                callback=lambda event=event, fired=fired: fired.append(event),
            )
        self.events.run_until(time_s)
        self._last_overloaded = frozenset(
            event.cell_id for event in fired if event.overloaded
        )
        from repro.net.apps.base import LoadContext

        ctx = LoadContext(
            time_s=time_s,
            load_events=fired,
            utilization=dict(utilization),
            demand_by_cell=dict(demand_by_cell),
            outage_by_cell=dict(outage_by_cell),
        )
        for app in self.apps:
            app.on_interval_end(ctx)
        # Fire anything the end hooks scheduled (e.g. budget-transfer app
        # events); a second run_until at the same time is a no-op otherwise.
        self.events.run_until(time_s)
        return fired, utilization
