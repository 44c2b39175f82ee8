"""Built-in controller apps.

Three apps extracted from the historical monolithic controller — together
(in :data:`~repro.net.apps.base.DEFAULT_APP_STACK` order) they reproduce
its behaviour bit-for-bit:

* :class:`A3HandoverApp` (``a3_handover``) — hysteresis + time-to-trigger
  handover with optional load bias.
* :class:`CellScopingApp` (``cell_scoping``) — split/merge/move group
  footprint tracking, optionally re-scoping mid-interval on handover.
* :class:`ProRataRebalanceApp` (``prorata_rebalance``) — pro-rata budget
  rebalancing from underloaded towards overloaded cells.

And two policies only expressible in the app architecture:

* :class:`WeakMemberDemotionApp` (``weak_member_demotion``) — demotes weak
  multicast members to unicast before the worst-member rule prices the
  group.
* :class:`GreedyRebalanceApp` (``greedy_rebalance``) — greedy largest-
  deficit-first budget rebalancing, A/B-comparable against pro-rata.

``ScenarioSpec`` knobs: each app's ``default_params`` are set per stack
entry via ``ControllerSpec.apps`` (e.g. ``--override
controller.apps='[{"name": "weak_member_demotion", "params":
{"rssi_threshold_db": 8.0}}]'``).  ``a3_handover`` and the two rebalancers
declare no params: they read the runtime's
:class:`~repro.net.controller.ControllerConfig`, whose values the
``ControllerSpec.handover_*`` and ``cell_*`` knobs set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.net.apps.base import (
    AppEvent,
    ControllerApp,
    LoadContext,
    MeasurementContext,
    ScopeContext,
    register_app,
)
from repro.net.controller import GroupScopeEvent, HandoverEvent
from repro.net.handover import HandoverPolicy, StreakState
from repro.numeric import ordered_sum


@register_app
class A3HandoverApp(ControllerApp):
    """A3 handover: hysteresis + time-to-trigger on mid-interval samples.

    No params: the rule is the runtime's ``ControllerConfig.handover``
    (the ``ControllerSpec.handover_*`` knobs).
    """

    name = "a3_handover"

    def configure(self) -> None:
        self.policy = HandoverPolicy(self.runtime.config.handover)
        #: Per-user A3 streaks carried across intervals, keyed *by user id*
        #: (not by position): the population churns via attach/detach, and
        #: a positional carry would silently apply one user's candidate/TTT
        #: row to another after a mid-run removal.  Keyed carry keeps
        #: time-to-trigger windows continuous across interval boundaries
        #: for exactly the users that persist.
        self._streaks: StreakState = StreakState.keyed([])

    def on_user_attached(self, user_id: int) -> None:
        # Dropping the row resets the streak: the next evaluation's
        # id-keyed remap backfills a fresh (-1, 0.0) entry for this user.
        self._streaks = self._streaks.without(user_id)

    def on_user_detached(self, user_id: int) -> None:
        self._streaks = self._streaks.without(user_id)

    def measurement_times(self, start_s: float, end_s: float) -> Optional[np.ndarray]:
        return self.policy.measurement_times(start_s, end_s)

    def on_measurement(self, ctx: MeasurementContext) -> None:
        runtime = self.runtime
        serving_index = np.array(
            [runtime._cell_index[runtime.serving_cell[uid]] for uid in ctx.user_ids]
        )
        # The carried state is remapped by user id inside evaluate(), so
        # churn between intervals (attach/detach) never shifts one user's
        # streak onto another's measurement column.
        decisions, _, self._streaks = self.policy.evaluate(
            ctx.times_s,
            ctx.snr_db,
            serving_index,
            state=self._streaks,
            user_ids=ctx.user_ids,
            cell_bias_db=runtime.cell_bias_db(),
        )
        for decision in decisions:
            runtime.schedule_handover(
                HandoverEvent(
                    time_s=decision.time_s,
                    user_id=ctx.user_ids[decision.user_index],
                    source_cell=runtime.cell_ids[decision.source_index],
                    target_cell=runtime.cell_ids[decision.target_index],
                    margin_db=decision.margin_db,
                )
            )


@register_app
class CellScopingApp(ControllerApp):
    """Tracks per-group cell footprints and emits split/merge/move events.

    Params: ``rescope_on_handover`` (default ``False``) — when enabled, a
    handover firing mid-interval immediately re-scopes the affected user's
    logical group: the footprint diff is evaluated at the handover time and
    any split/merge/move event fires on the bus right there, instead of
    waiting for the next interval start.  The default keeps the historical
    start-of-interval-only behaviour bit-for-bit.
    """

    name = "cell_scoping"
    default_params = {"rescope_on_handover": False}

    def configure(self) -> None:
        self.rescope_on_handover = bool(self.params["rescope_on_handover"])
        self._group_cells: Dict[int, FrozenSet[int]] = {}
        self._group_members: Dict[int, List[int]] = {}

    def on_interval_start(self, ctx: ScopeContext) -> None:
        if ctx.preview:
            return
        for logical_id, member_ids in ctx.grouping.items():
            cells = frozenset(self.runtime._split_by_cell(member_ids))
            self._observe_footprint(logical_id, cells, ctx.time_s)
            self._group_members[logical_id] = list(member_ids)

    def on_handover(self, event: HandoverEvent) -> None:
        if not self.rescope_on_handover:
            return
        for logical_id, members in self._group_members.items():
            if event.user_id in members:
                cells = frozenset(self.runtime._split_by_cell(members))
                self._observe_footprint(logical_id, cells, event.time_s)
                break  # every user belongs to exactly one logical group

    def _observe_footprint(
        self, logical_id: int, cells: FrozenSet[int], time_s: float
    ) -> None:
        previous = self._group_cells.get(logical_id, frozenset())
        kind = None
        if not previous:
            kind = "split" if len(cells) > 1 else None
        elif len(cells) > len(previous):
            kind = "split"
        elif len(cells) < len(previous):
            kind = "merge"
        elif cells != previous:
            kind = "move"
        if kind is not None:
            self.runtime.emit_scope_event(
                GroupScopeEvent(
                    time_s=time_s,
                    logical_group_id=logical_id,
                    kind=kind,
                    cells=tuple(sorted(cells)),
                    previous_cells=tuple(sorted(previous)),
                )
            )
        self._group_cells[logical_id] = cells


@register_app
class ProRataRebalanceApp(ControllerApp):
    """Shifts budget from underloaded towards overloaded cells, pro-rata.

    An overloaded cell's deficit is the budget that would bring its
    utilization back to the overload threshold; an underloaded cell
    donates at most ``rebalance_fraction`` of its budget and never so
    much that it would itself cross the overload threshold.  Transfers
    are pro-rata on both sides, so the total budget is conserved.

    No params: thresholds and fraction are the runtime's
    ``ControllerConfig`` values (the ``ControllerSpec.cell_*`` knobs).
    """

    name = "prorata_rebalance"

    def on_interval_end(self, ctx: LoadContext) -> None:
        deficits, surpluses = _classify_cells(self.runtime)
        total_deficit = ordered_sum(deficits.values())
        total_surplus = ordered_sum(surpluses.values())
        transfer = min(total_deficit, total_surplus)
        if transfer <= 0:
            return
        states = self.runtime.cell_states
        for cell_id, deficit in deficits.items():
            states[cell_id].rb_budget += transfer * deficit / total_deficit
        for cell_id, surplus in surpluses.items():
            states[cell_id].rb_budget -= transfer * surplus / total_surplus


@register_app
class GreedyRebalanceApp(ControllerApp):
    """Greedy budget rebalancing: largest deficit pulls from largest surplus.

    Classifies cells exactly like :class:`ProRataRebalanceApp` but resolves
    transfers greedily — the most overloaded cell is made whole first, each
    time draining the largest remaining donor — instead of pro-rata.  With
    a single donor/recipient pair both policies coincide; with several they
    allocate measurably differently, which is what makes this app the A/B
    counterpart of ``prorata_rebalance``.  Each realised transfer is
    emitted as a ``budget_transfer`` app event.

    No params, like :class:`ProRataRebalanceApp`.
    """

    name = "greedy_rebalance"

    def on_interval_end(self, ctx: LoadContext) -> None:
        deficits, surpluses = _classify_cells(self.runtime)
        # Largest first; ties break on the lower cell id (deterministic).
        recipients = sorted(deficits.items(), key=lambda item: (-item[1], item[0]))
        donors = sorted(surpluses.items(), key=lambda item: (-item[1], item[0]))
        states = self.runtime.cell_states
        available = dict(donors)
        for cell_id, deficit in recipients:
            need = deficit
            for donor_id, _ in donors:
                if need <= 0:
                    break
                take = min(need, available[donor_id])
                if take <= 0:
                    continue
                available[donor_id] -= take
                need -= take
                states[donor_id].rb_budget -= take
                states[cell_id].rb_budget += take
                self.runtime.emit_app_event(
                    AppEvent(
                        time_s=ctx.time_s,
                        app=self.name,
                        name="budget_transfer",
                        payload={
                            "from_cell": int(donor_id),
                            "to_cell": int(cell_id),
                            "blocks": float(take),
                        },
                    )
                )


@register_app
class WeakMemberDemotionApp(ControllerApp):
    """Demotes weak multicast members to unicast before pricing the group.

    The worst-member rule prices a whole multicast group at its weakest
    member's MCS; one cell-edge user therefore inflates every member's
    resource cost.  At each interval start this app measures every scoped
    group member's mean SNR towards its serving cell (the RSSI proxy) and
    moves members below ``rssi_threshold_db`` out into synthetic singleton
    groups — effectively unicast — so the remaining members are priced at
    their own, better MCS.  If *every* member is weak the strongest one
    keeps the group (demoting all of them would only relabel it).  Each
    demotion is emitted as a ``demote`` app event, and the same transform
    runs on the non-mutating preview path so scheme-mode predictions target
    the demoted grouping the simulator will actually play.

    Params: ``rssi_threshold_db`` (default ``28.0``, roughly the 10th
    percentile of campus-topology mean SNRs — below it a member drags the
    group more than a unicast stream costs) — members whose mean SNR is
    below this demote; ``min_group_size`` (default ``2``) — groups smaller
    than this are never touched.
    """

    name = "weak_member_demotion"
    default_params = {"rssi_threshold_db": 28.0, "min_group_size": 2}

    def configure(self) -> None:
        self.rssi_threshold_db = float(self.params["rssi_threshold_db"])
        self.min_group_size = int(self.params["min_group_size"])

    def on_interval_start(self, ctx: ScopeContext) -> None:
        scoped, cell_of_group, demotions = self.transform_scope(
            ctx.scoped, ctx.cell_of_group, ctx
        )
        if not demotions:
            return
        ctx.scoped.clear()
        ctx.scoped.update(scoped)
        ctx.cell_of_group.clear()
        ctx.cell_of_group.update(cell_of_group)
        if ctx.preview:
            return
        for source_id, target_id, cell_id, user_id, snr in demotions:
            self.runtime.emit_app_event(
                AppEvent(
                    time_s=ctx.time_s,
                    app=self.name,
                    name="demote",
                    payload={
                        "user": int(user_id),
                        "from_group": int(source_id),
                        "to_group": int(target_id),
                        "cell": int(cell_id),
                        "mean_snr_db": float(snr),
                        "threshold_db": self.rssi_threshold_db,
                    },
                )
            )

    def transform_scope(
        self,
        scoped: Dict[int, List[int]],
        cell_of_group: Dict[int, int],
        ctx: ScopeContext,
    ) -> Tuple[Dict[int, List[int]], Dict[int, int], List[tuple]]:
        """Pure demotion transform: ``(scoped, cell_of_group, demotions)``.

        Deterministic in the inputs (no controller state is read or
        written), so the preview and playback paths agree exactly.
        """
        if ctx.mean_snr_db is None or not scoped:
            return scoped, cell_of_group, []
        members = sorted({uid for group in scoped.values() for uid in group})
        snr = ctx.mean_snr_db(members)
        # Synthetic logical ids above every real one: their scoped ids can
        # never collide with a real group's.
        next_logical = (
            max(self.runtime.logical_group_id(sid) for sid in scoped) + 1
        )
        new_scoped: Dict[int, List[int]] = {}
        new_cells: Dict[int, int] = {}
        demotions: List[tuple] = []
        for scoped_id, group in scoped.items():
            cell_id = cell_of_group[scoped_id]
            if len(group) < self.min_group_size:
                new_scoped[scoped_id] = group
                new_cells[scoped_id] = cell_id
                continue
            strong = [uid for uid in group if snr[uid] >= self.rssi_threshold_db]
            if not strong:
                # All-weak group: the strongest member (ties: lowest id)
                # keeps the multicast channel alive.
                keeper = max(group, key=lambda uid: (snr[uid], -uid))
                strong = [uid for uid in group if uid == keeper]
            weak = [uid for uid in group if uid not in strong]
            new_scoped[scoped_id] = strong
            new_cells[scoped_id] = cell_id
            for uid in weak:
                target_id = self.runtime.scoped_group_id(next_logical, cell_id)
                next_logical += 1
                new_scoped[target_id] = [uid]
                new_cells[target_id] = cell_id
                demotions.append((scoped_id, target_id, cell_id, uid, snr[uid]))
        return new_scoped, new_cells, demotions


def _classify_cells(runtime) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Per-cell budget deficits and donatable surpluses (shared A/B base).

    Thresholds and fraction are the runtime's ``ControllerConfig`` values.
    """
    config = runtime.config
    overload_threshold = config.overload_threshold
    underload_threshold = config.underload_threshold
    fraction = config.rebalance_fraction
    deficits: Dict[int, float] = {}
    surpluses: Dict[int, float] = {}
    for cell_id in runtime.cell_ids:
        state = runtime.cell_states[cell_id]
        utilization = state.utilization
        if utilization > overload_threshold:
            deficits[cell_id] = state.rb_demand / overload_threshold - state.rb_budget
        elif utilization < underload_threshold:
            headroom = state.rb_budget - state.rb_demand / overload_threshold
            surplus = min(fraction * state.rb_budget, headroom)
            if surplus > 0:
                surpluses[cell_id] = surplus
    return deficits, surpluses
