"""Scenario execution: spec → :class:`RunResult`.

:class:`ScenarioRunner` compiles a spec and drives it end to end.  Scheme-mode
scenarios run the DT-assisted predict-then-observe loop
(:class:`~repro.core.pipeline.DTResourcePredictionScheme`); playback-mode
scenarios play raw ground-truth intervals under the spec's grouping policy.
Either way the runner applies the spec's timeline events and churn phases
at the start of each run step, and returns a typed, JSON-serializable
:class:`RunResult` carrying per-interval records, per-cell series, the
accuracy summary (scheme mode) and wall-clock timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core import DTResourcePredictionScheme
from repro.core.pipeline import EvaluationResult
from repro.core.reservation import ReservationPolicy
from repro.numeric import ordered_sum
from repro.placement.horizon import DemandShock, HorizonReservationPlanner
from repro.scenario.compiler import compile_spec
from repro.scenario.spec import (
    BudgetChange,
    CellOutage,
    FlashCrowd,
    MassDeparture,
    ScenarioEvent,
    ScenarioSpec,
)
from repro.sim import StreamingSimulator
from repro.sim.rng import derive_stream
from repro.sim.simulator import IntervalResult, round_robin_grouping, singleton_grouping

#: Purpose tag of the scenario runner's churn streams.  Appended as the
#: *last* key word — ``(seed, step, tag)`` — like every other purpose tag in
#: :mod:`repro.sim.rng`, so equal-length keys (e.g. the per-user preference
#: streams ``(seed, user_id, PREFERENCE_STREAM)``) can never collide with
#: it: the tag value is distinct from every registry stream tag.
SCENARIO_CHURN_STREAM = 101

#: Departures never shrink the population below this floor, so groupings
#: (which need at least one non-empty group) always remain constructible.
MIN_POPULATION = 2


def timeline_demand_shocks(timeline) -> tuple:
    """Translate a spec timeline into placement-layer :class:`DemandShock`\\ s.

    The horizon reservation planner lives below the scenario layer and
    must not import spec event types; this is the one place the two
    vocabularies meet.  ``"busiest"`` cell targets cannot be resolved from
    the spec alone and translate to ``cell=None`` (demand displacement is
    still anticipated, the budget change is not).
    """
    shocks = []
    for event in timeline:
        if isinstance(event, FlashCrowd):
            shocks.append(
                DemandShock(
                    interval=event.interval,
                    kind="flash_crowd",
                    magnitude=float(event.arrivals),
                )
            )
        elif isinstance(event, MassDeparture):
            shocks.append(
                DemandShock(
                    interval=event.interval,
                    kind="mass_departure",
                    magnitude=float(event.departures),
                )
            )
        elif isinstance(event, (CellOutage, BudgetChange)):
            shocks.append(
                DemandShock(
                    interval=event.interval,
                    kind=(
                        "cell_outage"
                        if isinstance(event, CellOutage)
                        else "budget_change"
                    ),
                    cell=event.cell if isinstance(event.cell, int) else None,
                    budget_blocks=float(event.budget_blocks),
                )
            )
    return tuple(shocks)


@dataclass
class RunResult:
    """Typed outcome of one scenario run.

    ``intervals`` holds one JSON-canonical record per run step: the unified
    :meth:`~repro.core.pipeline.IntervalEvaluation.to_dict` shape in scheme
    mode, a ground-truth subset of the same keys in playback mode, both
    extended with population/controller fields (``num_users``, ``arrivals``,
    ``departures``, ``num_handovers``, ``rb_utilization_by_cell``, ...).
    ``evaluation`` carries the full in-memory
    :class:`~repro.core.pipeline.EvaluationResult` (scheme mode only) and
    ``interval_results`` the raw simulator records — both for Python
    consumers; neither is exported by :meth:`to_dict`.
    """

    scenario: str
    mode: str
    seed: int
    num_intervals: int
    elapsed_s: float
    intervals: List[dict] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)
    per_cell: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    #: Per-server fleet series (``utilization`` / ``cycles`` keyed by server
    #: id, plus the fleet-wide ``fragmentation`` series).  Populated — and
    #: exported — only for multi-server or placement-enabled runs, so
    #: single-server exports stay bit-identical to their goldens.
    per_server: Dict[str, Dict[str, List[Optional[float]]]] = field(default_factory=dict)
    #: Per-stage wall-time totals over the run: the simulator's
    #: ``stage1_s`` / ``playback_s`` / ``collection_s`` sums, plus
    #: ``predict_s`` (prediction pipeline, scheme mode only).  Exported as
    #: its own top-level key so interval records and summaries — and their
    #: golden digests — are untouched.
    timing: Dict[str, float] = field(default_factory=dict)
    spec: Optional[dict] = None
    evaluation: Optional[EvaluationResult] = None
    interval_results: Optional[List[IntervalResult]] = None
    #: The simulator the run used (worker pool already closed; its twins,
    #: catalog and interval history stay readable).  Python-side only, not
    #: exported.
    simulator: Optional["StreamingSimulator"] = None
    #: The horizon reservation planner, when the spec enabled one
    #: (``placement.reservation_lead_intervals > 0``).  Python-side only.
    horizon: Optional[HorizonReservationPlanner] = None

    def to_dict(self) -> dict:
        """JSON-canonical export: ``json.loads(json.dumps(d)) == d``."""
        exported = {
            "scenario": self.scenario,
            "mode": self.mode,
            "seed": int(self.seed),
            "num_intervals": int(self.num_intervals),
            "elapsed_s": float(self.elapsed_s),
            "elapsed_per_interval_s": float(self.elapsed_s) / max(self.num_intervals, 1),
            "intervals": list(self.intervals),
            "summary": dict(self.summary),
            "per_cell": {str(key): dict(series) for key, series in self.per_cell.items()},
            "timing": {str(key): float(value) for key, value in self.timing.items()},
            "spec": self.spec,
        }
        if self.per_server:
            exported["per_server"] = {
                str(key): dict(series) for key, series in self.per_server.items()
            }
        return exported


class ScenarioRunner:
    """Compiles one scenario spec, runs it and collects its :class:`RunResult`."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.compiled = compile_spec(spec)

    # ---------------------------------------------------------------- driving
    def run(self) -> RunResult:
        spec = self.spec
        started = time.perf_counter()
        simulator = StreamingSimulator(self.compiled.sim_config)
        records: List[dict] = []
        evaluation: Optional[EvaluationResult] = None
        raw_results: List[IntervalResult] = []
        horizon = self._build_horizon()
        scheme: Optional[DTResourcePredictionScheme] = None
        with simulator:
            if spec.mode == "scheme":
                scheme = DTResourcePredictionScheme(simulator, self.compiled.scheme_config)
                scheme.warm_up()
                evaluation = EvaluationResult()
            for step in range(spec.num_intervals):
                arrivals, departures, applied = self._apply_step_script(simulator, step)
                if scheme is not None:
                    interval_eval = scheme.step()
                    evaluation.intervals.append(interval_eval)
                    result, record = interval_eval.actual, interval_eval.to_dict()
                else:
                    result = simulator.run_interval(self._build_grouping(simulator))
                    record = {
                        "interval_index": int(result.interval_index),
                        "num_groups": len(result.usage_by_group),
                        "actual_radio_blocks": float(result.total_resource_blocks),
                        "actual_computing_cycles": float(result.total_computing_cycles),
                    }
                raw_results.append(result)
                record.update(
                    self._ground_truth_fields(
                        simulator, result, arrivals, departures, applied
                    )
                )
                if horizon is not None:
                    record["horizon_bookings"] = self._horizon_step(
                        horizon, simulator, result, step
                    )
                records.append(record)
        elapsed = time.perf_counter() - started

        # Per-stage totals over every interval the simulator played
        # (including scheme warm-up, which raw_results excludes).
        timing: Dict[str, float] = {}
        for interval_result in simulator.history:
            for key, value in interval_result.timing.items():
                timing[key] = timing.get(key, 0.0) + float(value)
        if scheme is not None:
            timing["predict_s"] = float(scheme.timing["predict_s"])

        run_result = RunResult(
            scenario=spec.name,
            mode=spec.mode,
            seed=spec.seed,
            num_intervals=spec.num_intervals,
            elapsed_s=elapsed,
            intervals=records,
            summary=self._summary(evaluation, raw_results, simulator, horizon),
            per_cell=self._per_cell_series(evaluation, raw_results),
            per_server=self._per_server_series(simulator, raw_results),
            timing=timing,
            spec=spec.to_dict(),
            evaluation=evaluation,
            interval_results=raw_results,
            simulator=simulator,
            horizon=horizon,
        )
        return run_result

    # --------------------------------------------------- horizon reservation
    def _build_horizon(self) -> Optional[HorizonReservationPlanner]:
        """The spec's horizon reservation planner, if it enabled one."""
        placement = self.spec.placement
        if placement.reservation_lead_intervals <= 0:
            return None
        return HorizonReservationPlanner(
            shocks=timeline_demand_shocks(self.spec.timeline),
            num_cells=self.spec.topology.num_cells,
            budget_blocks=self.spec.topology.rb_budget_blocks,
            num_users=self.spec.population.num_users,
            lead_intervals=placement.reservation_lead_intervals,
            policy=ReservationPolicy(margin=placement.reservation_margin),
        )

    @staticmethod
    def _horizon_step(
        horizon: HorizonReservationPlanner,
        simulator: StreamingSimulator,
        result: IntervalResult,
        step: int,
    ) -> List[dict]:
        """Audit the step's bookings, then book the upcoming intervals."""
        horizon.update_population(len(simulator.users))
        demand = result.rb_demand_by_cell or {0: result.total_resource_blocks}
        horizon.observe(
            step,
            {
                int(cell): float(value)
                for cell, value in demand.items()
                if np.isfinite(value)
            },
        )
        return [booking.to_record() for booking in horizon.plan(step)]

    # ------------------------------------------------------------ step script
    def _apply_step_script(self, simulator: StreamingSimulator, step: int):
        """Apply churn phases and timeline events scheduled for ``step``.

        Returns ``(arrivals, departures, applied_events)`` for the interval
        record.  Everything here is a pure function of (spec, step): the
        departure picks come from a dedicated ``(seed, tag, step)`` stream,
        never from the simulator's generators.
        """
        spec = self.spec
        arrivals = 0
        departures = 0
        applied: List[str] = []
        # One churn stream per (spec seed, step), shared by every phase and
        # event of the step: deterministic, and independent of the
        # simulator's own generators.
        churn_rng = derive_stream((spec.seed, step, SCENARIO_CHURN_STREAM))
        for phase in spec.population.churn_phases:
            if phase.start_interval <= step < phase.end_interval:
                for _ in range(phase.arrivals_per_interval):
                    simulator.add_user(favourite=phase.arrival_favourite)
                    arrivals += 1
                departures += self._remove_users(
                    simulator, phase.departures_per_interval, churn_rng
                )
        for event in spec.timeline:
            if event.interval != step:
                continue
            label, added, removed = self._apply_event(simulator, event, churn_rng)
            applied.append(label)
            arrivals += added
            departures += removed
        return arrivals, departures, applied

    def _apply_event(self, simulator: StreamingSimulator, event: ScenarioEvent, churn_rng):
        """Apply one timeline event; returns ``(label, arrivals, departures)``."""
        if isinstance(event, FlashCrowd):
            for _ in range(event.arrivals):
                simulator.add_user(favourite=event.favourite)
            return f"flash_crowd(+{event.arrivals})", event.arrivals, 0
        if isinstance(event, MassDeparture):
            removed = self._remove_users(simulator, event.departures, churn_rng)
            return f"mass_departure(-{removed})", 0, removed
        if isinstance(event, (CellOutage, BudgetChange)):
            cell_id = self._resolve_cell(simulator, event.cell)
            simulator.controller.set_cell_budget(cell_id, event.budget_blocks)
            kind = "cell_outage" if isinstance(event, CellOutage) else "budget_change"
            return f"{kind}(cell={cell_id}, budget={event.budget_blocks:g})", 0, 0
        raise TypeError(f"unknown scenario event {type(event).__name__}")

    @staticmethod
    def _remove_users(simulator: StreamingSimulator, count: int, rng) -> int:
        """Remove up to ``count`` users, picked by the step's churn stream."""
        removed = 0
        for _ in range(count):
            candidates = simulator.user_ids()
            if len(candidates) <= MIN_POPULATION:
                break
            simulator.remove_user(int(rng.choice(candidates)))
            removed += 1
        return removed

    @staticmethod
    def _resolve_cell(simulator: StreamingSimulator, cell: Union[int, str]) -> int:
        if cell == "busiest":
            states = simulator.controller.cell_states
            return max(states, key=lambda cid: (states[cid].served_users, -cid))
        return int(cell)

    # ------------------------------------------------------------- groupings
    def _build_grouping(self, simulator: StreamingSimulator) -> Dict[int, List[int]]:
        grouping_spec = self.spec.grouping
        user_ids = simulator.user_ids()
        if grouping_spec.policy == "singleton":
            return singleton_grouping(user_ids)
        if grouping_spec.policy == "round_robin":
            return round_robin_grouping(user_ids, grouping_spec.num_groups)
        # "preference", the remaining policy GroupingSpec accepts.
        favourites = np.argmax(simulator.preference_weights(user_ids), axis=1)
        grouping: Dict[int, List[int]] = {}
        for uid, favourite in zip(user_ids, favourites.tolist()):
            grouping.setdefault(favourite % grouping_spec.num_groups, []).append(uid)
        return {gid: members for gid, members in sorted(grouping.items()) if members}

    # -------------------------------------------------------------- reporting
    @staticmethod
    def _ground_truth_fields(
        simulator: StreamingSimulator,
        result: IntervalResult,
        arrivals: int,
        departures: int,
        applied: List[str],
    ) -> dict:
        fields: dict = {
            "num_users": len(simulator.users),
            "arrivals": int(arrivals),
            "departures": int(departures),
            "events_applied": list(applied),
            "outage_groups": [int(gid) for gid in result.outage_groups],
            "total_traffic_bits": float(result.total_traffic_bits),
        }
        if simulator.controller is not None:
            fields.update(
                {
                    "num_handovers": int(result.num_handovers),
                    "group_splits": sum(
                        1 for e in result.group_scope_events if e.kind == "split"
                    ),
                    "group_merges": sum(
                        1 for e in result.group_scope_events if e.kind == "merge"
                    ),
                    # Non-finite utilization (a zero-budget cell with live
                    # demand, e.g. an outage drill) serializes as null so the
                    # cell keeps its key in every per-cell map.
                    "rb_utilization_by_cell": {
                        str(cell): float(value) if np.isfinite(value) else None
                        for cell, value in sorted(result.rb_utilization_by_cell.items())
                    },
                    "rb_budget_by_cell": {
                        str(cell): float(value)
                        for cell, value in sorted(result.rb_budget_by_cell.items())
                    },
                    "overloaded_cells": sorted(
                        int(e.cell_id) for e in result.cell_load_events if e.overloaded
                    ),
                    "controller_events": ScenarioRunner._controller_event_records(
                        result
                    ),
                }
            )
        if simulator.placement is not None:
            fields.update(
                {
                    "server_of_group": {
                        str(gid): int(server)
                        for gid, server in sorted(result.server_of_group.items())
                    },
                    "edge_utilization_by_server": {
                        str(server): float(value)
                        for server, value in sorted(
                            result.edge_utilization_by_server.items()
                        )
                    },
                    "edge_fragmentation": (
                        float(result.edge_fragmentation)
                        if result.edge_fragmentation is not None
                        else None
                    ),
                    "placement_events": [
                        event.to_record() for event in result.placement_events
                    ],
                }
            )
        return fields

    @staticmethod
    def _controller_event_records(result: IntervalResult) -> List[dict]:
        """The interval's controller event log as JSON-canonical tagged records.

        Handover, group-scope, cell-load and app-emitted events are merged
        into one list sorted by ``time_s`` (stable, so same-time events keep
        their emission order).  Non-finite floats serialize as null.
        """

        def finite(value: float) -> Optional[float]:
            value = float(value)
            return value if np.isfinite(value) else None

        def jsonify(value):
            if isinstance(value, dict):
                return {str(key): jsonify(val) for key, val in value.items()}
            if isinstance(value, (list, tuple)):
                return [jsonify(item) for item in value]
            if isinstance(value, (bool, np.bool_)):
                return bool(value)
            if isinstance(value, (int, np.integer)):
                return int(value)
            if isinstance(value, (float, np.floating)):
                return finite(value)
            return value

        records: List[dict] = []
        for ho in result.handover_events:
            records.append(
                {
                    "type": "handover",
                    "time_s": float(ho.time_s),
                    "user": int(ho.user_id),
                    "source_cell": int(ho.source_cell),
                    "target_cell": int(ho.target_cell),
                    "margin_db": finite(ho.margin_db),
                }
            )
        for scope in result.group_scope_events:
            records.append(
                {
                    "type": "group_scope",
                    "time_s": float(scope.time_s),
                    "logical_group_id": int(scope.logical_group_id),
                    "kind": str(scope.kind),
                    "cells": [int(cell) for cell in scope.cells],
                    "previous_cells": [int(cell) for cell in scope.previous_cells],
                }
            )
        for load in result.cell_load_events:
            records.append(
                {
                    "type": "cell_load",
                    "time_s": float(load.time_s),
                    "cell": int(load.cell_id),
                    "demand_blocks": float(load.demand_blocks),
                    "budget_blocks": float(load.budget_blocks),
                    "utilization": finite(load.utilization),
                    "overloaded": bool(load.overloaded),
                    "outage_groups": int(load.outage_groups),
                }
            )
        for app_event in result.app_events:
            records.append(
                {
                    "type": "app",
                    "time_s": float(app_event.time_s),
                    "app": str(app_event.app),
                    "name": str(app_event.name),
                    "payload": jsonify(dict(app_event.payload)),
                }
            )
        records.sort(key=lambda record: record["time_s"])
        return records

    @staticmethod
    def _summary(
        evaluation: Optional[EvaluationResult],
        raw_results: List[IntervalResult],
        simulator: Optional[StreamingSimulator] = None,
        horizon: Optional[HorizonReservationPlanner] = None,
    ) -> Dict[str, object]:
        summary: Dict[str, object] = {}
        if evaluation is not None and evaluation.intervals:
            summary = dict(evaluation.to_dict()["summary"])
        if raw_results:
            actual = np.array([r.total_resource_blocks for r in raw_results])
            summary.setdefault("mean_actual_radio_blocks", float(actual.mean()))
            summary.setdefault(
                "total_computing_cycles",
                float(ordered_sum(r.total_computing_cycles for r in raw_results)),
            )
            summary.setdefault(
                "total_handovers", int(sum(r.num_handovers for r in raw_results))
            )
            summary.setdefault(
                "total_outage_groups",
                int(sum(len(r.outage_groups) for r in raw_results)),
            )
        if simulator is not None and raw_results:
            fleet = simulator.edge_fleet
            fleet_utilization = [
                float(ordered_sum(r.edge_utilization_by_server.values())) / fleet.num_servers
                for r in raw_results
            ]
            summary["edge"] = {
                "num_servers": int(fleet.num_servers),
                "total_cycles": float(
                    ordered_sum(
                        ordered_sum(r.edge_utilization_by_server.values())
                        * simulator.config.edge_server.cpu_capacity_cycles_per_s
                        * simulator.config.interval_s
                        for r in raw_results
                    )
                ),
                "mean_utilization": float(np.mean(fleet_utilization)),
                "peak_utilization": float(np.max(fleet_utilization)),
                "cache_misses": int(sum(r.edge_cache_misses for r in raw_results)),
                "cache": fleet.cache_stats(),
            }
            if simulator.placement is not None:
                fragmentation = [
                    float(r.edge_fragmentation)
                    for r in raw_results
                    if r.edge_fragmentation is not None
                ]
                summary["placement"] = {
                    "strategy": str(simulator.config.placement.strategy),
                    "reprovision": bool(simulator.config.placement.reprovision),
                    "reprovision_events": int(simulator.placement.total_reprovisions()),
                    "migrations": int(simulator.placement.total_migrations()),
                    "mean_fragmentation": (
                        float(np.mean(fragmentation)) if fragmentation else None
                    ),
                }
        if horizon is not None:
            summary["reservation"] = horizon.summary()
        return summary

    @staticmethod
    def _per_server_series(
        simulator: StreamingSimulator, raw_results: List[IntervalResult]
    ) -> Dict[str, Dict[str, List[Optional[float]]]]:
        """Per-server utilization/cycles + fleet fragmentation series.

        Empty (and therefore absent from the export) for single-server runs
        without a placement strategy, keeping their goldens bit-identical.
        """
        if simulator.edge_fleet.num_servers <= 1 and simulator.placement is None:
            return {}
        capacity = (
            simulator.config.edge_server.cpu_capacity_cycles_per_s
            * simulator.config.interval_s
        )
        servers = range(simulator.edge_fleet.num_servers)
        return {
            "utilization": {
                str(server): [
                    float(r.edge_utilization_by_server.get(server, 0.0))
                    for r in raw_results
                ]
                for server in servers
            },
            "cycles": {
                str(server): [
                    float(r.edge_utilization_by_server.get(server, 0.0)) * capacity
                    for r in raw_results
                ]
                for server in servers
            },
            "fragmentation": {
                "fleet": [
                    (
                        float(r.edge_fragmentation)
                        if r.edge_fragmentation is not None
                        else None
                    )
                    for r in raw_results
                ]
            },
        }

    @staticmethod
    def _per_cell_series(
        evaluation: Optional[EvaluationResult], raw_results: List[IntervalResult]
    ) -> Dict[str, Dict[str, List[float]]]:
        """Aligned per-cell series over the run (empty in boundary mode)."""
        series: Dict[str, Dict[str, List[float]]] = {}
        if evaluation is not None and evaluation.intervals:
            predicted = evaluation.predicted_radio_series_by_cell()
            actual = evaluation.actual_radio_series_by_cell()
            if predicted:
                series["predicted_radio_blocks"] = {
                    str(cell): [float(v) for v in values]
                    for cell, values in predicted.items()
                }
                series["actual_radio_blocks"] = {
                    str(cell): [float(v) for v in values]
                    for cell, values in actual.items()
                }
        cells = sorted({cell for r in raw_results for cell in r.rb_budget_by_cell})
        if cells:
            series["rb_budget_blocks"] = {
                str(cell): [float(r.rb_budget_by_cell.get(cell, 0.0)) for r in raw_results]
                for cell in cells
            }
            series["rb_demand_blocks"] = {
                str(cell): [float(r.rb_demand_by_cell.get(cell, 0.0)) for r in raw_results]
                for cell in cells
            }
        return series
