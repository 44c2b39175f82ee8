"""Ext-5 ablation: reservation head-room versus waste and shortfall.

The paper's future work is to reserve resources from the predicted demand.
With the reservation planner implemented (``repro.core.reservation``), the
interesting knob is the head-room margin: too little margin risks
under-provisioning (stalled multicast streams), too much wastes resource
blocks.  This benchmark sweeps the margin and reports mean over- and
under-provisioning per interval, plus the same audit for a last-value
baseline reservation.
"""

from __future__ import annotations

import time

from harness import (
    benchmark_record,
    build_scheme,
    default_scheme_config,
    fig3_simulation_config,
    run_once,
    write_benchmark_json,
)
from repro.core.reservation import ReservationPlanner, ReservationPolicy
from repro.net.resources import ResourceGrid
from repro.predict import LastValuePredictor


EVAL_INTERVALS = 4
MARGINS = (1.0, 1.1, 1.3)


def _dt_policy_run(margin: float, seed: int = 91):
    scheme = build_scheme(
        fig3_simulation_config(seed=seed),
        default_scheme_config(mc_rollouts=8),
    )
    planner = ReservationPlanner(scheme, ReservationPolicy(margin=margin, quantise=False))
    grid = planner.run(num_intervals=EVAL_INTERVALS)
    return {
        "policy": f"DT prediction, margin {margin:.1f}",
        "over": grid.mean_over_provisioning(),
        "under": grid.mean_under_provisioning(),
        "shortfall_intervals": grid.under_provisioned_fraction(),
    }


def _last_value_run(margin: float = 1.1, seed: int = 91):
    """Baseline: reserve last interval's total demand, split evenly across groups."""
    scheme = build_scheme(
        fig3_simulation_config(seed=seed),
        default_scheme_config(mc_rollouts=8),
    )
    scheme.warm_up()
    grid = ResourceGrid()
    history: list = []
    for step in range(EVAL_INTERVALS):
        evaluation = scheme.step()
        groups = evaluation.grouping.groups()
        actual = evaluation.actual
        used = {gid: usage.resource_blocks for gid, usage in actual.usage_by_group.items()}
        if history:
            total_reserved = LastValuePredictor().predict_next(history) * margin
        else:
            total_reserved = 0.5 * scheme.simulator.config.num_resource_blocks
        reserved = {gid: total_reserved / len(groups) for gid in groups}
        grid.record_interval(step, reserved, used)
        history.append(actual.total_resource_blocks)
    return {
        "policy": f"last-value, margin {margin:.1f}",
        "over": grid.mean_over_provisioning(),
        "under": grid.mean_under_provisioning(),
        "shortfall_intervals": grid.under_provisioned_fraction(),
    }


def _experiment():
    started = time.perf_counter()
    rows = [_dt_policy_run(margin) for margin in MARGINS]
    rows.append(_last_value_run())
    return time.perf_counter() - started, rows


def _report(elapsed, rows):
    path = write_benchmark_json(
        "ablation_reservation",
        [
            benchmark_record(
                "ablation_reservation",
                elapsed_s=elapsed,
                users=24,
                intervals=EVAL_INTERVALS,
                **row,
            )
            for row in rows
        ],
    )

    print()
    print(f"JSON record: {path}")
    print("Reservation ablation (mean resource blocks per interval)")
    print(f"{'policy':<30s} {'over-prov':>10s} {'under-prov':>11s} {'shortfall itvls':>16s}")
    for row in rows:
        print(
            f"{row['policy']:<30s} {row['over']:>10.2f} {row['under']:>11.2f} "
            f"{row['shortfall_intervals']:>16.2f}"
        )

    dt_rows = rows[: len(MARGINS)]
    baseline = rows[-1]

    # --- shape assertions ----------------------------------------------------
    # More head-room never increases the shortfall.
    unders = [row["under"] for row in dt_rows]
    assert all(b <= a + 1e-9 for a, b in zip(unders, unders[1:]))
    # More head-room costs more over-provisioning (monotone within tolerance).
    overs = [row["over"] for row in dt_rows]
    assert overs[-1] >= overs[0] - 1e-9
    # The DT-assisted reservation with a 10% margin wastes less than the
    # last-value baseline with the same margin.
    dt_mid = dt_rows[1]
    assert dt_mid["over"] < baseline["over"]
    assert dt_mid["under"] <= baseline["under"] + 0.5


def bench_reservation_margin_ablation(benchmark):
    elapsed, rows = run_once(benchmark, _experiment)
    _report(elapsed, rows)


if __name__ == "__main__":
    _report(*_experiment())
