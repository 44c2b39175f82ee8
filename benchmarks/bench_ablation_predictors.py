"""Ext-3 ablation: the DT-assisted scheme versus naive demand predictors.

Two comparisons the design calls out:

* **History-only predictors** (last value, moving average, EWMA, linear
  trend) that extrapolate the total radio-demand series without any
  digital-twin information.
* **Per-user (unicast) prediction** that ignores multicast grouping and
  sums individual user demands — the reservation such a scheme would make.

The DT-assisted scheme should at least match the history-only baselines on
accuracy, and the unicast reservation should cost several times more radio
resources than the multicast actual usage.  The numbers come from
:func:`repro.analysis.run_predictor_comparison`.
"""

from __future__ import annotations

import time

from harness import benchmark_record, run_once, write_benchmark_json
from repro.analysis import predictor_comparison_runner, run_predictor_comparison
from repro.predict import (
    EwmaPredictor,
    LastValuePredictor,
    LinearTrendPredictor,
    MovingAveragePredictor,
)


def _experiment():
    started = time.perf_counter()
    comparison = run_predictor_comparison(
        predictor_comparison_runner(seed=55, num_eval_intervals=8),
        baselines=[
            LastValuePredictor(),
            MovingAveragePredictor(window=3),
            EwmaPredictor(alpha=0.5),
            LinearTrendPredictor(window=4),
        ],
    )
    elapsed = time.perf_counter() - started
    rows = [{"name": row.name, "accuracy": row.mean_accuracy} for row in comparison.rows]
    # The runner lists the scheme first.
    rows[0]["name"] = "DT-assisted scheme (paper)"
    return rows, comparison.unicast_blocks, comparison.multicast_actual_blocks, elapsed


def _report(rows, unicast_blocks, multicast_actual, elapsed):
    path = write_benchmark_json(
        "ablation_predictors",
        [
            benchmark_record(
                "ablation_predictors",
                elapsed_s=elapsed,
                users=24,
                intervals=8,
                predictor=row["name"],
                accuracy=row["accuracy"],
                unicast_blocks=unicast_blocks,
                multicast_actual_blocks=multicast_actual,
            )
            for row in rows
        ],
    )

    print()
    print(f"JSON record: {path}")
    print("Predictor ablation (mean radio-demand prediction accuracy over 8 intervals)")
    print(f"{'predictor':<28s} {'accuracy':>9s}")
    for row in rows:
        print(f"{row['name']:<28s} {row['accuracy']:>9.2%}")
    print()
    print("Group-based vs per-user reservation (mean resource blocks per interval)")
    print(f"{'multicast actual usage':<28s} {multicast_actual:>9.2f}")
    print(f"{'per-user (unicast) demand':<28s} {unicast_blocks:>9.2f}")
    print(f"{'multicast saving':<28s} {1.0 - multicast_actual / unicast_blocks:>9.2%}")

    scheme_accuracy = rows[0]["accuracy"]
    baseline_accuracies = [row["accuracy"] for row in rows[1:]]

    # --- shape assertions ----------------------------------------------------
    # The DT-assisted scheme is competitive with every history-only baseline.
    assert scheme_accuracy >= max(baseline_accuracies) - 0.08
    assert scheme_accuracy >= 0.8
    # Unicast (per-user) delivery would need substantially more radio resources
    # than multicast actually used — the core motivation for multicast groups.
    assert unicast_blocks > multicast_actual * 1.5


def bench_predictor_ablation(benchmark):
    _report(*run_once(benchmark, _experiment))


if __name__ == "__main__":
    _report(*_experiment())
