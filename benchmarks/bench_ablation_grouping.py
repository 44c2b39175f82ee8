"""Ext-2 ablation: DDQN-selected K versus a silhouette sweep and fixed K.

The paper motivates the DDQN + K-means++ two-step construction with the need
to balance intra-group similarity against per-group multicast cost.  This
benchmark compares grouping strategies on the same population and reports,
per strategy: the average number of groups, the clustering quality
(silhouette), the actual radio usage and the demand-prediction accuracy.
The rows come from :func:`repro.analysis.run_grouping_ablation`.  Results
land as machine-comparable JSON records in
``benchmarks/results/ablation_grouping.json``; each record's ``elapsed_s`` is
the ablation's wall time split evenly over its strategies.
"""

from __future__ import annotations

import time

from harness import benchmark_record, run_once, write_benchmark_json
from repro.analysis import grouping_ablation_runners, run_grouping_ablation


EVAL_INTERVALS = 4


def _experiment():
    started = time.perf_counter()
    rows = run_grouping_ablation(
        grouping_ablation_runners(seed=77, num_eval_intervals=EVAL_INTERVALS, fixed_ks=[2, 4, 6])
    )
    elapsed_s = (time.perf_counter() - started) / len(rows)
    return [
        {
            "strategy": row.strategy,
            "mean_k": row.mean_groups,
            "silhouette": row.mean_silhouette,
            "actual_rbs": row.mean_actual_blocks,
            "accuracy": row.mean_accuracy,
            "elapsed_s": elapsed_s,
        }
        for row in rows
    ]


def _report(rows):
    path = write_benchmark_json(
        "ablation_grouping",
        [
            benchmark_record(
                "ablation_grouping", users=24, intervals=EVAL_INTERVALS, **row
            )
            for row in rows
        ],
    )

    print()
    print("Grouping-strategy ablation (means over evaluated intervals)")
    print(f"{'strategy':<22s} {'mean K':>7s} {'silhouette':>11s} {'actual RBs':>11s} {'accuracy':>9s}")
    for row in rows:
        print(
            f"{row['strategy']:<22s} {row['mean_k']:>7.1f} {row['silhouette']:>11.3f} "
            f"{row['actual_rbs']:>11.2f} {row['accuracy']:>9.2%}"
        )
    print(f"JSON record: {path}")

    by_name = {row["strategy"]: row for row in rows}
    ddqn = by_name["ddqn"]
    silhouette = by_name["silhouette"]
    fixed_large = by_name["fixed (K=6)"]

    # --- shape assertions ----------------------------------------------------
    # The learned K stays within the configured range and is close to what the
    # exhaustive silhouette sweep picks (within one group).
    assert 2.0 <= ddqn["mean_k"] <= 6.0
    assert abs(ddqn["mean_k"] - silhouette["mean_k"]) <= 1.5
    # Many small groups cost clearly more radio resources than the learned
    # grouping (each extra group is an extra multicast channel).
    assert fixed_large["actual_rbs"] > ddqn["actual_rbs"] * 1.3
    # Prediction stays accurate for the paper's strategy.
    assert ddqn["accuracy"] >= 0.8


def bench_grouping_strategy_ablation(benchmark):
    _report(run_once(benchmark, _experiment))


if __name__ == "__main__":
    _report(_experiment())
