"""Ext-1 ablation: the value of fresh digital-twin data.

The whole point of hosting user digital twins at the edge is that the
prediction pipeline works on *fresh* user status.  This benchmark degrades
the status collection (longer collection periods, dropped samples, delayed
reports) and measures how the radio-demand prediction accuracy responds.
The rows come from :func:`repro.analysis.run_staleness_ablation`; each
record's ``elapsed_s`` is the ablation's wall time split evenly over its
policies.
"""

from __future__ import annotations

import time

from harness import benchmark_record, run_once, write_benchmark_json
from repro.analysis import run_staleness_ablation, staleness_ablation_runners
from repro.twin.collector import CollectionPolicy


EVAL_INTERVALS = 4
SEEDS = (11, 12)
POLICIES = {
    "fresh twins (paper)": CollectionPolicy.perfect(),
    "2x collection period": CollectionPolicy(period_multiplier=2.0),
    "8x period + 30% loss": CollectionPolicy(period_multiplier=8.0, drop_probability=0.3),
    "20x period + 70% loss": CollectionPolicy(period_multiplier=20.0, drop_probability=0.7),
}


def _experiment():
    started = time.perf_counter()
    rows = run_staleness_ablation(
        staleness_ablation_runners(
            seeds=list(SEEDS), num_eval_intervals=EVAL_INTERVALS, policies=POLICIES
        )
    )
    elapsed_s = (time.perf_counter() - started) / len(rows)
    return [
        {
            "label": row.label,
            "accuracy": row.mean_accuracy,
            "runs": len(SEEDS),
            "period_multiplier": row.period_multiplier,
            "drop_probability": row.drop_probability,
            "elapsed_s": elapsed_s,
        }
        for row in rows
    ]


def _report(rows):
    path = write_benchmark_json(
        "ablation_dt_staleness",
        [
            benchmark_record(
                "ablation_dt_staleness", users=24, intervals=EVAL_INTERVALS, **row
            )
            for row in rows
        ],
    )

    print()
    print("Digital-twin staleness ablation (mean radio-demand prediction accuracy)")
    print(f"{'collection policy':<26s} {'accuracy':>9s}")
    for row in rows:
        print(f"{row['label']:<26s} {row['accuracy']:>9.2%}")
    print(f"JSON record: {path}")

    fresh = rows[0]["accuracy"]
    worst = rows[-1]["accuracy"]

    # --- shape assertions ----------------------------------------------------
    # Fresh twins give high accuracy.
    assert fresh >= 0.8
    # Severely degraded collection must not beat fresh collection by a margin
    # (allowing a small tolerance for simulation noise).
    assert fresh >= worst - 0.05
    # Every configuration still produces a usable (finite, positive) accuracy.
    assert all(0.0 <= row["accuracy"] <= 1.0 for row in rows)


def bench_dt_staleness_ablation(benchmark):
    _report(run_once(benchmark, _experiment))


if __name__ == "__main__":
    _report(_experiment())
