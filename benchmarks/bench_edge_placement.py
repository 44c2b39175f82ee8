"""Edge-placement A/B benchmark: DRR vs first-fit, with/without reprovision.

Runs the ``edge_flash_crowd`` scenario (3 CPU-starved edge servers, a
flash crowd doubling the population at interval 3) under the four
placement configurations selected purely via ``ScenarioSpec`` overrides —
exactly what ``repro run --override placement.strategy=...`` does:

* ``drr`` — dominant-remaining-resource packing against forecast demand
  (the Elasecutor-style predictive planner);
* ``first_fit`` — the naive baseline that piles jobs onto low server ids;

each with mispredict-triggered reprovisioning on and off.  The harness
JSON record (``results/edge_placement.json``) carries per-config
fragmentation, utilization, reprovision/migration counts and cache stats,
so placement A/B deltas are machine-comparable across PRs.

The headline assertions: DRR packs the fleet with measurably lower
fragmentation than first-fit, the flash crowd triggers at least one
reprovision event when reprovisioning is on (and none when off), and
total transcode work is identical across configurations (placement moves
jobs, never changes them).

Run standalone (``PYTHONPATH=src python benchmarks/bench_edge_placement.py``)
or under pytest-benchmark like the other benches.  ``--quick`` runs the
same sweep but writes ``benchmarks/results/edge_placement_quick.json``
instead, leaving the committed full record untouched (CI uses this,
non-gating).  The sweep cannot be shortened: the two strategies pack the
fleet identically until the flash crowd has played for three intervals.
"""

from __future__ import annotations

import sys
from typing import List

from harness import benchmark_record, run_once, write_benchmark_json

from repro.scenario import run_scenario

SCENARIO = "edge_flash_crowd"
FULL_INTERVALS = 6

#: (strategy, reprovision) configurations, in report order.
CONFIGS = (
    ("drr", True),
    ("drr", False),
    ("first_fit", True),
    ("first_fit", False),
)


def _run_config(strategy: str, reprovision: bool, num_intervals: int) -> dict:
    result = run_scenario(
        SCENARIO,
        {
            "num_intervals": num_intervals,
            "placement.strategy": strategy,
            "placement.reprovision": reprovision,
        },
    )
    data = result.to_dict()
    summary = data["summary"]
    fragmentation = [
        value
        for value in data["per_server"]["fragmentation"]["fleet"]
        if value is not None
    ]
    return {
        "strategy": strategy,
        "reprovision": reprovision,
        "intervals": num_intervals,
        "num_users": int(data["intervals"][-1]["num_users"]),
        "elapsed_s": result.elapsed_s,
        "mean_fragmentation": float(summary["placement"]["mean_fragmentation"]),
        "peak_fragmentation": float(max(fragmentation)),
        "mean_utilization": float(summary["edge"]["mean_utilization"]),
        "peak_utilization": float(summary["edge"]["peak_utilization"]),
        "total_cycles": float(summary["edge"]["total_cycles"]),
        "reprovision_events": int(summary["placement"]["reprovision_events"]),
        "migrations": int(summary["placement"]["migrations"]),
        "cache_hit_ratio": float(summary["edge"]["cache"]["hit_ratio"]),
        "reservation_bookings": int(summary["reservation"]["total_bookings"]),
        "mean_over_booking_blocks": float(
            summary["reservation"]["mean_over_booking_blocks"]
        ),
    }


def edge_placement_experiment(num_intervals: int = FULL_INTERVALS) -> List[dict]:
    return [
        _run_config(strategy, reprovision, num_intervals)
        for strategy, reprovision in CONFIGS
    ]


def report(rows: List[dict], name: str = "edge_placement") -> None:
    records = [
        benchmark_record(
            name,
            elapsed_s=row["elapsed_s"],
            users=row["num_users"],
            intervals=row["intervals"],
            strategy=row["strategy"],
            reprovision=row["reprovision"],
            mean_fragmentation=row["mean_fragmentation"],
            peak_fragmentation=row["peak_fragmentation"],
            mean_utilization=row["mean_utilization"],
            peak_utilization=row["peak_utilization"],
            total_cycles=row["total_cycles"],
            reprovision_events=row["reprovision_events"],
            migrations=row["migrations"],
            cache_hit_ratio=row["cache_hit_ratio"],
            reservation_bookings=row["reservation_bookings"],
            mean_over_booking_blocks=row["mean_over_booking_blocks"],
        )
        for row in rows
    ]
    path = write_benchmark_json(name, records)

    print()
    print("Edge placement A/B (edge_flash_crowd)")
    print(
        f"{'strategy':>10s} {'reprov':>6s} {'frag':>7s} {'peak frag':>9s} "
        f"{'util':>6s} {'events':>6s} {'migr':>4s}"
    )
    for row in rows:
        print(
            f"{row['strategy']:>10s} {str(row['reprovision']):>6s} "
            f"{row['mean_fragmentation']:>7.4f} {row['peak_fragmentation']:>9.4f} "
            f"{row['mean_utilization']:>6.3f} {row['reprovision_events']:>6d} "
            f"{row['migrations']:>4d}"
        )
    print(f"JSON record: {path}")


def _assertions(rows: List[dict]) -> None:
    by_key = {(row["strategy"], row["reprovision"]): row for row in rows}
    for reprovision in (True, False):
        drr = by_key[("drr", reprovision)]
        first_fit = by_key[("first_fit", reprovision)]
        assert drr["mean_fragmentation"] < first_fit["mean_fragmentation"], (
            f"DRR must beat first-fit on fragmentation (reprovision="
            f"{reprovision}): {drr['mean_fragmentation']:.4f} vs "
            f"{first_fit['mean_fragmentation']:.4f}"
        )
    for strategy in ("drr", "first_fit"):
        on = by_key[(strategy, True)]
        off = by_key[(strategy, False)]
        assert on["reprovision_events"] >= 1, (
            f"{strategy}: the flash crowd must trigger a reprovision event"
        )
        assert off["reprovision_events"] == 0, (
            f"{strategy}: reprovision=False must stay silent"
        )
        assert off["migrations"] == 0
    # Placement moves jobs around the fleet; it never changes the work.
    cycles = {round(row["total_cycles"], 3) for row in rows}
    assert len(cycles) == 1, f"total transcode cycles diverged: {cycles}"
    assert all(row["reservation_bookings"] > 0 for row in rows)


def bench_edge_placement(benchmark):
    rows = run_once(benchmark, edge_placement_experiment)
    report(rows)
    _assertions(rows)


if __name__ == "__main__":
    rows = edge_placement_experiment()
    report(rows, name="edge_placement_quick" if "--quick" in sys.argv[1:] else "edge_placement")
    _assertions(rows)
