"""Multi-cell RAN controller benchmark: handover + per-cell load at scale.

Sweeps the cell grid (1, 4, 9 base stations) against the population (50,
100, 200 users) with ``controller_mode="handover"``: users hand over via the
hysteresis + time-to-trigger policy, logical multicast groups are scoped per
serving cell, and resource-block budgets are rebalanced across cells every
interval.

Per configuration the harness JSON record (``results/multicell_handover.json``)
carries wall-clock cost, handover/split/merge counts and the per-cell
resource-block utilization, so multi-cell behaviour is machine-comparable
across PRs.

Run standalone (``PYTHONPATH=src python benchmarks/bench_multicell_handover.py``)
or under pytest-benchmark like the other benches.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from harness import benchmark_record, run_once, write_benchmark_json

from repro import SimulationConfig, StreamingSimulator
from repro.mobility import CampusConfig

CELL_COUNTS = (1, 4, 9)
POPULATIONS = (50, 100, 200)
INTERVALS = 3
USERS_PER_GROUP = 12
SEED = 23


def _chunk_grouping(user_ids: List[int]) -> Dict[int, List[int]]:
    """Deterministic logical grouping: consecutive chunks of ~12 users."""
    groups = max(len(user_ids) // USERS_PER_GROUP, 1)
    return {
        gid: list(user_ids[gid::groups])
        for gid in range(groups)
    }


def _build_simulator(cells: int, users: int) -> StreamingSimulator:
    return StreamingSimulator(
        SimulationConfig(
            num_users=users,
            num_videos=60,
            interval_s=300.0,
            num_base_stations=cells,
            campus=CampusConfig(width_m=1500.0, height_m=1200.0),
            controller_mode="handover",
            seed=SEED,
        )
    )


def _run_config(cells: int, users: int) -> dict:
    sim = _build_simulator(cells, users)
    started = time.perf_counter()
    handovers = splits = merges = moves = outages = 0
    utilization_samples: Dict[int, List[float]] = {bs.bs_id: [] for bs in sim.base_stations}
    for _ in range(INTERVALS):
        result = sim.run_interval(_chunk_grouping(sim.user_ids()))
        handovers += result.num_handovers
        splits += sum(1 for e in result.group_scope_events if e.kind == "split")
        merges += sum(1 for e in result.group_scope_events if e.kind == "merge")
        moves += sum(1 for e in result.group_scope_events if e.kind == "move")
        outages += len(result.outage_groups)
        for cell_id, value in result.rb_utilization_by_cell.items():
            if np.isfinite(value):
                utilization_samples[cell_id].append(value)
    elapsed = time.perf_counter() - started
    mean_utilization = {
        str(cell_id): float(np.mean(values)) if values else 0.0
        for cell_id, values in utilization_samples.items()
    }
    return {
        "cells": cells,
        "users": users,
        "elapsed_s": elapsed,
        "handovers": handovers,
        "group_splits": splits,
        "group_merges": merges,
        "group_moves": moves,
        "outage_groups": outages,
        "rb_utilization_by_cell": mean_utilization,
    }


def multicell_experiment() -> List[dict]:
    rows = []
    for cells in CELL_COUNTS:
        for users in POPULATIONS:
            rows.append(_run_config(cells, users))
    return rows


def report(rows: List[dict]) -> None:
    records = [
        benchmark_record(
            "multicell_handover",
            elapsed_s=row["elapsed_s"],
            users=row["users"],
            intervals=INTERVALS,
            cells=row["cells"],
            handovers=row["handovers"],
            group_splits=row["group_splits"],
            group_merges=row["group_merges"],
            group_moves=row["group_moves"],
            outage_groups=row["outage_groups"],
            rb_utilization_by_cell=row["rb_utilization_by_cell"],
        )
        for row in rows
    ]
    path = write_benchmark_json("multicell_handover", records)

    print()
    print("Multi-cell handover benchmark (3 intervals, controller_mode=handover)")
    print(f"{'cells':>5s} {'users':>6s} {'s/itvl':>7s} {'handovers':>9s} "
          f"{'splits':>6s} {'merges':>6s} {'max cell util':>13s}")
    for row in rows:
        peak = max(row["rb_utilization_by_cell"].values())
        print(
            f"{row['cells']:>5d} {row['users']:>6d} {row['elapsed_s'] / INTERVALS:>7.3f} "
            f"{row['handovers']:>9d} {row['group_splits']:>6d} {row['group_merges']:>6d} "
            f"{peak:>13.3f}"
        )
    print(f"JSON record: {path}")


def _assertions(rows: List[dict]) -> None:
    for row in rows:
        # Per-cell utilization is reported for every cell of the grid.
        assert len(row["rb_utilization_by_cell"]) == row["cells"]
        if row["cells"] == 1:
            # A single cell can never hand anyone over.
            assert row["handovers"] == 0 and row["group_splits"] == 0
    multicell = [row for row in rows if row["cells"] > 1]
    assert sum(row["handovers"] for row in multicell) > 0, (
        "expected mobile users to hand over on a multi-cell grid"
    )
    assert sum(row["group_splits"] for row in multicell) > 0, (
        "expected at least one multicast group to split across cells"
    )


def bench_multicell_handover(benchmark):
    rows = run_once(benchmark, multicell_experiment)
    report(rows)
    _assertions(rows)


if __name__ == "__main__":
    rows = multicell_experiment()
    report(rows)
    _assertions(rows)
