"""Ext-4: computing (transcoding) resource demand prediction.

The paper predicts both radio and computing demand per multicast group; its
initial results only plot the radio panel, so this benchmark covers the
computing side with the same scenario: predicted versus actual transcoding
CPU cycles per reservation interval, plus edge-server utilisation.
"""

from __future__ import annotations

import time

import numpy as np

from harness import benchmark_record, build_scheme, run_once, write_benchmark_json


def _experiment():
    started = time.perf_counter()
    scheme = build_scheme()
    result = scheme.run(num_intervals=6)
    return time.perf_counter() - started, scheme, result


def _report(elapsed, scheme, result):
    interval_s = scheme.simulator.config.interval_s
    cpu_capacity = scheme.simulator.config.edge_server.cpu_capacity_cycles_per_s
    path = write_benchmark_json(
        "computing_demand",
        [
            benchmark_record(
                "computing_demand",
                elapsed_s=elapsed,
                users=24,
                intervals=6,
                mean_accuracy=float(result.mean_computing_accuracy()),
                max_accuracy=float(result.computing_accuracy_series().max()),
                predicted_cycles=[float(v) for v in result.predicted_computing_series()],
                actual_cycles=[float(v) for v in result.actual_computing_series()],
                cpu_capacity_cycles_per_s=float(cpu_capacity),
            )
        ],
    )

    print()
    print(f"JSON record: {path}")
    print("Computing (transcoding) resource demand — predicted vs actual CPU gigacycles")
    print(f"{'interval':>8s} {'predicted':>12s} {'actual':>12s} {'accuracy':>9s} {'edge util':>10s}")
    for evaluation in result.intervals:
        utilisation = evaluation.actual_computing_cycles / (cpu_capacity * interval_s)
        print(
            f"{evaluation.interval_index:>8d} "
            f"{evaluation.predicted_computing_cycles / 1e9:>12.2f} "
            f"{evaluation.actual_computing_cycles / 1e9:>12.2f} "
            f"{evaluation.computing_accuracy:>9.2%} "
            f"{utilisation:>10.2%}"
        )
    mean_accuracy = result.mean_computing_accuracy()
    print(f"{'mean':>8s} {'':>12s} {'':>12s} {mean_accuracy:>9.2%}")

    # --- shape assertions ----------------------------------------------------
    predicted = result.predicted_computing_series()
    actual = result.actual_computing_series()
    assert np.all(predicted > 0.0) and np.all(actual > 0.0)
    # Transcoding load is predictable from the abstracted group information.
    assert mean_accuracy >= 0.6
    assert result.computing_accuracy_series().max() >= 0.8
    # The edge server is provisioned sanely: busy but never above capacity.
    utilisations = actual / (cpu_capacity * interval_s)
    assert np.all(utilisations < 1.0)


def bench_computing_resource_demand(benchmark):
    _report(*run_once(benchmark, _experiment))


if __name__ == "__main__":
    _report(*_experiment())
