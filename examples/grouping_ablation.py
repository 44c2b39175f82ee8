#!/usr/bin/env python3
"""Ablation: how the multicast grouping strategy affects demand prediction.

Compares the paper's two-step construction (DDQN-selected K + K-means++)
against a silhouette sweep and several fixed-K configurations on the same
simulated population.  A thin client of
:func:`repro.analysis.run_grouping_ablation` over the default
:func:`repro.analysis.grouping_ablation_runners`, the same rows
``benchmarks/bench_ablation_grouping.py`` records.  For each strategy
it reports the number of groups chosen, the clustering quality
(silhouette), the actual radio usage and the prediction accuracy.

Run with::

    python examples/grouping_ablation.py
"""

from __future__ import annotations

from repro.analysis import grouping_ablation_runners, run_grouping_ablation


def main() -> None:
    print(f"{'strategy':<22s} {'mean K':>6s} {'silhouette':>10s} "
          f"{'actual RBs':>10s} {'accuracy':>9s}")
    print("-" * 61)
    for row in run_grouping_ablation(grouping_ablation_runners()):
        print(f"{row.strategy:<22s} {row.mean_groups:>6.1f} {row.mean_silhouette:>10.3f} "
              f"{row.mean_actual_blocks:>10.2f} {row.mean_accuracy:>9.2%}")

    print()
    print("Reading the table: the DDQN choice should land close to the silhouette")
    print("sweep (it learns the same similarity/cost trade-off) while fixed K is")
    print("either wasteful (too many multicast channels) or inaccurate (too few,")
    print("so the worst member drags the whole group's rate down).")


if __name__ == "__main__":
    main()
