#!/usr/bin/env python3
"""Quickstart: predict multicast resource demand with digital twins.

Builds a small campus streaming scenario, warms up the digital twins, trains
the 1D-CNN compressor and the DDQN grouping-number selector, then predicts
and verifies the radio / computing demand of every reservation interval.

This example wires `SimulationConfig` / `StreamingSimulator` / the scheme
by hand to show the moving parts; for day-to-day experiments prefer the
declarative scenario API, which compiles a single spec into the same
objects and drives the identical loop::

    python -m repro scenarios                 # registered workloads
    python -m repro run campus_fig3           # this scenario, spec-driven

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    DTResourcePredictionScheme,
    SchemeConfig,
    SimulationConfig,
    StreamingSimulator,
)


def main() -> None:
    # 1. Ground-truth world: 24 users on a campus, 80 short videos, 5-minute
    #    reservation intervals (scaled to 2 minutes so the example runs fast).
    simulator = StreamingSimulator(
        SimulationConfig(
            num_users=24,
            num_videos=80,
            interval_s=120.0,
            favourite_category="News",
            favourite_user_fraction=0.6,
            seed=7,
        )
    )

    # 2. The paper's scheme: UDT collection -> 1D-CNN compression -> DDQN +
    #    K-means++ grouping -> swiping abstraction -> demand prediction.
    scheme = DTResourcePredictionScheme(
        simulator,
        SchemeConfig(
            warmup_intervals=2,
            cnn_epochs=8,
            ddqn_episodes=15,
            mc_rollouts=10,
            min_groups=2,
            max_groups=6,
            seed=0,
        ),
    )

    result = scheme.run(num_intervals=6)

    print("interval  groups  predicted RBs  actual RBs  accuracy")
    for evaluation in result.intervals:
        print(
            f"{evaluation.interval_index:>8d}  "
            f"{evaluation.grouping.num_groups:>6d}  "
            f"{evaluation.predicted_radio_blocks:>13.2f}  "
            f"{evaluation.actual_radio_blocks:>10.2f}  "
            f"{evaluation.radio_accuracy:>8.2%}"
        )
    print()
    print(f"mean radio-demand prediction accuracy    : {result.mean_radio_accuracy():.2%}")
    print(f"max  radio-demand prediction accuracy    : {result.max_radio_accuracy():.2%}")
    print(f"mean computing-demand prediction accuracy: {result.mean_computing_accuracy():.2%}")


if __name__ == "__main__":
    main()
