#!/usr/bin/env python3
"""Dynamic user population: churn forces multicast group updates.

The paper's motivation stresses that "user status ... is relatively dynamic,
requiring frequent and accurate multicast group updates".  This example
exercises exactly that: users arrive and depart between reservation
intervals, the scheme rebuilds the multicast groups from the digital twins
every interval, and the prediction accuracy is tracked as the population
changes.

The scripted-churn equivalent lives in the scenario registry: the
``flash_crowd``, ``stadium_egress`` and ``commuter_rush`` scenarios express
arrivals/departures declaratively as ``ChurnPhase``/timeline events
(``python -m repro run commuter_rush``); this example keeps the imperative
form to show the underlying ``add_user`` / ``remove_user`` API.

Run with::

    python examples/dynamic_population.py
"""

from __future__ import annotations

import numpy as np

from repro import DTResourcePredictionScheme, SchemeConfig, SimulationConfig, StreamingSimulator


def main() -> None:
    rng = np.random.default_rng(17)
    simulator = StreamingSimulator(
        SimulationConfig(
            num_users=18,
            num_videos=70,
            interval_s=120.0,
            favourite_category="News",
            favourite_user_fraction=0.6,
            seed=11,
        )
    )
    scheme = DTResourcePredictionScheme(
        simulator,
        SchemeConfig(
            warmup_intervals=2,
            cnn_epochs=6,
            ddqn_episodes=12,
            mc_rollouts=8,
            min_groups=2,
            max_groups=6,
            seed=0,
        ),
    )
    scheme.warm_up()

    print("interval  users  arrivals  departures  groups  predicted  actual  accuracy")
    for _step in range(8):
        # Population churn between intervals: up to two arrivals, one departure.
        arrivals = int(rng.integers(0, 3))
        for _ in range(arrivals):
            favourite = "News" if rng.random() < 0.6 else None
            simulator.add_user(favourite=favourite)
        departures = 0
        if len(simulator.user_ids()) > 10 and rng.random() < 0.5:
            simulator.remove_user(int(rng.choice(simulator.user_ids())))
            departures = 1

        evaluation = scheme.step()
        print(
            f"{evaluation.interval_index:>8d}  {len(simulator.user_ids()):>5d}  "
            f"{arrivals:>8d}  {departures:>10d}  {evaluation.grouping.num_groups:>6d}  "
            f"{evaluation.predicted_radio_blocks:>9.2f}  {evaluation.actual_radio_blocks:>6.2f}  "
            f"{evaluation.radio_accuracy:>8.2%}"
        )

    print()
    print("Newly arrived users start with empty digital twins; their groups'")
    print("swiping profiles fall back to smoothed priors until an interval of")
    print("status has been collected, after which accuracy recovers.")


if __name__ == "__main__":
    main()
