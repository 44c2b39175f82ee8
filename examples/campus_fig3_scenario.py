#!/usr/bin/env python3
"""The paper's Fig. 3 scenario: a News-heavy multicast group on a campus.

A thin client of the declarative scenario API: the registered
``campus_fig3`` spec is re-targeted (30 users, 120 videos, 8 evaluated
5-minute intervals) through spec overrides, compiled, and driven by the
scenario runner — no hand-wired ``SimulationConfig`` / scheme plumbing.

Reproduces both panels of Fig. 3 for "multicast group 1":

* panel (a) -- the cumulative swiping probability per video category, where
  News (most watched) comes first and Game (least watched) last;
* panel (b) -- predicted versus actual radio resource demand per 5-minute
  reservation interval, with the per-interval prediction accuracy.

Run with::

    python examples/campus_fig3_scenario.py

or equivalently through the CLI (the full override set this script applies)::

    python -m repro run campus_fig3 --intervals 8 --override interval_s=300 \
        --override population.num_users=30 --override catalog.num_videos=120 \
        --override scheme.cnn_epochs=8 --override scheme.ddqn_episodes=20 \
        --override scheme.mc_rollouts=12
"""

from __future__ import annotations

from repro.analysis.experiments import select_news_group
from repro.scenario import run_scenario


def ascii_bar(value: float, width: int = 40) -> str:
    filled = int(round(value * width))
    return "#" * filled + "." * (width - filled)


def main() -> None:
    result = run_scenario(
        "campus_fig3",
        {
            "num_intervals": 8,
            "interval_s": 300.0,  # the paper's 5-minute reservation interval
            "population.num_users": 30,
            "catalog.num_videos": 120,
            "scheme.cnn_epochs": 8,
            "scheme.ddqn_episodes": 20,
            "scheme.mc_rollouts": 12,
        },
    )
    evaluation = result.evaluation

    # ----------------------------------------------------- Fig. 3(a) analogue
    # Pick the largest News-dominated group of the last interval (falling
    # back to the largest group overall): that is "multicast group 1" of the
    # paper, whose users watch News most.
    last = evaluation.intervals[-1]
    group_id = select_news_group(last.profiles)
    profile = last.profiles[group_id]

    print("=" * 72)
    print(f"Fig. 3(a): cumulative swiping probability of multicast group {group_id}")
    print(f"  ({len(profile.member_ids)} members; most watched: {profile.most_watched_category()},"
          f" least watched: {profile.least_watched_category()})")
    print("=" * 72)
    for category, value in profile.cumulative_swiping.items():
        print(f"  {category:<10s} {value:6.3f}  {ascii_bar(value)}")

    # ----------------------------------------------------- Fig. 3(b) analogue
    print()
    print("=" * 72)
    print("Fig. 3(b): predicted vs actual radio resource demand (resource blocks)")
    print("=" * 72)
    print("interval  predicted   actual    accuracy")
    for record in result.intervals:
        print(
            f"{record['interval_index']:>8d}  {record['predicted_radio_blocks']:>9.2f}  "
            f"{record['actual_radio_blocks']:>8.2f}  {record['radio_accuracy']:>8.2%}"
        )
    accuracies = evaluation.radio_accuracy_series()
    print("-" * 72)
    print(f"mean accuracy: {accuracies.mean():.2%}   max accuracy: {accuracies.max():.2%}")
    print(f"(paper reports prediction accuracy up to 95.04 % on radio resource demand)")

    # ------------------------------------------------------------ extra info
    print()
    print("group engagement share by category (last interval, group "
          f"{group_id}):")
    ordered = sorted(profile.engagement_share.items(), key=lambda item: -item[1])
    for category, share in ordered:
        print(f"  {category:<10s} {share:6.3f}  {ascii_bar(share)}")


if __name__ == "__main__":
    main()
