"""Reusable experiment runners, built on the declarative scenario API.

Each runner is now a thin wrapper over the one spec → compile → run
pipeline (:mod:`repro.scenario`): it takes the registered ``campus_fig3``
spec, applies the experiment's overrides, executes it through
:class:`~repro.scenario.runner.ScenarioRunner` and post-processes the
:class:`~repro.scenario.runner.RunResult` into the small result dataclasses
the CLI and user scripts consume.  The compiled configs are field-for-field
identical to the hand-wired ones these runners used to build, so all
recorded numbers are unchanged (pinned by the scenario golden tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.accuracy import mean_prediction_accuracy
from repro.core.pipeline import EvaluationResult
from repro.core.swiping import GroupSwipingProfile
from repro.predict import (
    ARPredictor,
    EwmaPredictor,
    LastValuePredictor,
    LinearTrendPredictor,
    MovingAveragePredictor,
    PerUserDemandPredictor,
    SeriesPredictor,
)
from repro.scenario import ScenarioRunner, ScenarioSpec, get_scenario
from repro.twin.collector import CollectionPolicy


def _fig3_spec(seed: int, num_eval_intervals: int, **overrides) -> ScenarioSpec:
    """The ``campus_fig3`` registry spec, re-targeted for one experiment.

    ``overrides`` are dotted spec paths (``"population.num_users"``); the
    ablations pass their lighter scheme knobs this way.
    """
    options = {"seed": seed, "num_intervals": num_eval_intervals}
    options.update(overrides)
    return get_scenario("campus_fig3", options)


# ------------------------------------------------------------------ Fig. 3 scenario
@dataclass
class Fig3Result:
    """Outcome of the Fig. 3 scenario (both panels plus headline accuracy)."""

    evaluation: EvaluationResult
    news_group_profile: GroupSwipingProfile
    mean_radio_accuracy: float
    max_radio_accuracy: float
    mean_computing_accuracy: float

    def cumulative_swiping(self) -> Dict[str, float]:
        return dict(self.news_group_profile.cumulative_swiping)

    def to_dict(self) -> dict:
        """JSON-canonical export sharing ``EvaluationResult.to_dict``'s shape.

        ``evaluation`` is exactly the unified per-interval/summary payload
        (the same shape ``RunResult`` embeds); the Fig. 3(a) panel rides
        along under ``news_group_profile``.
        """
        profile = self.news_group_profile
        return {
            "evaluation": self.evaluation.to_dict(),
            "news_group_profile": {
                "group_id": int(profile.group_id),
                "member_ids": [int(uid) for uid in profile.member_ids],
                "cumulative_swiping": {
                    str(category): float(value)
                    for category, value in profile.cumulative_swiping.items()
                },
                "engagement_share": {
                    str(category): float(value)
                    for category, value in profile.engagement_share.items()
                },
                "swipe_probability": {
                    str(category): float(value)
                    for category, value in profile.swipe_probability.items()
                },
            },
        }

    def demand_rows(self) -> List[List]:
        """Fig. 3(b) table rows, derived from the unified per-interval records."""
        return [
            [
                record["interval_index"],
                record["num_groups"],
                round(record["predicted_radio_blocks"], 2),
                round(record["actual_radio_blocks"], 2),
                round(record["radio_accuracy"], 4),
            ]
            for record in (e.to_dict() for e in self.evaluation.intervals)
        ]


def select_news_group(profiles: Dict[int, GroupSwipingProfile]) -> int:
    """The paper's "multicast group 1": the largest News-dominated group."""
    news_groups = [
        gid
        for gid, profile in profiles.items()
        if profile.most_watched_category() == "News"
    ]
    candidates = news_groups if news_groups else list(profiles)
    return max(candidates, key=lambda gid: len(profiles[gid].member_ids))


def run_fig3_experiment(
    seed: int = 2023,
    num_users: int = 24,
    num_eval_intervals: int = 6,
    interval_s: float = 150.0,
) -> Fig3Result:
    """Run the paper's Fig. 3 scenario and return both panels' data."""
    spec = _fig3_spec(
        seed,
        num_eval_intervals,
        **{"interval_s": interval_s, "population.num_users": num_users},
    )
    result = ScenarioRunner(spec).run().evaluation

    last = result.intervals[-1]
    group_id = select_news_group(last.profiles)
    return Fig3Result(
        evaluation=result,
        news_group_profile=last.profiles[group_id],
        mean_radio_accuracy=result.mean_radio_accuracy(),
        max_radio_accuracy=result.max_radio_accuracy(),
        mean_computing_accuracy=result.mean_computing_accuracy(),
    )


# ------------------------------------------------------------- grouping ablation
@dataclass
class GroupingAblationRow:
    strategy: str
    mean_groups: float
    mean_silhouette: float
    mean_actual_blocks: float
    mean_accuracy: float


def run_grouping_ablation(
    seed: int = 77,
    num_eval_intervals: int = 4,
    fixed_ks: Optional[List[int]] = None,
) -> List[GroupingAblationRow]:
    """Compare DDQN-K, silhouette-sweep and fixed-K grouping on one scenario."""
    fixed_ks = fixed_ks if fixed_ks is not None else [2, 4, 6]
    plans = [("ddqn", None), ("silhouette", None)] + [("fixed", k) for k in fixed_ks]
    rows: List[GroupingAblationRow] = []
    for k_strategy, fixed_k in plans:
        spec = _fig3_spec(
            seed,
            num_eval_intervals,
            **{
                "scheme.mc_rollouts": 8,
                "scheme.k_strategy": k_strategy,
                "scheme.fixed_k": fixed_k,
            },
        )
        result = ScenarioRunner(spec).run().evaluation
        label = k_strategy if fixed_k is None else f"fixed (K={fixed_k})"
        rows.append(
            GroupingAblationRow(
                strategy=label,
                mean_groups=float(np.mean([e.grouping.num_groups for e in result.intervals])),
                mean_silhouette=float(np.mean([e.grouping.silhouette for e in result.intervals])),
                mean_actual_blocks=float(result.actual_radio_series().mean()),
                mean_accuracy=float(result.mean_radio_accuracy()),
            )
        )
    return rows


# ------------------------------------------------------------ staleness ablation
@dataclass
class StalenessAblationRow:
    label: str
    period_multiplier: float
    drop_probability: float
    mean_accuracy: float


def run_staleness_ablation(
    seeds: Optional[List[int]] = None,
    num_eval_intervals: int = 4,
    policies: Optional[Dict[str, CollectionPolicy]] = None,
) -> List[StalenessAblationRow]:
    """Measure prediction accuracy as digital-twin collection degrades."""
    seeds = seeds if seeds is not None else [11, 12]
    if policies is None:
        policies = {
            "fresh": CollectionPolicy.perfect(),
            "2x period": CollectionPolicy(period_multiplier=2.0),
            "8x period + 30% loss": CollectionPolicy(period_multiplier=8.0, drop_probability=0.3),
            "20x period + 70% loss": CollectionPolicy(period_multiplier=20.0, drop_probability=0.7),
        }
    rows: List[StalenessAblationRow] = []
    for label, policy in policies.items():
        accuracies = []
        for seed in seeds:
            spec = _fig3_spec(
                seed,
                num_eval_intervals,
                **{
                    "scheme.mc_rollouts": 8,
                    "engine.collection_period_multiplier": policy.period_multiplier,
                    "engine.collection_drop_probability": policy.drop_probability,
                    "engine.collection_delay_s": policy.delay_s,
                },
            )
            result = ScenarioRunner(spec).run().evaluation
            accuracies.append(result.mean_radio_accuracy())
        rows.append(
            StalenessAblationRow(
                label=label,
                period_multiplier=policy.period_multiplier,
                drop_probability=policy.drop_probability,
                mean_accuracy=float(np.mean(accuracies)),
            )
        )
    return rows


# ---------------------------------------------------------- predictor comparison
@dataclass
class PredictorComparisonRow:
    name: str
    mean_accuracy: float


@dataclass
class PredictorComparisonResult:
    rows: List[PredictorComparisonRow] = field(default_factory=list)
    unicast_blocks: float = 0.0
    multicast_actual_blocks: float = 0.0

    @property
    def multicast_saving(self) -> float:
        if self.unicast_blocks <= 0:
            return 0.0
        return 1.0 - self.multicast_actual_blocks / self.unicast_blocks


def run_predictor_comparison(
    seed: int = 55,
    num_eval_intervals: int = 8,
    baselines: Optional[List[SeriesPredictor]] = None,
) -> PredictorComparisonResult:
    """Compare the DT-assisted scheme with history-only and per-user baselines."""
    baselines = (
        baselines
        if baselines is not None
        else [
            LastValuePredictor(),
            MovingAveragePredictor(window=3),
            EwmaPredictor(alpha=0.5),
            LinearTrendPredictor(window=4),
            ARPredictor(order=2),
        ]
    )
    spec = _fig3_spec(seed, num_eval_intervals, **{"scheme.mc_rollouts": 10})
    run = ScenarioRunner(spec).run()
    result = run.evaluation
    actual = result.actual_radio_series()

    comparison = PredictorComparisonResult()
    comparison.rows.append(
        PredictorComparisonRow("dt-assisted", float(result.mean_radio_accuracy()))
    )
    warmup = min(2, len(actual) - 1)
    for predictor in baselines:
        predictions = predictor.predict_series(actual, warmup=warmup)
        comparison.rows.append(
            PredictorComparisonRow(
                predictor.name,
                float(mean_prediction_accuracy(predictions, actual[warmup:])),
            )
        )

    simulator = run.simulator
    per_user = PerUserDemandPredictor(simulator.catalog, simulator.config)
    window_end = simulator.clock.current_interval * simulator.config.interval_s
    window_start = window_end - simulator.config.interval_s
    comparison.unicast_blocks = per_user.total_resource_blocks(
        per_user.predict_all(simulator.twins, window_start, window_end)
    )
    comparison.multicast_actual_blocks = float(actual.mean())
    return comparison
