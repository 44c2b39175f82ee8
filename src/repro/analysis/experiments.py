"""Reusable experiment runners, built on the declarative scenario API.

Each experiment is a thin client of the one spec → compile → run pipeline
(:mod:`repro.scenario`), in two steps.  A builder (:func:`fig3_runner`,
:func:`grouping_ablation_runners`, :func:`staleness_ablation_runners`,
:func:`predictor_comparison_runner`) applies the experiment's overrides to
the registered ``campus_fig3`` spec and compiles each scenario into a
:class:`~repro.scenario.runner.ScenarioRunner`; building the spec and
compiling it check every value they carry, so a bad setting fails there,
before anything runs.  The ``run_*`` function runs the scenarios and
post-processes each :class:`~repro.scenario.runner.RunResult` into the small
result dataclasses the CLI and user scripts consume.  The compiled configs
are field-for-field identical to the hand-wired ones these runners used to
build, so all recorded numbers are unchanged (pinned by the scenario golden
tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

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
from repro.scenario import ScenarioRunner, get_scenario
from repro.twin.collector import CollectionPolicy


def _fig3_runner(seed: int, num_eval_intervals: int, **overrides) -> ScenarioRunner:
    """The ``campus_fig3`` registry spec, re-targeted for one experiment, compiled.

    ``overrides`` are dotted spec paths (``"population.num_users"``); the
    ablations pass their lighter scheme knobs this way.
    """
    options = {"seed": seed, "num_intervals": num_eval_intervals}
    options.update(overrides)
    return ScenarioRunner(get_scenario("campus_fig3", options))


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


def fig3_runner(
    seed: int = 2023,
    num_users: int = 24,
    num_eval_intervals: int = 6,
    interval_s: float = 150.0,
) -> ScenarioRunner:
    """The paper's Fig. 3 scenario at these settings, compiled."""
    return _fig3_runner(
        seed,
        num_eval_intervals,
        **{"interval_s": interval_s, "population.num_users": num_users},
    )


def run_fig3_experiment(runner: ScenarioRunner) -> Fig3Result:
    """Run a Fig. 3 scenario (:func:`fig3_runner`) and return both panels' data."""
    result = runner.run().evaluation

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


def grouping_ablation_runners(
    seed: int = 77,
    num_eval_intervals: int = 4,
    fixed_ks: Optional[List[int]] = None,
) -> Dict[str, ScenarioRunner]:
    """One compiled scenario per grouping strategy (DDQN-K, silhouette sweep,
    each fixed K), keyed by the strategy's row label, in row order."""
    fixed_ks = fixed_ks if fixed_ks is not None else [2, 4, 6]
    plans = [("ddqn", None), ("silhouette", None)] + [("fixed", k) for k in fixed_ks]
    return {
        k_strategy if fixed_k is None else f"fixed (K={fixed_k})": _fig3_runner(
            seed,
            num_eval_intervals,
            **{
                "scheme.mc_rollouts": 8,
                "scheme.k_strategy": k_strategy,
                "scheme.fixed_k": fixed_k,
            },
        )
        for k_strategy, fixed_k in plans
    }


def run_grouping_ablation(runners: Mapping[str, ScenarioRunner]) -> List[GroupingAblationRow]:
    """One row per strategy of :func:`grouping_ablation_runners`, in its order."""
    rows: List[GroupingAblationRow] = []
    for label, runner in runners.items():
        result = runner.run().evaluation
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


def staleness_ablation_runners(
    seeds: Optional[List[int]] = None,
    num_eval_intervals: int = 4,
    policies: Optional[Dict[str, CollectionPolicy]] = None,
) -> Dict[str, List[ScenarioRunner]]:
    """One compiled scenario per collection policy and seed, keyed by the
    policy's label."""
    seeds = seeds if seeds is not None else [11, 12]
    if policies is None:
        policies = {
            "fresh": CollectionPolicy.perfect(),
            "2x period": CollectionPolicy(period_multiplier=2.0),
            "8x period + 30% loss": CollectionPolicy(period_multiplier=8.0, drop_probability=0.3),
            "20x period + 70% loss": CollectionPolicy(period_multiplier=20.0, drop_probability=0.7),
        }
    return {
        label: [
            _fig3_runner(
                seed,
                num_eval_intervals,
                **{
                    "scheme.mc_rollouts": 8,
                    "engine.collection_period_multiplier": policy.period_multiplier,
                    "engine.collection_drop_probability": policy.drop_probability,
                    "engine.collection_delay_s": policy.delay_s,
                },
            )
            for seed in seeds
        ]
        for label, policy in policies.items()
    }


def run_staleness_ablation(
    runners: Mapping[str, Sequence[ScenarioRunner]],
) -> List[StalenessAblationRow]:
    """Prediction accuracy as twin collection degrades: one row per policy of
    :func:`staleness_ablation_runners`, its accuracy the mean over the seeds."""
    rows: List[StalenessAblationRow] = []
    for label, policy_runners in runners.items():
        accuracies = [
            runner.run().evaluation.mean_radio_accuracy() for runner in policy_runners
        ]
        engine = policy_runners[0].spec.engine
        rows.append(
            StalenessAblationRow(
                label=label,
                period_multiplier=engine.collection_period_multiplier,
                drop_probability=engine.collection_drop_probability,
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


def predictor_comparison_runner(seed: int = 55, num_eval_intervals: int = 8) -> ScenarioRunner:
    """The scenario the predictor comparison runs, compiled.

    The history-only baselines forecast from at least one interval of
    history, so the comparison needs two intervals or more.
    """
    if num_eval_intervals < 2:
        raise ValueError(
            f"the predictor comparison needs at least 2 intervals, got {num_eval_intervals}"
        )
    return _fig3_runner(seed, num_eval_intervals, **{"scheme.mc_rollouts": 10})


def run_predictor_comparison(
    runner: ScenarioRunner,
    baselines: Optional[List[SeriesPredictor]] = None,
) -> PredictorComparisonResult:
    """Compare the DT-assisted scheme with history-only and per-user baselines
    on :func:`predictor_comparison_runner`'s scenario."""
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
    run = runner.run()
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
