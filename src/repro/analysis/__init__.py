"""Experiment runners and result formatting.

The benchmark harnesses, the examples and the command-line interface all run
variations of the same experiments (the Fig. 3 scenario, the grouping /
staleness / predictor ablations).  This subpackage provides each
experiment's spec builder, the reusable runners that return structured
results, and plain-text table formatting.
Parameter sweeps go through the scenario registry's overrides
(``repro run <scenario> --override path=value``).
"""

from repro.analysis.experiments import (
    Fig3Result,
    GroupingAblationRow,
    PredictorComparisonResult,
    PredictorComparisonRow,
    StalenessAblationRow,
    fig3_runner,
    grouping_ablation_runners,
    predictor_comparison_runner,
    run_fig3_experiment,
    run_grouping_ablation,
    run_predictor_comparison,
    run_staleness_ablation,
    select_news_group,
    staleness_ablation_runners,
)
from repro.analysis.tables import format_table

__all__ = [
    "Fig3Result",
    "GroupingAblationRow",
    "PredictorComparisonResult",
    "PredictorComparisonRow",
    "StalenessAblationRow",
    "fig3_runner",
    "format_table",
    "grouping_ablation_runners",
    "predictor_comparison_runner",
    "run_fig3_experiment",
    "run_grouping_ablation",
    "run_predictor_comparison",
    "run_staleness_ablation",
    "select_news_group",
    "staleness_ablation_runners",
]
