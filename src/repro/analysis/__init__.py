"""Experiment runners and result formatting.

The benchmark harnesses, the examples and the command-line interface all run
variations of the same experiments (the Fig. 3 scenario, the grouping /
staleness / predictor ablations).  This subpackage provides the reusable
runners that return structured results plus plain-text table formatting.
Parameter sweeps go through the scenario registry's overrides
(``repro run <scenario> --override path=value``).
"""

from repro.analysis.experiments import (
    Fig3Result,
    GroupingAblationRow,
    PredictorComparisonResult,
    PredictorComparisonRow,
    StalenessAblationRow,
    run_fig3_experiment,
    run_grouping_ablation,
    run_predictor_comparison,
    run_staleness_ablation,
    select_news_group,
)
from repro.analysis.tables import format_table

__all__ = [
    "Fig3Result",
    "GroupingAblationRow",
    "PredictorComparisonResult",
    "PredictorComparisonRow",
    "StalenessAblationRow",
    "format_table",
    "run_fig3_experiment",
    "run_grouping_ablation",
    "run_predictor_comparison",
    "run_staleness_ablation",
    "select_news_group",
]
