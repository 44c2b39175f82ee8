"""Declarative scenario API: one spec → compile → run pipeline.

Describe a workload as a :class:`ScenarioSpec` (topology, population,
catalog, mobility, controller, engine, timeline) and execute it with
:class:`ScenarioRunner`, which lowers it with :func:`compile_spec` — or go
through the registry of named scenarios::

    from repro.scenario import run_scenario

    result = run_scenario("campus_fig3", {"num_intervals": 3})
    print(result.summary["mean_radio_accuracy"])

The CLI mirrors this: ``repro scenarios`` lists the registry and
``repro run <name> [--override key=value]`` executes one entry.
"""

from repro.scenario.compiler import CompiledScenario, compile_spec
from repro.scenario.registry import (
    compile_scenario,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenario.runner import RunResult, ScenarioRunner
from repro.scenario.spec import (
    BudgetChange,
    CatalogSpec,
    CellOutage,
    ChurnPhase,
    ControllerAppSpec,
    ControllerSpec,
    EdgeSpec,
    EngineSpec,
    FlashCrowd,
    GroupingSpec,
    MassDeparture,
    MobilitySpec,
    PlacementSpec,
    PopulationSpec,
    ScenarioEvent,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
)

__all__ = [
    "BudgetChange",
    "CatalogSpec",
    "CellOutage",
    "ChurnPhase",
    "CompiledScenario",
    "ControllerAppSpec",
    "ControllerSpec",
    "EdgeSpec",
    "EngineSpec",
    "FlashCrowd",
    "GroupingSpec",
    "MassDeparture",
    "MobilitySpec",
    "PlacementSpec",
    "PopulationSpec",
    "RunResult",
    "ScenarioEvent",
    "ScenarioRunner",
    "ScenarioSpec",
    "SchemeSpec",
    "TopologySpec",
    "compile_scenario",
    "compile_spec",
    "get_scenario",
    "register_scenario",
    "run_scenario",
    "scenario_names",
]
