"""Digital twin-assisted resource demand prediction for multicast short video streaming.

A from-scratch Python reproduction of X. Huang, W. Wu and X. Shen,
*"Digital Twin-Assisted Resource Demand Prediction for Multicast Short
Video Streaming"* (IEEE ICDCS 2023, arXiv:2306.05946).

The package is organised as the paper's system is:

* substrates -- :mod:`repro.ml` (NumPy neural-network framework),
  :mod:`repro.rl` (DDQN), :mod:`repro.cluster` (K-means++),
  :mod:`repro.video`, :mod:`repro.behavior`, :mod:`repro.mobility`,
  :mod:`repro.net`, :mod:`repro.edge`, :mod:`repro.twin`,
  :mod:`repro.dataset`, :mod:`repro.sim` and :mod:`repro.predict`;
* the paper's contribution -- :mod:`repro.core`, whose
  :class:`~repro.core.pipeline.DTResourcePredictionScheme` runs the full
  predict-then-observe loop against the simulator.

Quickstart — the declarative scenario API (one spec → compile → run
pipeline behind every entry point)::

    from repro.scenario import run_scenario, scenario_names

    print(scenario_names())
    result = run_scenario("campus_fig3", {"num_intervals": 3})
    print(f"mean radio-demand prediction accuracy: "
          f"{result.summary['mean_radio_accuracy']:.2%}")

or hand-wired against the runtime directly::

    from repro import DTResourcePredictionScheme, SchemeConfig, SimulationConfig, StreamingSimulator

    simulator = StreamingSimulator(SimulationConfig(num_users=20))
    scheme = DTResourcePredictionScheme(simulator, SchemeConfig(warmup_intervals=2))
    result = scheme.run(num_intervals=3)
    print(f"mean radio-demand prediction accuracy: {result.mean_radio_accuracy():.2%}")
"""

from repro.core import (
    DTResourcePredictionScheme,
    EvaluationResult,
    GroupDemandPredictor,
    IntervalEvaluation,
    MulticastGroupConstructor,
    SchemeConfig,
    UDTFeatureCompressor,
)
from repro.scenario import (
    RunResult,
    ScenarioRunner,
    ScenarioSpec,
    compile_spec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.sim import SimulationConfig, StreamingSimulator
from repro.twin import DigitalTwinManager, UserDigitalTwin

__version__ = "1.1.0"

__all__ = [
    "DTResourcePredictionScheme",
    "DigitalTwinManager",
    "EvaluationResult",
    "GroupDemandPredictor",
    "IntervalEvaluation",
    "MulticastGroupConstructor",
    "RunResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SchemeConfig",
    "SimulationConfig",
    "StreamingSimulator",
    "UDTFeatureCompressor",
    "UserDigitalTwin",
    "compile_spec",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "__version__",
]
