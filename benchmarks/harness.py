"""Shared helpers for the benchmark harnesses.

Every benchmark regenerates one of the paper's panels / headline numbers (or
one of the ablations called out in DESIGN.md).  The experiments themselves
are deterministic simulations; ``pytest-benchmark`` is used to run and time
them once (``rounds=1``) so ``pytest benchmarks/ --benchmark-only`` both
reproduces the numbers and reports how long each experiment takes.

Run with ``-s`` to see the reproduced tables, e.g.::

    pytest benchmarks/bench_fig3b_radio_demand.py --benchmark-only -s
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from pathlib import Path

from repro import DTResourcePredictionScheme, SchemeConfig, SimulationConfig, StreamingSimulator
from repro.scenario import compile_scenario

#: Where benchmark JSON records land (one file per benchmark name).
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Schema version of the emitted records; bump when fields change meaning.
BENCHMARK_RECORD_SCHEMA = 1


def benchmark_record(name: str, *, elapsed_s: float, users: int, intervals: int, **extra) -> dict:
    """A machine-comparable benchmark record.

    Always carries the wall-clock timing metadata (``elapsed_s`` total plus
    the derived per-interval cost, ``users`` and ``intervals``) together with
    enough environment context (python/platform, unix timestamp, schema
    version) that records written by different PRs can be compared.
    """
    record = {
        "schema": BENCHMARK_RECORD_SCHEMA,
        "name": name,
        "unix_time": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "users": int(users),
        "intervals": int(intervals),
        "elapsed_s": float(elapsed_s),
        "elapsed_per_interval_s": float(elapsed_s) / max(int(intervals), 1),
    }
    record.update(extra)
    return record


def write_benchmark_json(name: str, records) -> Path:
    """Write benchmark records to ``benchmarks/results/<name>.json``.

    Returns the path written.  Records are wrapped in a top-level object so
    future fields (e.g. git revision) can be added without breaking readers.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    payload = {"schema": BENCHMARK_RECORD_SCHEMA, "name": name, "records": list(records)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def fig3_simulation_config(seed: int = 2023, **overrides) -> SimulationConfig:
    """The Fig. 3 scenario: a News-heavy population on a campus.

    Compiled from the canonical ``campus_fig3`` registry spec (one source of
    truth), then re-validated with any ``SimulationConfig`` field overrides
    a benchmark wants.  The run length is the caller's: pass it to
    ``scheme.run`` or step the scheme.
    """
    config = compile_scenario("campus_fig3", {"seed": seed}).sim_config
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def default_scheme_config(**overrides) -> SchemeConfig:
    """``campus_fig3``'s compiled scheme config, with field overrides."""
    config = compile_scenario("campus_fig3").scheme_config
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def build_scheme(
    sim_config: SimulationConfig | None = None,
    scheme_config: SchemeConfig | None = None,
) -> DTResourcePredictionScheme:
    sim_config = sim_config if sim_config is not None else fig3_simulation_config()
    scheme_config = scheme_config if scheme_config is not None else default_scheme_config()
    return DTResourcePredictionScheme(StreamingSimulator(sim_config), scheme_config)


def run_once(benchmark, experiment):
    """Run ``experiment`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)
