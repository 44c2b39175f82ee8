"""Tests for parameter sweeps and evaluation-result export.

A sweep is a set of labelled override maps, each run through the scenario
registry (``repro run <scenario> --override path=value`` on the command
line).
"""

from __future__ import annotations

import json

import pytest

from repro.core import DTResourcePredictionScheme, SchemeConfig
from repro.scenario import ScenarioRunner, get_scenario
from repro.sim import SimulationConfig, StreamingSimulator

#: Shrinks campus_fig3 to a few seconds per point.
SMALL = {
    "population.num_users": 6,
    "catalog.num_videos": 20,
    "num_intervals": 1,
    "scheme.cnn_epochs": 2,
    "scheme.ddqn_episodes": 2,
    "scheme.mc_rollouts": 4,
    "scheme.max_groups": 3,
}


def _sweep(points):
    """Run campus_fig3 once per labelled override map, in order."""
    return {
        label: ScenarioRunner(get_scenario("campus_fig3", {**SMALL, **overrides})).run()
        for label, overrides in points.items()
    }


class TestSweeps:
    def test_sweep_scenarios_produces_one_point_per_label(self):
        results = _sweep(
            {"small": {"interval_s": 60.0}, "short interval": {"interval_s": 45.0}}
        )
        assert list(results) == ["small", "short interval"]
        for result in results.values():
            assert 0.0 <= result.summary["mean_radio_accuracy"] <= 1.0
            assert result.intervals[0]["actual_radio_blocks"] > 0.0

    def test_sweep_population_sizes(self):
        results = _sweep({f"{n} users": {"population.num_users": n} for n in (5, 8)})
        assert list(results) == ["5 users", "8 users"]
        assert [result.intervals[0]["num_users"] for result in results.values()] == [5, 8]

    def test_invalid_sweep_arguments(self):
        with pytest.raises(KeyError):
            get_scenario("campus_fig3", {"population.no_such_field": 1})
        with pytest.raises(ValueError):
            ScenarioRunner(get_scenario("campus_fig3", {"population.num_users": 0}))


class TestEvaluationExport:
    def test_to_dict_is_json_serialisable_and_consistent(self, tmp_path):
        scheme = DTResourcePredictionScheme(
            StreamingSimulator(
                SimulationConfig(
                    num_users=6, num_videos=20, interval_s=60.0, seed=2
                )
            ),
            SchemeConfig(
                warmup_intervals=1, cnn_epochs=2, ddqn_episodes=2, mc_rollouts=4, max_groups=3
            ),
        )
        result = scheme.run(num_intervals=2)
        exported = result.to_dict()
        # Round-trips through JSON without loss of structure.
        path = tmp_path / "result.json"
        path.write_text(json.dumps(exported))
        loaded = json.loads(path.read_text())
        assert len(loaded["intervals"]) == 2
        assert loaded["summary"]["mean_radio_accuracy"] == pytest.approx(
            result.mean_radio_accuracy()
        )
        first = loaded["intervals"][0]
        assert first["predicted_radio_blocks"] > 0.0
        assert 0.0 <= first["radio_accuracy"] <= 1.0
        assert sum(first["group_sizes"].values()) == 6
