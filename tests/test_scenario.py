"""Tests for the declarative scenario API (spec → compile → run).

Covers:

* spec mechanics — overrides by dotted path, validation, JSON export;
* compile determinism — ``compile_spec`` is pure (same spec → equal
  ``SimulationConfig`` / ``SchemeConfig``);
* golden parity — the registry ports of ``campus_fig3`` and
  ``multicell_campus`` reproduce the historical hand-wired code paths
  bit-for-bit (per-interval totals and predictions);
* the runner — timeline events, churn phases, the JSON-canonical
  ``RunResult`` round-trip;
* the registry + CLI — every registered scenario lists, compiles and
  smoke-runs for one interval (the same matrix CI executes), and the
  playback scenarios' whole exports, and the scheme scenarios' at two
  intervals, are digest-pinned.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import DTResourcePredictionScheme, SchemeConfig, SimulationConfig, StreamingSimulator
from repro.cli import main as cli_main, parse_overrides
from repro.mobility import CampusConfig
from repro.scenario import (
    CellOutage,
    ChurnPhase,
    FlashCrowd,
    MassDeparture,
    ScenarioRunner,
    ScenarioSpec,
    compile_spec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenario.runner import MIN_POPULATION
from twin_digest import twin_contents_sha256

#: ``bench_e2e.digest`` of each playback scenario not pinned elsewhere, run
#: at its registry defaults (own seed and interval count, one worker).
#: ``multicell_campus`` and ``cell_outage_storm`` are pinned in
#: ``test_controller_apps``.
PLAYBACK_DIGESTS = {
    "commuter_rush": "7826d5f7446b27d00312c2af7a27680d4f351ef371705bf0532cb7c830c5574c",
    "edge_flash_crowd": "f318ac9b177397dfe2771f2ca3f1a404470d1d851aaf1d47fc28ff58cf4360d5",
    "stadium_egress": "7c15a742336de08dbd23f17ebd5bffbb4ba2450d361f24dcbf489719b43c9035",
    "weak_signal_demotion": "4aadccb48bf3321c868e432a1f6e3c1180036dd9841ed0bf18650746c12ba2f3",
}

#: ``twin_contents_sha256`` of the same runs: the export holds no twin data,
#: so only this hash sees a change to what the twins collect.
PLAYBACK_TWIN_CONTENTS = {
    "commuter_rush": "306d6e73ff01d8b4cfc0fa22b0bd52f2777a4694403878d0ff06ec7b0c4fc472",
    "edge_flash_crowd": "53107660dafb58dcd81b21a63f9fef6a15df4ff1ccae46570b1cd8b29be9d20c",
    "stadium_egress": "0f06ed488ca4f2a94d6318893800340ee4bc8385b54a37da7290d4a63fd61549",
    "weak_signal_demotion": "f55c2a25b20b924dedd2beeec818312a935ef1364efaa6c692aedf53acbc4cd1",
}

#: ``bench_e2e.digest`` of the scheme scenarios at ``num_intervals=2``, with
#: their registry settings otherwise (own seed, one worker).  The scheme runs
#: ``Dense`` and ``Conv1D`` matmuls, whose last bits may depend on the BLAS
#: kernel; at this length both exports read the same under every OpenBLAS
#: kernel family tried, and the pin test re-runs them under another one.
SCHEME_DIGESTS = {
    "campus_fig3": "2451452f4949152740f0a2233222a92518b5b1ce01c86472407662b9dfbaeaf1",
    "flash_crowd": "0331512fc955f069cb8d66b9237710e9c4a5030cbe2cb0a9518d3cf1a7112336",
}

#: Prints ``{scenario: digest}`` for the scenarios named on its command line.
_SCHEME_DIGEST_SCRIPT = """
import json, sys
from bench_e2e import digest
from repro.scenario import run_scenario
names = sys.argv[1:]
print(json.dumps({n: digest(run_scenario(n, {"num_intervals": 2})) for n in names}))
"""


def _tiny_fig3_overrides(num_users=10, num_intervals=2):
    """Shrink campus_fig3 so a full scheme run stays fast in the suite."""
    return {
        "population.num_users": num_users,
        "num_intervals": num_intervals,
        "interval_s": 80.0,
        "seed": 4,
        "scheme.cnn_epochs": 2,
        "scheme.ddqn_episodes": 2,
        "scheme.mc_rollouts": 4,
    }


class TestSpec:
    def test_with_overrides_replaces_leaves_without_mutating(self):
        spec = get_scenario("campus_fig3")
        other = spec.with_overrides(
            {"population.num_users": 99, "seed": 1, "engine.playback_workers": 2}
        )
        assert other.population.num_users == 99
        assert other.seed == 1
        assert other.engine.playback_workers == 2
        # The source spec is untouched (frozen tree).
        assert spec.population.num_users == 24 and spec.seed == 2023

    def test_with_overrides_coerces_numeric_leaf_types(self):
        spec = get_scenario("campus_fig3").with_overrides(
            {"interval_s": 120, "population.num_users": 16.0}
        )
        assert isinstance(spec.interval_s, float) and spec.interval_s == 120.0
        assert isinstance(spec.population.num_users, int)
        with pytest.raises(ValueError, match="integer"):
            # A non-integral float never silently truncates.
            get_scenario("campus_fig3").with_overrides({"population.num_users": 30.9})

    def test_fixed_k_goes_with_the_fixed_strategy(self):
        spec = get_scenario("campus_fig3")
        for overrides in (
            {"scheme.k_strategy": "fixed", "scheme.fixed_k": 3},
            {"scheme.fixed_k": 3, "scheme.k_strategy": "fixed"},
        ):
            scheme = compile_spec(spec.with_overrides(overrides)).scheme_config
            assert (scheme.k_strategy, scheme.fixed_k) == ("fixed", 3)
        for bad in (
            {"scheme.k_strategy": "fixed"},
            {"scheme.fixed_k": 3},
            {"scheme.k_strategy": "fixed", "scheme.fixed_k": 0},
        ):
            with pytest.raises(ValueError, match="fixed_k"):
                compile_spec(spec.with_overrides(bad))

    def test_unknown_override_paths_raise(self):
        spec = get_scenario("campus_fig3")
        with pytest.raises(KeyError):
            spec.with_overrides({"population.num_userz": 5})
        with pytest.raises(KeyError):
            spec.with_overrides({"nope": 5})
        with pytest.raises(KeyError):
            # Structured fields cannot be replaced wholesale by path.
            spec.with_overrides({"population": 5})

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", mode="nope")
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", num_intervals=0)
        with pytest.raises(ValueError):
            # Cell events need the handover controller.
            ScenarioSpec(name="bad", timeline=(CellOutage(interval=0),))
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="bad",
                population=dataclasses.replace(
                    get_scenario("campus_fig3").population,
                    churn_phases=(ChurnPhase(start_interval=3, end_interval=3),),
                ),
            )

    def test_to_dict_is_json_canonical_and_tags_events(self):
        spec = get_scenario("cell_outage_storm")
        payload = spec.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        kinds = [event["type"] for event in payload["timeline"]]
        assert kinds == ["cell_outage", "cell_outage", "budget_change"]


class TestCompile:
    def test_compile_is_pure(self):
        for name in scenario_names():
            a = compile_spec(get_scenario(name))
            b = compile_spec(get_scenario(name))
            assert a.sim_config == b.sim_config, name
            assert a.scheme_config == b.scheme_config, name
            assert a.spec == b.spec, name

    def test_campus_fig3_compiles_to_the_historical_config(self):
        """Field-for-field equality with the hand-wired Fig. 3 runner's config."""
        compiled = compile_spec(get_scenario("campus_fig3"))
        assert compiled.sim_config == SimulationConfig(
            num_users=24,
            num_videos=100,
            interval_s=150.0,
            favourite_category="News",
            favourite_user_fraction=0.8,
            favourite_boost=8.0,
            recommendation_popularity_weight=0.3,
            popularity_update_rate=0.05,
            seed=2023,
        )
        assert compiled.scheme_config == SchemeConfig(
            warmup_intervals=2,
            cnn_epochs=6,
            ddqn_episodes=12,
            mc_rollouts=10,
            min_groups=2,
            max_groups=6,
            seed=0,
        )

    def test_multicell_campus_compiles_to_the_historical_config(self):
        compiled = compile_spec(get_scenario("multicell_campus"))
        assert compiled.sim_config == SimulationConfig(
            num_users=48,
            num_videos=80,
            interval_s=300.0,
            num_base_stations=4,
            campus=CampusConfig(width_m=1400.0, height_m=1100.0),
            favourite_category="News",
            favourite_user_fraction=0.5,
            controller_mode="handover",
            seed=17,
        )
        assert compiled.scheme_config is None


class TestGoldenParity:
    def test_campus_fig3_matches_hand_wired_scheme_run(self):
        """The scheme-mode runner replays the historical predict-then-observe loop."""
        overrides = _tiny_fig3_overrides()
        run = run_scenario("campus_fig3", overrides)

        compiled = compile_spec(get_scenario("campus_fig3", overrides))
        with StreamingSimulator(compiled.sim_config) as simulator:
            reference = DTResourcePredictionScheme(
                simulator, compiled.scheme_config
            ).run(num_intervals=2)

        assert np.array_equal(
            run.evaluation.actual_radio_series(), reference.actual_radio_series()
        )
        assert np.array_equal(
            run.evaluation.predicted_radio_series(), reference.predicted_radio_series()
        )
        assert np.array_equal(
            run.evaluation.actual_computing_series(),
            reference.actual_computing_series(),
        )

    def test_multicell_campus_matches_hand_wired_playback_loop(self):
        """The playback runner replays the historical example loop bit-for-bit."""
        overrides = {"population.num_users": 16, "num_intervals": 3, "seed": 3}
        spec = get_scenario("multicell_campus", overrides)
        spec = dataclasses.replace(
            spec, timeline=(CellOutage(interval=1, cell="busiest", budget_blocks=0.0),)
        )
        run = ScenarioRunner(spec).run()

        # The pre-redesign hand-wired path, verbatim.
        sim = StreamingSimulator(compile_spec(spec).sim_config)

        def preference_grouping(sim, num_groups=4):
            grouping = {}
            for uid in sim.user_ids():
                weights = sim.preference_weights([uid])[0]
                grouping.setdefault(int(np.argmax(weights)) % num_groups, []).append(uid)
            return {gid: members for gid, members in sorted(grouping.items()) if members}

        def busiest_cell(sim):
            states = sim.controller.cell_states
            return max(states, key=lambda cid: (states[cid].served_users, -cid))

        reference = []
        for interval in range(3):
            if interval == 1:
                sim.controller.set_cell_budget(busiest_cell(sim), 0.0)
            reference.append(sim.run_interval(preference_grouping(sim)))

        assert [r["actual_radio_blocks"] for r in run.intervals] == [
            r.total_resource_blocks for r in reference
        ]
        assert [r["num_handovers"] for r in run.intervals] == [
            r.num_handovers for r in reference
        ]
        assert [r.rb_budget_by_cell for r in run.interval_results] == [
            r.rb_budget_by_cell for r in reference
        ]

    def test_run_is_reproducible_from_the_spec_alone(self):
        a = run_scenario("stadium_egress", {"num_intervals": 2})
        b = run_scenario("stadium_egress", {"num_intervals": 2})
        assert a.intervals == b.intervals


class TestRunner:
    def test_churn_phase_grows_population_and_records_it(self):
        run = run_scenario(
            "commuter_rush",
            {"num_intervals": 2, "population.num_users": 8},
        )
        # Phase: +6 arrivals per interval for the first three steps.
        assert [r["num_users"] for r in run.intervals] == [14, 20]
        assert all(r["arrivals"] == 6 for r in run.intervals)

    def test_flash_crowd_event_adds_users_at_its_interval(self):
        spec = get_scenario("commuter_rush", {"num_intervals": 2, "population.num_users": 8})
        spec = dataclasses.replace(
            spec,
            timeline=(FlashCrowd(interval=1, arrivals=5, favourite="Sports"),),
            population=dataclasses.replace(spec.population, churn_phases=()),
        )
        run = ScenarioRunner(spec).run()
        assert [r["num_users"] for r in run.intervals] == [8, 13]
        assert run.intervals[1]["arrivals"] == 5
        assert run.intervals[1]["events_applied"] == ["flash_crowd(+5)"]

    def test_mass_departure_respects_population_floor(self):
        spec = get_scenario("stadium_egress", {"population.num_users": 6})
        spec = dataclasses.replace(
            spec,
            num_intervals=1,
            timeline=(MassDeparture(interval=0, departures=50),),
            population=dataclasses.replace(spec.population, churn_phases=()),
        )
        run = ScenarioRunner(spec).run()
        assert run.intervals[0]["num_users"] == MIN_POPULATION
        assert run.intervals[0]["departures"] == 6 - MIN_POPULATION

    def test_cell_outage_applies_before_the_interval(self):
        run = run_scenario("multicell_campus", {"num_intervals": 5, "population.num_users": 16})
        drilled = run.intervals[4]
        assert any(label.startswith("cell_outage") for label in drilled["events_applied"])
        assert min(drilled["rb_budget_by_cell"].values()) == 0.0

    def test_run_result_round_trips_through_json(self):
        for name, overrides in [
            ("multicell_campus", {"num_intervals": 2, "population.num_users": 12}),
            ("campus_fig3", _tiny_fig3_overrides()),
        ]:
            payload = run_scenario(name, overrides).to_dict()
            assert json.loads(json.dumps(payload)) == payload
            assert payload["intervals"] and payload["summary"]
            assert payload["spec"]["name"] == name

    def test_scheme_records_use_the_unified_interval_shape(self):
        run = run_scenario("campus_fig3", _tiny_fig3_overrides())
        unified = [e.to_dict() for e in run.evaluation.intervals]
        for record, expected in zip(run.intervals, unified):
            for key, value in expected.items():
                assert record[key] == value
            assert "num_users" in record and "events_applied" in record

    def test_load_bias_is_exposed_through_the_spec(self):
        spec = get_scenario("cell_outage_storm")
        assert spec.controller.handover_load_bias_db == 6.0
        compiled = compile_spec(spec)
        assert compiled.sim_config.controller.handover.load_bias_db == 6.0
        sim = StreamingSimulator(compiled.sim_config)
        assert sim.controller.config.handover.load_bias_db == 6.0


class TestRegistry:
    def test_at_least_six_scenarios_are_registered(self):
        names = scenario_names()
        assert len(names) >= 6
        for expected in (
            "campus_fig3",
            "multicell_campus",
            "flash_crowd",
            "stadium_egress",
            "commuter_rush",
            "cell_outage_storm",
        ):
            assert expected in names

    def test_factories_return_fresh_specs(self):
        assert get_scenario("campus_fig3") is not get_scenario("campus_fig3")
        assert get_scenario("campus_fig3") == get_scenario("campus_fig3")

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="campus_fig3"):
            get_scenario("nope")

    def test_every_scenario_smoke_runs_one_interval(self):
        """The same matrix CI executes: every entry runs and round-trips."""
        for name in scenario_names():
            run = run_scenario(name, {"num_intervals": 1})
            payload = run.to_dict()
            assert json.loads(json.dumps(payload)) == payload, name
            assert len(payload["intervals"]) == 1, name
            assert payload["intervals"][0]["actual_radio_blocks"] >= 0.0, name
            # Usage is finite and non-negative: the traffic, computing and
            # finite resource-block totals, and every server's utilization.
            assert run.interval_results, name
            for result in run.interval_results:
                values = [
                    result.total_traffic_bits,
                    result.total_computing_cycles,
                    result.total_resource_blocks,
                    *result.edge_utilization_by_server.values(),
                ]
                if result.edge_fragmentation is not None:
                    values.append(result.edge_fragmentation)
                assert all(np.isfinite(v) and v >= 0.0 for v in values), name

    @pytest.mark.parametrize("name", sorted(PLAYBACK_DIGESTS))
    def test_playback_scenario_export_is_pinned(self, monkeypatch, name):
        # One digest function for the benchmark and the pins.
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e")
        )
        from bench_e2e import digest

        spec = get_scenario(name)
        assert spec.mode == "playback" and spec.engine.playback_workers == 1
        run = run_scenario(name)
        assert digest(run) == PLAYBACK_DIGESTS[name]
        assert twin_contents_sha256(run.simulator.twins) == PLAYBACK_TWIN_CONTENTS[name]


    def test_scheme_scenario_export_is_pinned(self, monkeypatch):
        """Both scheme scenarios' exports, in this process and in a child that
        picks OpenBLAS's Prescott kernels.  A pin that depends on the kernel's
        bits then fails on any machine whose OpenBLAS picks its kernel at run
        time; a build that does not ignores the variable and runs the default
        kernel twice."""
        root = Path(__file__).resolve().parents[1]
        bench_dir = str(root / "benchmarks" / "e2e")
        monkeypatch.syspath_prepend(bench_dir)
        from bench_e2e import digest

        for name, expected in SCHEME_DIGESTS.items():
            spec = get_scenario(name)
            assert spec.mode == "scheme" and spec.engine.playback_workers == 1
            assert digest(run_scenario(name, {"num_intervals": 2})) == expected, name

        env = dict(
            os.environ,
            OPENBLAS_CORETYPE="Prescott",
            PYTHONPATH=os.pathsep.join([str(root / "src"), bench_dir]),
        )
        child = subprocess.run(
            [sys.executable, "-c", _SCHEME_DIGEST_SCRIPT, *SCHEME_DIGESTS],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout.splitlines()[-1]) == SCHEME_DIGESTS


class TestCli:
    def test_parse_overrides(self):
        overrides = parse_overrides(
            ["population.num_users=12", "engine.playback_workers=2", "seed=3"]
        )
        assert overrides == {
            "population.num_users": 12,
            "engine.playback_workers": 2,
            "seed": 3,
        }
        with pytest.raises(ValueError):
            parse_overrides(["oops"])

    def test_scenarios_subcommand_lists_registry(self, capsys):
        assert cli_main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload["scenarios"]} == set(scenario_names())

    def test_run_subcommand_emits_run_result_json(self, capsys):
        assert (
            cli_main(
                [
                    "run",
                    "multicell_campus",
                    "--intervals",
                    "1",
                    "--override",
                    "population.num_users=12",
                    "--json",
                    "-",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "multicell_campus"
        assert payload["num_intervals"] == 1
        assert payload["spec"]["population"]["num_users"] == 12

    def test_run_subcommand_prints_tables(self, capsys):
        assert cli_main(["run", "multicell_campus", "--intervals", "1",
                         "--override", "population.num_users=12"]) == 0
        out = capsys.readouterr().out
        assert "actual RBs" in out and "multicell_campus" in out

    @pytest.mark.parametrize(
        "scenario, override",
        [
            ("campus_fig3", "engine.playback_workers=0"),
            ("campus_fig3", "engine.collection_drop_probability=1.5"),
            ("campus_fig3", "population.num_users=0"),
            ("campus_fig3", "scheme.cnn_epochs=0"),
            ("campus_fig3", "scheme.k_strategy=bogus"),
            ("campus_fig3", "scheme.k_strategy=fixed"),
            ("campus_fig3", "scheme.fixed_k=0"),
            ("campus_fig3", "grouping.policy=bogus"),
            ("edge_flash_crowd", "grouping.policy=bogus"),
            ("edge_flash_crowd", "grouping.num_groups=0"),
            ("multicell_campus", "interval_s=0"),
            ("multicell_campus", "edge.num_servers=0"),
            ("multicell_campus", "edge.num_servers=2"),
            ("multicell_campus", "edge.cache_capacity_gbytes=0"),
            ("multicell_campus", "placement.strategy=bogus"),
            ("multicell_campus", "placement.horizon_intervals=0"),
            ("multicell_campus", "placement.mispredict_threshold=0"),
            ("multicell_campus", "catalog.recommendation_popularity_weight=2"),
            ("multicell_campus", "topology.tx_power_dbm=NaN"),
            ("multicell_campus", "topology.tx_power_dbm=nan"),
            ("multicell_campus", "topology.implementation_loss=0"),
            ("edge_flash_crowd", "edge.cycles_per_pixel=-1"),
            ("campus_fig3", "controller.apps=a3_handover"),
            ("campus_fig3", "engine.feature_steps=0"),
            ("campus_fig3", "engine.feature_steps=3"),
            ("campus_fig3", "engine.feature_steps=1"),
            (
                "cell_outage_storm",
                'controller.apps=[{"name": "cell_scoping", "params": {"bogus": 1}}]',
            ),
            (
                "multicell_campus",
                'controller.apps=["a3_handover", "cell_scoping", {"name": '
                '"prorata_rebalance", "params": {"overload_threshold": 0.25}}]',
            ),
            ("multicell_campus", "controller.handover_hysteresis_db=-1"),
            ("multicell_campus", "controller.cell_underload_threshold=0.95"),
            ("campus_fig3", "controller.handover_sample_period_s=0"),
            ("multicell_campus", "topology.rb_budget_blocks=-5"),
            ("multicell_campus", "catalog.zipf_exponent=-1"),
            ("multicell_campus", "population.preference_learning_rate=5"),
            ("multicell_campus", "population.preference_concentration=0"),
            ("edge_flash_crowd", "interval_s=inf"),
            ("edge_flash_crowd", "topology.area_width_m=inf"),
            ("edge_flash_crowd", "topology.area_height_m=inf"),
            ("edge_flash_crowd", "population.favourite_boost=inf"),
            ("edge_flash_crowd", "population.preference_concentration=inf"),
            ("edge_flash_crowd", "placement.reservation_margin=inf"),
            ("campus_fig3", "topology.tx_power_dbm=inf"),
            ("multicell_campus", "topology.tx_power_dbm=-inf"),
            ("campus_fig3", "topology.rb_bandwidth_hz=inf"),
            ("edge_flash_crowd", "topology.channel_sample_period_s=inf"),
            ("multicell_campus", "controller.handover_sample_period_s=inf"),
            ("commuter_rush", "engine.collection_delay_s=inf"),
        ],
    )
    def test_bad_override_value_is_a_one_line_error(self, capsys, scenario, override):
        code = cli_main(["run", scenario, "--intervals", "1", "--override", override])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @pytest.mark.parametrize("seed_args", [["--seed", "-5"], ["--override", "seed=-3"]])
    def test_negative_seed_runs(self, capsys, seed_args):
        """A negative seed is taken modulo 2**64, as every keyed stream takes it."""
        code = cli_main(["run", "commuter_rush", "--intervals", "1", "--json", "-", *seed_args])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["seed"] == int(seed_args[-1].split("=")[-1])
        assert len(payload["intervals"]) == 1

    def test_interval_length_without_a_binary_form_runs_every_interval(self, tmp_path):
        """Regression: with ``interval_s=45.6`` the clock stalled at interval 4
        and the run died replaying it (``timestamps must be non-decreasing``)."""
        out = tmp_path / "run.json"
        code = cli_main(
            [
                "run",
                "campus_fig3",
                "--override",
                "mode=playback",
                "--override",
                "interval_s=45.6",
                "--override",
                "population.num_users=6",
                "--intervals",
                "8",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        intervals = json.loads(out.read_text())["intervals"]
        assert [record["interval_index"] for record in intervals] == list(range(8))

    def test_one_building_campus_is_a_one_line_error(self, capsys):
        """The building count is checked by the campus config compile_spec builds."""
        code = cli_main(
            ["run", "campus_fig3", "--intervals", "1", "--override", "mobility.num_buildings=1"]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: num_buildings must be at least 2"]
