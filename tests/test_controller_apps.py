"""Tests for the controller-app framework (:mod:`repro.net.apps`).

Covers the app registry and stack construction, per-app behaviour (the
A3 rule read from the runtime's config, mid-interval re-scoping,
weak-member demotion, greedy vs pro-rata rebalancing), the
spec/config/CLI wiring of scenario-selected stacks, the
``controller_events`` export — and the headline determinism contract:
the default app stack reproduces the pre-refactor monolithic controller
bit-for-bit (golden-pinned digests).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.net.apps import (
    DEFAULT_APP_STACK,
    app_names,
    build_app_stack,
    create_app,
    normalize_app_entry,
)
from repro.net.basestation import BaseStation, BaseStationConfig
from repro.net.controller import ControllerConfig, HandoverEvent, RanController
from repro.net.handover import HandoverConfig
from repro.scenario import (
    ControllerAppSpec,
    ControllerSpec,
    ScenarioSpec,
    compile_spec,
    get_scenario,
    run_scenario,
)
from repro.sim.config import SimulationConfig

ALL_APPS = [
    "a3_handover",
    "cell_scoping",
    "greedy_rebalance",
    "prorata_rebalance",
    "weak_member_demotion",
]


def _controller(num_cells=2, apps=None, **config_kwargs) -> RanController:
    stations = [
        BaseStation(
            bs_id=index,
            position=np.array([800.0 * index, 0.0]),
            config=BaseStationConfig(num_resource_blocks=100),
        )
        for index in range(num_cells)
    ]
    return RanController(stations, ControllerConfig(apps=apps, **config_kwargs))


# ---------------------------------------------------------------- registry
class TestAppRegistry:
    def test_registry_lists_all_builtins(self):
        assert app_names() == ALL_APPS

    def test_default_stack_builds_in_order(self):
        stack = build_app_stack(None)
        assert [app.name for app in stack] == list(DEFAULT_APP_STACK)

    def test_entry_forms_normalize(self):
        assert normalize_app_entry("a3_handover") == ("a3_handover", {})
        assert normalize_app_entry(("cell_scoping", {"rescope_on_handover": True})) == (
            "cell_scoping",
            {"rescope_on_handover": True},
        )
        assert normalize_app_entry(
            {"name": "weak_member_demotion", "params": {"rssi_threshold_db": 9.0}}
        ) == ("weak_member_demotion", {"rssi_threshold_db": 9.0})
        with pytest.raises(ValueError):
            normalize_app_entry({"params": {}})
        with pytest.raises(TypeError):
            normalize_app_entry(42)

    def test_unknown_app_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="a3_handover"):
            create_app("not_an_app")

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            create_app("cell_scoping", {"bogus": 1})

    def test_live_instances_pass_through_build(self):
        app = create_app("prorata_rebalance")
        stack = build_app_stack(["a3_handover", app])
        assert stack[1] is app


# ----------------------------------------------------------- golden parity
#: Keys added by later PRs on top of the pinned export shape; the digest
#: excludes them so the *pre-existing* payload stays byte-identical.
_ADDITIVE_INTERVAL_KEYS = {"controller_events"}
_ADDITIVE_SUMMARY_KEYS = {"edge", "placement", "reservation"}


def _run_digest(name: str, num_intervals: int) -> tuple:
    result = run_scenario(name, {"num_intervals": num_intervals})
    data = result.to_dict()
    payload = {
        "intervals": [
            {
                key: value
                for key, value in record.items()
                if key not in _ADDITIVE_INTERVAL_KEYS
            }
            for record in data["intervals"]
        ],
        "summary": {
            key: value
            for key, value in data["summary"].items()
            if key not in _ADDITIVE_SUMMARY_KEYS
        },
        "per_cell": data.get("per_cell"),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return digest, data["summary"]


class TestGoldenParity:
    """The default stack reproduces the pre-refactor monolith bit-for-bit.

    The digests were first captured on the monolithic ``RanController``
    immediately before the app-framework split; everything the runner
    exports (except the new ``controller_events`` key) must hash
    identically.  They were re-pinned once when the keyed-stream engine
    became the only draw engine: the new values are exactly what the
    app-framework stack produced under that engine before the retired
    engines were deleted.
    """

    def test_multicell_campus_matches_pre_refactor_golden(self):
        digest, summary = _run_digest("multicell_campus", num_intervals=3)
        assert digest == (
            "b8d86b044da5f1b0dda80155154a870bc586b22bebb91248e4d38a5d328d3e71"
        )
        assert summary["total_handovers"] == 82
        assert summary["mean_actual_radio_blocks"] == pytest.approx(88.26177742206278)

    def test_cell_outage_storm_matches_pre_refactor_golden(self):
        digest, summary = _run_digest("cell_outage_storm", num_intervals=5)
        assert digest == (
            "08bb967f0af3a4c1336d99847bb7504d845c6f5829666c01c4ba2e06b74f2dfd"
        )
        assert summary["total_handovers"] == 62
        assert summary["mean_actual_radio_blocks"] == pytest.approx(79.57855998104876)

    def test_explicit_default_stack_equals_implicit(self):
        implicit = run_scenario("cell_outage_storm", {"num_intervals": 2})
        explicit = run_scenario(
            "cell_outage_storm",
            {"num_intervals": 2, "controller.apps": ",".join(DEFAULT_APP_STACK)},
        )
        assert implicit.to_dict()["intervals"] == explicit.to_dict()["intervals"]


# ------------------------------------------------------------ a3_handover
class TestA3HandoverApp:
    def test_params_inherit_runtime_config_by_default(self):
        controller = _controller()
        assert controller.app("a3_handover").policy.config == controller.config.handover

    def test_controller_knobs_have_one_home_in_the_config(self):
        # The apps declare no copies of the controller's knobs, so per-app
        # params naming them are unknown params.
        with pytest.raises(ValueError, match="unknown params"):
            ControllerConfig(apps=[("a3_handover", {"hysteresis_db": 7.0})])
        with pytest.raises(ValueError, match="unknown params"):
            ControllerConfig(
                apps=["a3_handover", ("prorata_rebalance", {"overload_threshold": 0.25})]
            )
        controller = _controller(handover=HandoverConfig(hysteresis_db=7.0))
        assert controller.app("a3_handover").policy.config.hysteresis_db == 7.0

    def test_stack_without_a3_has_no_measurements_or_policy(self):
        controller = _controller(apps=["cell_scoping", "prorata_rebalance"])
        assert controller.app("a3_handover") is None
        assert controller.measurement_times(0.0, 300.0).size == 0
        fired = controller.observe_interval(
            np.zeros(0), np.zeros((0, 0, 2)), [], end_s=300.0
        )
        assert fired == []


# ------------------------------------------------- mid-interval re-scoping
class TestMidIntervalRescope:
    def _prepared(self, rescope: bool) -> RanController:
        controller = _controller(
            apps=[
                "a3_handover",
                ("cell_scoping", {"rescope_on_handover": rescope}),
                "prorata_rebalance",
            ]
        )
        for uid in (0, 1):
            controller.attach_user(uid, 0)
        controller.scope_grouping({0: [0, 1]}, time_s=0.0)
        return controller

    def test_handover_rescopes_at_event_time(self):
        controller = self._prepared(rescope=True)
        controller.schedule_handover(
            HandoverEvent(
                time_s=100.0, user_id=1, source_cell=0, target_cell=1, margin_db=4.0
            )
        )
        controller.events.run_until(150.0)
        fired = controller.drain_scope_events()
        assert [event.kind for event in fired] == ["split"]
        assert fired[0].time_s == 100.0
        assert fired[0].cells == (0, 1) and fired[0].previous_cells == (0,)
        # The next interval-start scope sees the same footprint: the event
        # must not fire twice.
        _, _, events = controller.scope_grouping({0: [0, 1]}, time_s=300.0)
        assert events == []

    def test_rescope_disabled_keeps_boundary_only_behaviour(self):
        controller = self._prepared(rescope=False)
        controller.schedule_handover(
            HandoverEvent(
                time_s=100.0, user_id=1, source_cell=0, target_cell=1, margin_db=4.0
            )
        )
        controller.events.run_until(150.0)
        assert controller.drain_scope_events() == []
        # The footprint change surfaces only at the next interval start.
        _, _, events = controller.scope_grouping({0: [0, 1]}, time_s=300.0)
        assert [event.kind for event in events] == ["split"]
        assert events[0].time_s == 300.0


# ------------------------------------------------- weak-member demotion
def _demotion_controller(threshold=10.0, **params) -> RanController:
    return _controller(
        apps=[
            ("weak_member_demotion", {"rssi_threshold_db": threshold, **params}),
            "cell_scoping",
            "prorata_rebalance",
        ]
    )


class TestWeakMemberDemotion:
    def test_weak_members_become_singleton_groups(self):
        controller = _demotion_controller()
        for uid in range(4):
            controller.attach_user(uid, 0)
        snr = {0: 30.0, 1: 2.0, 2: 25.0, 3: 1.0}
        scoped, cell_of_group, _ = controller.scope_grouping(
            {0: [0, 1, 2, 3]}, time_s=0.0, mean_snr_db=lambda uids: snr
        )
        groups = sorted(scoped.values(), key=len, reverse=True)
        assert groups[0] == [0, 2]
        assert sorted(sum(groups[1:], [])) == [1, 3]
        assert all(len(group) == 1 for group in groups[1:])
        # Demoted singletons stay in the members' serving cell.
        assert set(cell_of_group.values()) == {0}
        events = controller.drain_app_events()
        assert [event.name for event in events] == ["demote", "demote"]
        assert {event.payload["user"] for event in events} == {1, 3}
        assert all(event.payload["mean_snr_db"] < 10.0 for event in events)

    def test_synthetic_ids_never_collide_with_real_groups(self):
        controller = _demotion_controller()
        for uid in range(4):
            controller.attach_user(uid, uid % 2)
        snr = {uid: (2.0 if uid == 0 else 30.0) for uid in range(4)}
        scoped, _, _ = controller.scope_grouping(
            {0: [0, 2], 1: [1, 3]}, time_s=0.0, mean_snr_db=lambda uids: snr
        )
        assert len(scoped) == len(set(scoped))
        assert sorted(uid for group in scoped.values() for uid in group) == [0, 1, 2, 3]

    def test_all_weak_group_keeps_its_strongest_member(self):
        controller = _demotion_controller(threshold=50.0)
        for uid in range(3):
            controller.attach_user(uid, 0)
        snr = {0: 5.0, 1: 9.0, 2: 7.0}
        scoped, _, _ = controller.scope_grouping(
            {0: [0, 1, 2]}, time_s=0.0, mean_snr_db=lambda uids: snr
        )
        assert scoped[0] == [1]  # strongest member keeps the multicast channel
        assert sum(len(group) for group in scoped.values()) == 3

    def test_min_group_size_protects_small_groups(self):
        controller = _demotion_controller(min_group_size=3)
        for uid in range(2):
            controller.attach_user(uid, 0)
        scoped, _, _ = controller.scope_grouping(
            {0: [0, 1]}, time_s=0.0, mean_snr_db=lambda uids: {0: 1.0, 1: 1.0}
        )
        assert scoped == {0: [0, 1]}
        assert controller.drain_app_events() == []

    def test_preview_matches_playback_and_stays_pure(self):
        snr = {0: 30.0, 1: 2.0, 2: 25.0}

        def build():
            controller = _demotion_controller()
            for uid in range(3):
                controller.attach_user(uid, 0)
            return controller

        preview_ctrl = build()
        previewed = preview_ctrl.preview_scope(
            {0: [0, 1, 2]}, time_s=0.0, mean_snr_db=lambda uids: snr
        )
        # Preview emits nothing and leaves no trace: running it twice gives
        # the same answer, and no app events ever fire.
        assert preview_ctrl.preview_scope(
            {0: [0, 1, 2]}, time_s=0.0, mean_snr_db=lambda uids: snr
        ) == previewed
        assert len(preview_ctrl.events) == 0
        preview_ctrl.events.run_until(10.0)
        assert preview_ctrl.drain_app_events() == []

        playback_ctrl = build()
        scoped, cell_of_group, _ = playback_ctrl.scope_grouping(
            {0: [0, 1, 2]}, time_s=0.0, mean_snr_db=lambda uids: snr
        )
        assert previewed == (scoped, cell_of_group)

    def test_no_measurement_callable_is_a_noop(self):
        controller = _demotion_controller()
        for uid in range(2):
            controller.attach_user(uid, 0)
        scoped, _, _ = controller.scope_grouping({0: [0, 1]}, time_s=0.0)
        assert scoped == {0: [0, 1]}


# ------------------------------------------------------- rebalance A/B
def _four_cell_load():
    # Cells 0 and 1 overloaded (deficits 100 and ~33.3), cells 2 and 3 each
    # donate 25 blocks: total surplus 50 < total deficit, so pro-rata and
    # greedy must allocate it differently.
    return {0: 180.0, 1: 120.0, 2: 10.0, 3: 10.0}


class TestRebalanceAB:
    def test_policies_diverge_with_competing_recipients(self):
        prorata = _controller(num_cells=4)
        prorata.finish_interval(_four_cell_load(), {}, time_s=300.0)
        greedy = _controller(
            num_cells=4, apps=["a3_handover", "cell_scoping", "greedy_rebalance"]
        )
        greedy.finish_interval(_four_cell_load(), {}, time_s=300.0)

        pro_budgets = prorata.rb_budget_by_cell()
        greedy_budgets = greedy.rb_budget_by_cell()
        # Pro-rata splits the 50 donated blocks 3:1 across the deficits;
        # greedy makes the worst cell whole first, starving the other.
        assert pro_budgets[0] == pytest.approx(137.5)
        assert pro_budgets[1] == pytest.approx(112.5)
        assert greedy_budgets[0] == pytest.approx(150.0)
        assert greedy_budgets[1] == pytest.approx(100.0)
        # Both conserve the total budget.
        assert sum(pro_budgets.values()) == pytest.approx(400.0)
        assert sum(greedy_budgets.values()) == pytest.approx(400.0)

    def test_greedy_emits_budget_transfer_events(self):
        greedy = _controller(
            num_cells=4, apps=["a3_handover", "cell_scoping", "greedy_rebalance"]
        )
        greedy.finish_interval(_four_cell_load(), {}, time_s=300.0)
        events = greedy.drain_app_events()
        assert [event.name for event in events] == ["budget_transfer"] * 2
        assert [(e.payload["from_cell"], e.payload["to_cell"]) for e in events] == [
            (2, 0),
            (3, 0),
        ]
        assert sum(event.payload["blocks"] for event in events) == pytest.approx(50.0)

    def test_single_pair_policies_coincide(self):
        load = {0: 95.0, 1: 10.0}
        prorata = _controller()
        prorata.finish_interval(load, {}, time_s=300.0)
        greedy = _controller(apps=["a3_handover", "cell_scoping", "greedy_rebalance"])
        greedy.finish_interval(load, {}, time_s=300.0)
        assert prorata.rb_budget_by_cell() == pytest.approx(greedy.rb_budget_by_cell())


# ------------------------------------------------------ spec/config wiring
class TestSpecAndConfigWiring:
    def test_controller_spec_coerces_entry_forms(self):
        spec = ControllerSpec(
            mode="handover",
            apps=(
                "a3_handover",
                {"name": "cell_scoping", "params": {"rescope_on_handover": True}},
                ControllerAppSpec(name="prorata_rebalance"),
            ),
        )
        assert all(isinstance(app, ControllerAppSpec) for app in spec.apps)
        assert [app.name for app in spec.apps] == [
            "a3_handover",
            "cell_scoping",
            "prorata_rebalance",
        ]
        assert spec.apps[1].params == {"rescope_on_handover": True}

    def test_apps_require_handover_mode(self):
        with pytest.raises(ValueError, match="handover"):
            compile_spec(
                ScenarioSpec(
                    name="x",
                    controller=ControllerSpec(mode="boundary", apps=("a3_handover",)),
                )
            )
        with pytest.raises(ValueError, match="handover"):
            SimulationConfig(
                controller_mode="boundary",
                controller=ControllerConfig(apps=("a3_handover",)),
            )

    def test_unknown_app_and_params_rejected_at_spec_time(self):
        with pytest.raises(KeyError, match="unknown controller app"):
            compile_spec(
                ScenarioSpec(
                    name="x", controller=ControllerSpec(mode="handover", apps=("nope",))
                )
            )
        with pytest.raises(ValueError, match="unknown params"):
            compile_spec(
                ScenarioSpec(
                    name="x",
                    controller=ControllerSpec(
                        mode="handover",
                        apps=({"name": "cell_scoping", "params": {"bogus": 1}},),
                    ),
                )
            )
        with pytest.raises(KeyError, match="unknown controller app"):
            ControllerConfig(apps=("nope",))

    def test_override_accepts_comma_separated_names(self):
        spec = get_scenario(
            "cell_outage_storm",
            {"controller.apps": "a3_handover,cell_scoping,greedy_rebalance"},
        )
        assert [app.name for app in spec.controller.apps] == [
            "a3_handover",
            "cell_scoping",
            "greedy_rebalance",
        ]

    def test_override_accepts_json_list_with_params(self):
        spec = get_scenario(
            "multicell_campus",
            {
                "controller.apps": [
                    "a3_handover",
                    {"name": "weak_member_demotion", "params": {"rssi_threshold_db": 9.0}},
                ]
            },
        )
        assert spec.controller.apps[1].params == {"rssi_threshold_db": 9.0}

    def test_scalar_tuple_overrides_coerce_element_type(self):
        spec = get_scenario("campus_fig3", {"catalog.categories": "News,Sports"})
        assert spec.catalog.categories == ("News", "Sports")

    def test_structured_tuples_stay_replace_only(self):
        spec = get_scenario("multicell_campus")
        with pytest.raises(KeyError, match="structured"):
            spec.with_overrides({"timeline": "x"})
        with pytest.raises(KeyError, match="structured"):
            spec.with_overrides({"population.churn_phases": "x"})

    def test_compile_lowers_apps_to_config(self):
        from repro.scenario import compile_spec

        spec = get_scenario(
            "cell_outage_storm", {"controller.apps": "a3_handover,cell_scoping"}
        )
        compiled = compile_spec(spec)
        assert compiled.sim_config.controller.apps == (
            ("a3_handover", {}),
            ("cell_scoping", {}),
        )
        # No apps -> None (the bit-identical default stack).
        default = compile_spec(get_scenario("cell_outage_storm"))
        assert default.sim_config.controller.apps is None

    def test_spec_to_dict_is_json_canonical(self):
        spec = get_scenario("weak_signal_demotion")
        data = spec.to_dict()
        assert data["controller"]["apps"][1] == {
            "name": "weak_member_demotion",
            "params": {"rssi_threshold_db": 30.0},
        }
        assert json.loads(json.dumps(data)) == data


# -------------------------------------------------------- runner export
class TestControllerEventExport:
    def test_records_are_json_canonical_and_time_sorted(self):
        result = run_scenario("cell_outage_storm", {"num_intervals": 2})
        for record in result.to_dict()["intervals"]:
            events = record["controller_events"]
            assert events, "handover-mode intervals must export controller events"
            times = [event["time_s"] for event in events]
            assert times == sorted(times)
            assert {event["type"] for event in events} <= {
                "handover",
                "group_scope",
                "cell_load",
                "app",
            }
            assert json.loads(json.dumps(record)) == record
            # Counts agree with the aggregate fields exported alongside.
            assert (
                sum(1 for event in events if event["type"] == "handover")
                == record["num_handovers"]
            )

    def test_demotion_scenario_exports_app_events(self):
        result = run_scenario("weak_signal_demotion", {"num_intervals": 2})
        data = result.to_dict()
        demotes = [
            event
            for record in data["intervals"]
            for event in record["controller_events"]
            if event["type"] == "app" and event["name"] == "demote"
        ]
        assert demotes, "the calibrated threshold must actually demote members"
        for event in demotes:
            assert event["app"] == "weak_member_demotion"
            assert event["payload"]["mean_snr_db"] < event["payload"]["threshold_db"]

    def test_boundary_mode_has_no_controller_events_key(self):
        result = run_scenario("campus_fig3", {"num_intervals": 1})
        for record in result.to_dict()["intervals"]:
            assert "controller_events" not in record


# ------------------------------------------------------------------- CLI
class TestCli:
    def test_apps_json_lists_all_registered_apps(self, capsys):
        assert cli_main(["apps", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload["apps"]] == ALL_APPS
        assert payload["default_stack"] == list(DEFAULT_APP_STACK)

    def test_apps_table_mentions_default_stack(self, capsys):
        assert cli_main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "default stack: a3_handover, cell_scoping, prorata_rebalance" in out
        for name in ALL_APPS:
            assert name in out

    def test_run_rejects_unknown_app_gracefully(self, capsys):
        code = cli_main(
            ["run", "cell_outage_storm", "--override", "controller.apps=nope"]
        )
        assert code == 2
        assert "unknown controller app" in capsys.readouterr().err
