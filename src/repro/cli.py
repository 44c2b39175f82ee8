"""Command-line interface.

Exposes the reproduction's experiments as subcommands so downstream users
can rerun them (and sweep their parameters) without writing Python::

    python -m repro scenarios                    # list the scenario registry
    python -m repro apps                         # list the controller apps
    python -m repro run multicell_campus         # run a named scenario
    python -m repro run campus_fig3 --intervals 3 --override population.num_users=40
    python -m repro run cell_outage_storm --override controller.apps=a3_handover,cell_scoping,greedy_rebalance
    python -m repro fig3 --users 30 --intervals 8
    python -m repro grouping-ablation
    python -m repro staleness-ablation
    python -m repro predictors
    python -m repro dataset --output challenge.json --users 40 --videos 150

``run`` and ``scenarios`` sit on the declarative scenario API
(:mod:`repro.scenario`): a registered :class:`~repro.scenario.spec.ScenarioSpec`
is compiled and executed, ``--override section.field=value`` rewrites any
spec leaf, and ``--json`` emits the scenario's JSON-canonical ``RunResult``.
Every subcommand prints a plain-text table and returns exit code 0 on
success.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from repro.analysis import (
    fig3_runner,
    format_table,
    grouping_ablation_runners,
    predictor_comparison_runner,
    run_fig3_experiment,
    run_grouping_ablation,
    run_predictor_comparison,
    run_staleness_ablation,
    staleness_ablation_runners,
)
from repro.dataset import check_num_intervals, generate_dataset, save_dataset
from repro.scenario import ScenarioRunner, get_scenario, scenario_names
from repro.sim import SimulationConfig


def _add_fig3_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "fig3", help="reproduce the paper's Fig. 3 (swiping probability + radio demand)"
    )
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--users", type=int, default=24, help="number of simulated users")
    parser.add_argument("--intervals", type=int, default=6, help="evaluated reservation intervals")
    parser.add_argument(
        "--interval-seconds", type=float, default=150.0, help="reservation interval length"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the unified Fig3Result.to_dict() JSON to PATH ('-' for stdout)",
    )


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "run",
        help="compile and run a registered scenario (see 'repro scenarios')",
        description=(
            "Compile a registered ScenarioSpec and drive it through the "
            "scenario runner.  Overrides rewrite any spec leaf by dotted "
            "path, e.g. --override population.num_users=100 "
            "--override engine.playback_workers=4"
        ),
    )
    parser.add_argument("scenario", help="registered scenario name")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="spec override (repeatable); VALUE is parsed as JSON, else a string",
    )
    parser.add_argument(
        "--intervals",
        type=int,
        default=None,
        help="shorthand for --override num_intervals=N",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="shorthand for --override seed=N"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the RunResult JSON to PATH ('-' writes it to stdout, tables suppressed)",
    )


def _add_scenarios_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "scenarios", help="list the registered scenarios and their shapes"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the registry as JSON on stdout"
    )


def _add_apps_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "apps",
        help="list the registered controller apps and their parameters",
        description=(
            "Controller apps are pluggable policies driven by the RAN "
            "controller's event bus; select a stack per run with "
            "--override controller.apps=name1,name2,... (see repro run)."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the app registry as JSON on stdout"
    )


def _add_lint_parser(subparsers) -> None:
    # The heavy lifting (and the full flag set) lives in repro.lint.cli so
    # the analyzer stays usable as a library; this module only mounts it.
    from repro.lint.cli import add_lint_parser

    add_lint_parser(subparsers)


def _run_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint_command

    return run_lint_command(args)


def _add_simple_parser(subparsers, name: str, help_text: str) -> None:
    parser = subparsers.add_parser(name, help=help_text)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--intervals", type=int, default=4)


def _add_dataset_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "dataset",
        help=(
            "record the simulator's unicast playback as a synthetic "
            "short-video-streaming-challenge dataset"
        ),
    )
    parser.add_argument("--output", required=True, help="output JSON path")
    parser.add_argument("--users", type=int, default=40)
    parser.add_argument("--videos", type=int, default=150)
    parser.add_argument("--intervals", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Digital twin-assisted resource demand prediction for multicast short "
            "video streaming (ICDCS 2023) — experiment runner"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    _add_scenarios_parser(subparsers)
    _add_apps_parser(subparsers)
    _add_lint_parser(subparsers)
    _add_fig3_parser(subparsers)
    _add_simple_parser(subparsers, "grouping-ablation", "DDQN-K vs silhouette vs fixed-K grouping")
    _add_simple_parser(subparsers, "staleness-ablation", "accuracy vs digital-twin staleness")
    _add_simple_parser(subparsers, "predictors", "DT scheme vs history-only / per-user baselines")
    _add_dataset_parser(subparsers)
    return parser


# --------------------------------------------------------------- scenario API
def parse_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """``PATH=VALUE`` strings → override mapping (values parsed as JSON)."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form PATH=VALUE")
        path, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[path.strip()] = value
    return overrides


def _emit_json(payload: dict, destination: Optional[str]) -> None:
    if destination is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w") as handle:
            handle.write(text + "\n")


def _user_error(error: Exception) -> int:
    """Report a bad command-line value as one ``error:`` line; exit code 2.

    Every command builds and compiles its specs (or builds its config), which
    checks each value they carry, inside a handler that calls this, and runs
    them outside it, so genuine runtime defects still surface with a full
    stack trace.
    """
    message = error.args[0] if error.args else error
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_scenario_command(args: argparse.Namespace) -> int:
    try:
        overrides = parse_overrides(args.override)
    except ValueError as error:
        return _user_error(error)
    if args.intervals is not None:
        overrides["num_intervals"] = args.intervals
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        runner = ScenarioRunner(get_scenario(args.scenario, overrides))
    except (KeyError, ValueError, TypeError) as error:
        # Unknown scenario names, unknown override paths and bad override
        # values are routine user errors.  Building the runner compiles the
        # spec, which checks each value a compiled config carries; a value
        # only a component checks fails later, in run().
        return _user_error(error)
    result = runner.run()
    _emit_json(result.to_dict(), args.json)
    if args.json == "-":
        return 0

    print(f"scenario {result.scenario} ({result.mode} mode, seed {result.seed}): "
          f"{result.num_intervals} intervals in {result.elapsed_s:.2f}s")
    if result.mode == "scheme":
        headers = ["interval", "users", "groups", "predicted RBs", "actual RBs", "accuracy"]
        rows = [
            [
                record["interval_index"],
                record["num_users"],
                record["num_groups"],
                round(record["predicted_radio_blocks"], 2),
                round(record["actual_radio_blocks"], 2),
                round(record["radio_accuracy"], 4),
            ]
            for record in result.intervals
        ]
    else:
        headers = ["interval", "users", "groups", "actual RBs", "handovers", "events"]
        rows = [
            [
                record["interval_index"],
                record["num_users"],
                record["num_groups"],
                round(record["actual_radio_blocks"], 2),
                record.get("num_handovers", 0),
                "; ".join(record["events_applied"]) or "-",
            ]
            for record in result.intervals
        ]
    print(format_table(headers, rows))
    if result.summary:
        print()
        for key in sorted(result.summary):
            value = result.summary[key]
            if isinstance(value, float):
                print(f"{key:<28s}: {value:.4f}")
            elif not isinstance(value, dict):
                print(f"{key:<28s}: {value}")
    return 0


def _scenarios_command(args: argparse.Namespace) -> int:
    entries = []
    for name in scenario_names():
        spec = get_scenario(name)
        entries.append(
            {
                "name": name,
                "mode": spec.mode,
                "num_users": spec.population.num_users,
                "num_cells": spec.topology.num_cells,
                "num_intervals": spec.num_intervals,
                "controller": spec.controller.mode,
                "timeline_events": len(spec.timeline),
                "description": spec.description,
            }
        )
    if args.json:
        print(json.dumps({"scenarios": entries}, indent=2, sort_keys=True))
        return 0
    print(
        format_table(
            ["name", "mode", "users", "cells", "intervals", "events", "description"],
            [
                [
                    entry["name"],
                    entry["mode"],
                    entry["num_users"],
                    entry["num_cells"],
                    entry["num_intervals"],
                    entry["timeline_events"],
                    entry["description"],
                ]
                for entry in entries
            ],
        )
    )
    return 0


def _apps_command(args: argparse.Namespace) -> int:
    from repro.net.apps import DEFAULT_APP_STACK, app_names, get_app_class

    entries = []
    for name in app_names():
        cls = get_app_class(name)
        doc = (cls.__doc__ or "").strip().splitlines()
        entries.append(
            {
                "name": name,
                "default": name in DEFAULT_APP_STACK,
                "params": {
                    key: value for key, value in sorted(cls.default_params.items())
                },
                "description": doc[0] if doc else "",
            }
        )
    if args.json:
        print(json.dumps({"apps": entries, "default_stack": list(DEFAULT_APP_STACK)},
                         indent=2, sort_keys=True))
        return 0
    print(
        format_table(
            ["name", "default", "params", "description"],
            [
                [
                    entry["name"],
                    "yes" if entry["default"] else "-",
                    ", ".join(f"{key}={value}" for key, value in entry["params"].items())
                    or "-",
                    entry["description"],
                ]
                for entry in entries
            ],
        )
    )
    print()
    print(f"default stack: {', '.join(DEFAULT_APP_STACK)}")
    return 0


# ------------------------------------------------------------------ subcommands
def _run_fig3(args: argparse.Namespace) -> int:
    try:
        runner = fig3_runner(
            seed=args.seed,
            num_users=args.users,
            num_eval_intervals=args.intervals,
            interval_s=args.interval_seconds,
        )
    except ValueError as error:
        return _user_error(error)
    result = run_fig3_experiment(runner)
    _emit_json(result.to_dict(), args.json)
    if args.json == "-":
        return 0
    profile = result.news_group_profile
    print(f"Fig. 3(a) — cumulative swiping probability (group {profile.group_id}, "
          f"{len(profile.member_ids)} members)")
    print(
        format_table(
            ["category", "cumulative", "engagement share", "swipe prob"],
            [
                [category, value, profile.engagement_share[category], profile.swipe_probability[category]]
                for category, value in result.cumulative_swiping().items()
            ],
        )
    )
    print()
    print("Fig. 3(b) — predicted vs actual radio resource demand")
    print(
        format_table(
            ["interval", "groups", "predicted RBs", "actual RBs", "accuracy"],
            result.demand_rows(),
        )
    )
    print()
    print(f"mean radio accuracy     : {result.mean_radio_accuracy:.2%}")
    print(f"max  radio accuracy     : {result.max_radio_accuracy:.2%}")
    print(f"mean computing accuracy : {result.mean_computing_accuracy:.2%}")
    return 0


def _run_grouping(args: argparse.Namespace) -> int:
    try:
        runners = grouping_ablation_runners(
            seed=args.seed if args.seed is not None else 77,
            num_eval_intervals=args.intervals,
        )
    except ValueError as error:
        return _user_error(error)
    rows = run_grouping_ablation(runners)
    print("Grouping-strategy ablation")
    print(
        format_table(
            ["strategy", "mean K", "silhouette", "actual RBs", "accuracy"],
            [
                [row.strategy, row.mean_groups, row.mean_silhouette, row.mean_actual_blocks, row.mean_accuracy]
                for row in rows
            ],
        )
    )
    return 0


def _run_staleness(args: argparse.Namespace) -> int:
    seeds = [args.seed] if args.seed is not None else None
    try:
        runners = staleness_ablation_runners(seeds=seeds, num_eval_intervals=args.intervals)
    except ValueError as error:
        return _user_error(error)
    rows = run_staleness_ablation(runners)
    print("Digital-twin staleness ablation")
    print(
        format_table(
            ["collection policy", "period multiplier", "drop probability", "accuracy"],
            [
                [row.label, row.period_multiplier, row.drop_probability, row.mean_accuracy]
                for row in rows
            ],
        )
    )
    return 0


def _run_predictors(args: argparse.Namespace) -> int:
    try:
        runner = predictor_comparison_runner(
            seed=args.seed if args.seed is not None else 55,
            num_eval_intervals=args.intervals,
        )
    except ValueError as error:
        return _user_error(error)
    result = run_predictor_comparison(runner)
    print("Predictor comparison (mean radio-demand prediction accuracy)")
    print(
        format_table(
            ["predictor", "accuracy"],
            [[row.name, row.mean_accuracy] for row in result.rows],
        )
    )
    print()
    print(f"per-user (unicast) reservation : {result.unicast_blocks:.2f} resource blocks")
    print(f"multicast actual usage         : {result.multicast_actual_blocks:.2f} resource blocks")
    print(f"multicast saving               : {result.multicast_saving:.2%}")
    return 0


def _run_dataset(args: argparse.Namespace) -> int:
    # No favoured users, and no learning from viewing: each user keeps the
    # preference the dataset records, and each video its popularity.
    try:
        config = SimulationConfig(
            num_users=args.users,
            num_videos=args.videos,
            seed=args.seed,
            favourite_category=None,
            favourite_user_fraction=0.0,
            preference_learning_rate=0.0,
            popularity_update_rate=0.0,
        )
        check_num_intervals(args.intervals)
    except ValueError as error:
        return _user_error(error)
    bundle = generate_dataset(config, num_intervals=args.intervals)
    path = save_dataset(bundle, args.output)
    print(
        f"wrote {bundle.num_videos} videos, {bundle.num_users} users, "
        f"{bundle.num_traces} swipe traces to {path}"
    )
    return 0


_COMMANDS = {
    "run": _run_scenario_command,
    "scenarios": _scenarios_command,
    "apps": _apps_command,
    "lint": _run_lint,
    "fig3": _run_fig3,
    "grouping-ablation": _run_grouping,
    "staleness-ablation": _run_staleness,
    "predictors": _run_predictors,
    "dataset": _run_dataset,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
