"""The pins hold under Python 3.12's compensated ``sum()``.

CI runs the suite on Python 3.10 and 3.12.  From 3.12 on, builtin ``sum()``
over floats compensates its rounding, so any pinned total that went
through it could differ in the last bit between the two legs.  Every float
total in ``src`` adds through :func:`repro.numeric.ordered_sum` instead;
these tests install 3.12's rule as ``builtins.sum`` and re-check a
playback pin and a controller golden under it.
"""

from __future__ import annotations

import builtins
from pathlib import Path

from compensated_sum import compensated_sum
from repro.numeric import ordered_sum
from repro.scenario import run_scenario
from test_controller_apps import _run_digest
from test_scenario import PLAYBACK_DIGESTS, PLAYBACK_TWIN_CONTENTS
from twin_digest import twin_contents_sha256


def _install(monkeypatch) -> None:
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0, "the compensated sum is not installed"


def test_ordered_sum_adds_left_to_right(monkeypatch):
    _install(monkeypatch)
    values = [0.1] * 10
    total = 0.0
    for value in values:
        total += value
    assert ordered_sum(values) == total != 1.0
    assert ordered_sum([]) == 0 and type(ordered_sum([])) is int


def test_playback_pin_holds_under_compensated_sum(monkeypatch):
    _install(monkeypatch)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
    from bench_e2e import digest

    run = run_scenario("commuter_rush")
    assert digest(run) == PLAYBACK_DIGESTS["commuter_rush"]
    assert twin_contents_sha256(run.simulator.twins) == PLAYBACK_TWIN_CONTENTS["commuter_rush"]


def test_controller_golden_holds_under_compensated_sum(monkeypatch):
    _install(monkeypatch)
    digest, _ = _run_digest("multicell_campus", num_intervals=3)
    assert digest == "b8d86b044da5f1b0dda80155154a870bc586b22bebb91248e4d38a5d328d3e71"
