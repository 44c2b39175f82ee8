"""Population-scale benchmark of the interval engine.

Times full reservation intervals (ground-truth playback, SNR sampling,
digital-twin collection) at 25/50/100/200 users and emits a machine-readable
JSON record via the harness so per-interval cost is tracked across PRs.

The **worker sweep** plays the same multicast grouping under 1/2/4 workers
(``playback_workers``) at 500/1000/2000 users: per-interval wall clock, plus
a gating check that every worker count produces identical interval totals
(the per-group RNG streams make shard boundaries draw-exact).  Each record
carries the machine's ``cpu_count``; the >=1.5x speedup assertion at 1000
users / 4 workers only gates when the machine actually has >= 4 cores — on
fewer cores the sweep still runs and records the honest (likely flat)
numbers.

The **large sweep** times sharded intervals at 10k/50k/100k users: every
stage of an interval — channel draws, playback, status collection — runs on
the worker pool over shared-memory plan buffers, and workers keep
population state (mobility) resident between tasks.  It times one warm plus
one timed interval per (population, worker count), recording per-stage
seconds (``stage1_s``/``playback_s``/``collection_s`` from
``IntervalResult.timing``), ``cpu_count`` and peak RSS (self + children).

Run standalone (``PYTHONPATH=src python benchmarks/bench_scale_population.py``)
or under pytest-benchmark like the other benches.  ``--quick`` runs a
CI-sized smoke variant (small populations, one 2-worker datapoint) and
writes ``benchmarks/results/scale_population_quick.json`` instead, leaving
the committed full record untouched.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from typing import Dict, List, Sequence

from harness import benchmark_record, run_once, write_benchmark_json

from repro import SimulationConfig, StreamingSimulator
from repro.sim.simulator import singleton_grouping

POPULATIONS = (25, 50, 100, 200)
INTERVALS = 3
WORKER_POPULATIONS = (500, 1000, 2000)
WORKER_COUNTS = (1, 2, 4)
WORKER_SWEEP_INTERVALS = 2
#: The >=1.5x target at 1000 users / 4 workers only gates on machines that
#: actually have the cores; the sweep itself always runs and records.
MIN_WORKER_SPEEDUP = 1.5
WORKER_SPEEDUP_USERS = 1000
WORKER_SPEEDUP_WORKERS = 4
SEED = 7
#: The large sweep: ``(users, worker counts)`` pairs.  10k carries a
#: serial baseline; 50k/100k run sharded-only (a serial interval at 100k
#: would roughly double the bench's wall clock for one datapoint).
LARGE_POPULATIONS = ((10_000, (1, 2)), (50_000, (2,)), (100_000, (2,)))
LARGE_INTERVAL_S = 60.0
LARGE_GROUP_SIZE = 100
STAGE_KEYS = ("stage1_s", "playback_s", "collection_s")


def build_simulator(users: int) -> StreamingSimulator:
    return StreamingSimulator(
        SimulationConfig(num_users=users, seed=SEED)
    )


# -------------------------------------------------------------- measurement
def run_intervals(sim: StreamingSimulator, intervals: int = INTERVALS) -> float:
    """Wall-clock seconds of ``intervals`` unicast intervals."""
    started = time.perf_counter()
    for _ in range(intervals):
        sim.run_interval(singleton_grouping(sim.user_ids()))
    return time.perf_counter() - started


def _multicast_grouping(sim: StreamingSimulator, group_size: int = 10) -> Dict[int, List[int]]:
    """The pipeline-shaped grouping: ~``group_size`` members per group."""
    user_ids = sim.user_ids()
    num_groups = max(len(user_ids) // group_size, 1)
    grouping: Dict[int, List[int]] = {gid: [] for gid in range(num_groups)}
    for index, uid in enumerate(user_ids):
        grouping[index % num_groups].append(uid)
    return grouping


def _worker_sweep_simulator(users: int, workers: int) -> StreamingSimulator:
    return StreamingSimulator(
        SimulationConfig(
            num_users=users,
            seed=SEED,
            playback_workers=workers,
        )
    )


def playback_workers_experiment(
    records: List[dict],
    populations: Sequence[int] = WORKER_POPULATIONS,
    workers: Sequence[int] = WORKER_COUNTS,
    intervals: int = WORKER_SWEEP_INTERVALS,
) -> dict:
    """Process-sharded intervals versus the inline engine.

    For each population the same multicast grouping is played under every
    worker count (same seed): one warm interval first —
    pool spin-up and lazy mobility-leg generation happen there — then
    ``intervals`` timed intervals.  Returns per-population ``{"speedups":
    {workers: x}, "totals_identical": bool}``; identical totals across
    worker counts are the draw-exact shard-boundary guarantee and are
    asserted by the caller.
    """
    cpu_count = os.cpu_count() or 1
    sweep: dict = {"cpu_count": cpu_count, "populations": {}}
    for users in populations:
        timings: Dict[int, float] = {}
        stage_by_workers: Dict[int, Dict[str, float]] = {}
        totals_by_workers: Dict[int, list] = {}
        for worker_count in workers:
            sim = _worker_sweep_simulator(users, worker_count)
            try:
                grouping = _multicast_grouping(sim)
                sim.run_interval(grouping)  # warm: pool start + mobility legs
                totals = []
                stages = {key: 0.0 for key in STAGE_KEYS}
                started = time.perf_counter()
                for _ in range(intervals):
                    result = sim.run_interval(grouping)
                    totals.append(
                        (
                            result.total_traffic_bits,
                            result.total_resource_blocks,
                            result.total_computing_cycles,
                        )
                    )
                    for key in STAGE_KEYS:
                        stages[key] += result.timing.get(key, 0.0)
                timings[worker_count] = time.perf_counter() - started
                stage_by_workers[worker_count] = stages
                totals_by_workers[worker_count] = totals
            finally:
                sim.close()
        serial = timings[workers[0]]
        speedups = {w: serial / timings[w] for w in workers}
        totals_identical = all(
            totals_by_workers[w] == totals_by_workers[workers[0]] for w in workers
        )
        sweep["populations"][users] = {
            "speedups": speedups,
            "totals_identical": totals_identical,
        }
        for worker_count in workers:
            records.append(
                benchmark_record(
                    "scale_population_playback_workers",
                    elapsed_s=timings[worker_count],
                    users=users,
                    intervals=intervals,
                    engine="grouped",
                    playback_workers=worker_count,
                    cpu_count=cpu_count,
                    serial_elapsed_s=serial,
                    speedup=speedups[worker_count],
                    totals_identical=totals_identical,
                    stage_timings=stage_by_workers[worker_count],
                )
            )
    return sweep


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus reaped children, in MiB.

    ``ru_maxrss`` is kilobytes on Linux; children covers the worker pool
    (workers are reaped when ``close()`` joins the pool, so sample after).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def large_population_experiment(
    records: List[dict],
    populations=LARGE_POPULATIONS,
    intervals: int = 1,
) -> dict:
    """The scale sweep: sharded intervals at 10k/50k/100k users.

    One warm interval (pool spin-up, shm plan allocation, worker-side
    mobility construction) then ``intervals`` timed ones per (population,
    worker count).  Records per-stage seconds from ``IntervalResult.timing``
    — for sharded runs those are summed worker-side compute seconds, so on
    a single-core machine the stage split stays honest while wall-clock
    speedups sit near or below 1x.  Peak RSS (self + children) is sampled
    after ``close()`` so pool workers are included.
    """
    cpu_count = os.cpu_count() or 1
    sweep: dict = {"cpu_count": cpu_count, "populations": {}}
    for users, worker_counts in populations:
        entry: dict = {}
        for worker_count in worker_counts:
            sim = StreamingSimulator(
                SimulationConfig(
                    num_users=users,
                    interval_s=LARGE_INTERVAL_S,
                    seed=SEED,
                    playback_workers=worker_count,
                )
            )
            try:
                grouping = _multicast_grouping(sim, group_size=LARGE_GROUP_SIZE)
                sim.run_interval(grouping)  # warm
                stages = {key: 0.0 for key in STAGE_KEYS}
                started = time.perf_counter()
                for _ in range(intervals):
                    result = sim.run_interval(grouping)
                    for key in STAGE_KEYS:
                        stages[key] += result.timing.get(key, 0.0)
                elapsed = time.perf_counter() - started
            finally:
                sim.close()
            peak_rss_mb = _peak_rss_mb()
            entry[worker_count] = {
                "elapsed_s": elapsed,
                "stage_timings": stages,
                "peak_rss_mb": peak_rss_mb,
            }
            records.append(
                benchmark_record(
                    "scale_population_large",
                    elapsed_s=elapsed,
                    users=users,
                    intervals=intervals,
                    engine="grouped-full-shard",
                    playback_workers=worker_count,
                    cpu_count=cpu_count,
                    interval_s=LARGE_INTERVAL_S,
                    group_size=LARGE_GROUP_SIZE,
                    stage_timings=entry[worker_count]["stage_timings"],
                    peak_rss_mb=peak_rss_mb,
                )
            )
        sweep["populations"][users] = entry
    return sweep


def scale_experiment() -> dict:
    records = []
    summary: dict = {}
    for users in POPULATIONS:
        elapsed = run_intervals(build_simulator(users))
        records.append(
            benchmark_record(
                "scale_population",
                elapsed_s=elapsed,
                users=users,
                intervals=INTERVALS,
                engine="grouped",
            )
        )
        summary[users] = elapsed / INTERVALS
    worker_sweep = playback_workers_experiment(records)
    large_sweep = large_population_experiment(records)

    path = write_benchmark_json("scale_population", records)
    return {
        "summary": summary,
        "worker_sweep": worker_sweep,
        "large_sweep": large_sweep,
        "json_path": str(path),
    }


def quick_experiment() -> dict:
    """CI smoke variant: tiny populations and one 2-worker datapoint.

    Exercises the same record format so the harness JSON stays covered, but
    completes in seconds.  Writes ``scale_population_quick.json`` so the
    committed full record is not clobbered by CI runs.
    """
    records = []
    summary: dict = {}
    for users in (25, 50):
        elapsed = run_intervals(build_simulator(users), intervals=1)
        records.append(
            benchmark_record(
                "scale_population",
                elapsed_s=elapsed,
                users=users,
                intervals=1,
                engine="grouped",
                quick=True,
            )
        )
        summary[users] = elapsed
    # One small 2-worker datapoint so CI exercises the sharded engine and
    # its identical-totals guarantee on every run.
    worker_sweep = playback_workers_experiment(
        records, populations=(50,), workers=(1, 2), intervals=1
    )
    path = write_benchmark_json("scale_population_quick", records)
    for users, entry in worker_sweep["populations"].items():
        assert entry["totals_identical"], (
            f"sharded playback diverged from serial at {users} users (quick)"
        )
    return {"summary": summary, "worker_sweep": worker_sweep, "json_path": str(path)}


def report(result: dict) -> None:
    print()
    print("Population scale — per-interval wall clock")
    print(f"{'users':>6s} {'s/interval':>11s}")
    for users, per_interval in sorted(result["summary"].items()):
        print(f"{users:>6d} {per_interval:>11.3f}")
    if "worker_sweep" in result:
        sweep = result["worker_sweep"]
        print(f"sharded intervals ({sweep['cpu_count']} cpu core(s)):")
        for users, entry in sorted(sweep["populations"].items()):
            line = ", ".join(
                f"{workers}w {value:.2f}x"
                for workers, value in sorted(entry["speedups"].items())
            )
            identical = "identical" if entry["totals_identical"] else "DIVERGED"
            print(f"  {users} users: {line} (totals {identical})")
    if "large_sweep" in result:
        sweep = result["large_sweep"]
        print(f"large sweep ({sweep['cpu_count']} cpu core(s)):")
        for users, entry in sorted(sweep["populations"].items()):
            for workers, run in sorted(entry.items()):
                stages = ", ".join(
                    f"{key}={run['stage_timings'][key]:.1f}s" for key in STAGE_KEYS
                )
                print(
                    f"  {users} users / {workers}w: {run['elapsed_s']:.1f}s"
                    f" ({stages}, peak RSS {run['peak_rss_mb']:.0f} MiB)"
                )
    print(f"JSON record: {result['json_path']}")


def _assertions(result: dict) -> None:
    sweep = result["worker_sweep"]
    for users, entry in sweep["populations"].items():
        assert entry["totals_identical"], (
            f"sharded playback diverged from serial playback at {users} users"
        )
    # The speedup target is physical: it only gates when the machine has at
    # least as many cores as the target worker count.
    if sweep["cpu_count"] >= WORKER_SPEEDUP_WORKERS:
        observed = sweep["populations"][WORKER_SPEEDUP_USERS]["speedups"][
            WORKER_SPEEDUP_WORKERS
        ]
        assert observed >= MIN_WORKER_SPEEDUP, (
            f"expected >= {MIN_WORKER_SPEEDUP}x sharded speedup at "
            f"{WORKER_SPEEDUP_USERS} users with {WORKER_SPEEDUP_WORKERS} "
            f"workers, got {observed:.2f}x"
        )


def bench_scale_population(benchmark):
    result = run_once(benchmark, scale_experiment)
    report(result)
    _assertions(result)


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        report(quick_experiment())
    else:
        result = scale_experiment()
        report(result)
        _assertions(result)
