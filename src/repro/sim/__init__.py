"""Simulation substrate: clock, events and the streaming simulator.

The simulator is the ground truth the prediction scheme is evaluated
against.  Per reservation interval it:

1. moves users along their campus trajectories and samples their downlink
   SNR from the serving base station,
2. plays out multicast streaming for a given grouping (shared video stream
   per group, per-member watch durations, worst-member modulation),
3. performs the edge transcoding those streams require, and
4. pushes user status into the digital twins through the status collector.

The per-group radio (resource blocks) and computing (CPU cycles) usage it
records, in one :class:`IntervalResult` per interval, is what the
DT-assisted scheme must predict *before* the interval starts.
"""

from repro.sim.clock import SimulationClock
from repro.sim.events import Event, EventQueue
from repro.sim.config import SimulationConfig
from repro.sim.rng import RngRegistry, derive_seed_sequence, derive_stream
from repro.sim.simulator import (
    GroupIntervalUsage,
    IntervalResult,
    StreamingSimulator,
    UserState,
    round_robin_grouping,
    singleton_grouping,
)

__all__ = [
    "Event",
    "EventQueue",
    "GroupIntervalUsage",
    "IntervalResult",
    "RngRegistry",
    "SimulationClock",
    "SimulationConfig",
    "StreamingSimulator",
    "UserState",
    "derive_seed_sequence",
    "derive_stream",
    "round_robin_grouping",
    "singleton_grouping",
]
