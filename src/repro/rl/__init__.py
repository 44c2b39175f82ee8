"""Reinforcement-learning substrate: replay buffer, schedules and DDQN.

The paper selects the multicast grouping number with a double deep Q-network
(DDQN) before running K-means++.  This subpackage provides:

* :mod:`repro.rl.replay` -- uniform experience replay buffer.
* :mod:`repro.rl.policy` -- the linear epsilon-greedy exploration schedule.
* :mod:`repro.rl.ddqn` -- the DDQN agent (online + target Q-networks built
  on :mod:`repro.ml`; the online network always picks the next action and
  the target network values it).
* :mod:`repro.rl.env` -- the grouping environment whose action space is the
  number of multicast groups and whose reward trades off intra-group user
  similarity against the per-group multicast-channel cost.
"""

from repro.rl.ddqn import DDQNAgent, DDQNConfig
from repro.rl.env import (
    Environment,
    GroupingEnvConfig,
    GroupingEnvironment,
    SnapshotReplayEnvironment,
    StepResult,
    grouping_state,
)
from repro.rl.policy import LinearEpsilonDecay
from repro.rl.replay import ReplayBuffer, Transition
from repro.rl.training import TrainingResult, train_agent

__all__ = [
    "DDQNAgent",
    "DDQNConfig",
    "Environment",
    "GroupingEnvConfig",
    "GroupingEnvironment",
    "LinearEpsilonDecay",
    "ReplayBuffer",
    "SnapshotReplayEnvironment",
    "StepResult",
    "TrainingResult",
    "Transition",
    "grouping_state",
    "train_agent",
]
