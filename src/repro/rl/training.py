"""Training loop utilities for the DDQN grouping-number selector."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.rl.ddqn import DDQNAgent
from repro.rl.env import Environment


@dataclass
class TrainingResult:
    """Per-episode returns and diagnostics collected by :func:`train_agent`."""

    episode_returns: List[float] = field(default_factory=list)
    episode_lengths: List[int] = field(default_factory=list)

    @property
    def num_episodes(self) -> int:
        return len(self.episode_returns)


#: Hard cap on episode length (protects against environments that never
#: emit ``done``).
MAX_STEPS_PER_EPISODE = 100


def train_agent(
    agent: DDQNAgent,
    env: Environment,
    episodes: int = 50,
    rng: Optional[np.random.Generator] = None,
) -> TrainingResult:
    """Train ``agent`` on ``env`` for a fixed number of episodes.

    Parameters
    ----------
    agent:
        The DDQN agent to train in-place.
    env:
        Any :class:`~repro.rl.env.Environment`; its ``state_dim`` and
        ``num_actions`` must match the agent's configuration.
    episodes:
        Number of episodes to run, each capped at
        :data:`MAX_STEPS_PER_EPISODE` steps.
    """
    if episodes <= 0:
        raise ValueError("episodes must be positive")
    if env.state_dim != agent.config.state_dim:
        raise ValueError(
            f"environment state_dim {env.state_dim} != agent state_dim {agent.config.state_dim}"
        )
    if env.num_actions != agent.config.num_actions:
        raise ValueError(
            f"environment num_actions {env.num_actions} != agent num_actions "
            f"{agent.config.num_actions}"
        )
    if rng is None:
        raise ValueError(
            "train_agent requires an explicit rng; derive one from the "
            "repro.sim.rng registry (e.g. legacy_stream(agent.config.seed) "
            "for the historical default)"
        )
    result = TrainingResult()
    for _ in range(episodes):
        state = env.reset(rng)
        episode_return = 0.0
        steps = 0
        for _ in range(MAX_STEPS_PER_EPISODE):
            action = agent.select_action(state)
            outcome = env.step(action)
            agent.observe(state, action, outcome.reward, outcome.state, outcome.done)
            episode_return += outcome.reward
            state = outcome.state
            steps += 1
            if outcome.done:
                break
        result.episode_returns.append(episode_return)
        result.episode_lengths.append(steps)
    return result
