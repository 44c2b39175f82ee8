"""Double deep Q-network (DDQN) agent.

The agent learns Q-values over a small discrete action space -- in the
reproduction the actions are candidate multicast grouping numbers
``K in {k_min, ..., k_max}`` -- from a continuous state summarising the
compressed user-status features of the current reservation interval.

Double Q-learning (van Hasselt et al., 2016) decouples action *selection*
(argmax over the online network) from action *evaluation* (target network),
which removes the overestimation bias of vanilla DQN; with the very small
action spaces used here that bias would otherwise make the agent latch onto
a single K early in training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.ml.layers import Dense, ReLU
from repro.ml.losses import HuberLoss
from repro.ml.network import Sequential
from repro.ml.optim import Adam
from repro.rl.policy import LinearEpsilonDecay
from repro.rl.replay import ReplayBuffer


@dataclass
class DDQNConfig:
    """Hyper-parameters of the DDQN agent."""

    state_dim: int
    num_actions: int
    hidden_sizes: Sequence[int] = (64, 64)
    learning_rate: float = 1e-3
    discount: float = 0.9
    batch_size: int = 32
    replay_capacity: int = 5000
    target_update_interval: int = 50
    min_replay_size: int = 64
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.state_dim <= 0 or self.num_actions <= 0:
            raise ValueError("state_dim and num_actions must be positive")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if self.batch_size <= 0 or self.replay_capacity <= 0:
            raise ValueError("batch_size and replay_capacity must be positive")
        if self.min_replay_size < self.batch_size:
            raise ValueError("min_replay_size must be at least batch_size")


def build_q_network(
    state_dim: int,
    num_actions: int,
    hidden_sizes: Sequence[int],
    rng: np.random.Generator,
) -> Sequential:
    """Build the MLP Q-network used for both online and target networks."""
    layers: List = []
    previous = state_dim
    for size in hidden_sizes:
        layers.append(Dense(previous, size, rng))
        layers.append(ReLU())
        previous = size
    layers.append(Dense(previous, num_actions, rng, weight_init="glorot"))
    return Sequential(layers)


@dataclass
class AgentDiagnostics:
    """Rolling training diagnostics exposed for the micro-benchmarks."""

    losses: List[float] = field(default_factory=list)
    target_updates: int = 0

    def recent_loss(self) -> float:
        """Mean training loss over the last 50 learning steps."""
        if not self.losses:
            return float("nan")
        return float(np.mean(self.losses[-50:]))


class DDQNAgent:
    """Double DQN agent with epsilon-greedy exploration and a target network."""

    def __init__(
        self,
        config: DDQNConfig,
        epsilon_schedule: Optional[LinearEpsilonDecay] = None,
    ) -> None:
        self.config = config
        # Imported lazily: repro.sim pulls in modules that import this one.
        from repro.sim.rng import legacy_stream

        self.rng = legacy_stream(config.seed)
        self.online = build_q_network(
            config.state_dim, config.num_actions, config.hidden_sizes, self.rng
        )
        self.target = build_q_network(
            config.state_dim, config.num_actions, config.hidden_sizes, self.rng
        )
        self.target.copy_weights_from(self.online)
        self.optimizer = Adam(self.online.parameters(), learning_rate=config.learning_rate)
        self.loss = HuberLoss()
        self.replay = ReplayBuffer(config.replay_capacity)
        self.epsilon_schedule = (
            epsilon_schedule if epsilon_schedule is not None else LinearEpsilonDecay()
        )
        self.steps = 0
        self.diagnostics = AgentDiagnostics()

    # ----------------------------------------------------------- act / store
    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q-value estimates for one state (shape ``(num_actions,)``)."""
        state = np.asarray(state, dtype=np.float64).reshape(1, -1)
        if state.shape[1] != self.config.state_dim:
            raise ValueError(
                f"expected state of dimension {self.config.state_dim}, got {state.shape[1]}"
            )
        return self.online.predict(state)[0]

    def select_action(self, state: np.ndarray, greedy: bool = False) -> int:
        """Epsilon-greedy action selection; set ``greedy=True`` for evaluation."""
        epsilon = 0.0 if greedy else self.epsilon_schedule.value(self.steps)
        if not greedy and self.rng.random() < epsilon:
            return int(self.rng.integers(self.config.num_actions))
        values = self.q_values(state)
        return int(values.argmax())

    def observe(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> Optional[float]:
        """Store a transition and run one learning step when enough data exists.

        Returns the training loss for this step, or ``None`` when learning
        was skipped because the replay buffer is still warming up.
        """
        if not 0 <= action < self.config.num_actions:
            raise ValueError(f"action {action} outside [0, {self.config.num_actions})")
        self.replay.push(state, action, reward, next_state, done)
        self.steps += 1
        if len(self.replay) < self.config.min_replay_size:
            return None
        loss_value = self._learn()
        if self.steps % self.config.target_update_interval == 0:
            self.target.copy_weights_from(self.online)
            self.diagnostics.target_updates += 1
        return loss_value

    # --------------------------------------------------------------- learning
    def _learn(self) -> float:
        batch = self.replay.sample(self.config.batch_size, rng=self.rng)
        q_online = self.online.forward(batch.states, training=True)

        # Double Q-learning: the online network picks the next action, the
        # target network values it.
        q_next_target = self.target.predict(batch.next_states)
        best_actions = self.online.predict(batch.next_states).argmax(axis=1)
        next_values = q_next_target[np.arange(len(batch)), best_actions]
        targets_for_actions = batch.rewards + self.config.discount * next_values * (
            ~batch.dones
        ).astype(np.float64)

        # Only the taken action's Q-value receives a learning signal.
        targets = q_online.copy()
        targets[np.arange(len(batch)), batch.actions] = targets_for_actions

        loss_value = self.loss.value(q_online, targets)
        grad = self.loss.gradient(q_online, targets)
        self.optimizer.zero_grad()
        self.online.backward(grad)
        self.optimizer.clip_gradients(self.config.grad_clip)
        self.optimizer.step()
        self.diagnostics.losses.append(loss_value)
        return loss_value
