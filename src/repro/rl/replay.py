"""Experience replay buffer for DDQN training."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class Transition:
    """A single ``(s, a, r, s', done)`` tuple."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool


@dataclass
class TransitionBatch:
    """A column-oriented batch of transitions ready for vectorised training."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray

    def __len__(self) -> int:
        return int(self.states.shape[0])


class ReplayBuffer:
    """Fixed-capacity FIFO replay buffer with uniform sampling.

    The buffer stores :class:`Transition` objects and evicts the oldest one
    when full.  Sampling is uniform without replacement when the buffer holds
    at least ``batch_size`` transitions, matching the vanilla DDQN recipe.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._storage: List[Transition] = []
        self._next_index = 0

    def __len__(self) -> int:
        return len(self._storage)

    def push(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
    ) -> None:
        """Add a transition, evicting the oldest when at capacity."""
        transition = Transition(
            state=np.asarray(state, dtype=np.float64).copy(),
            action=int(action),
            reward=float(reward),
            next_state=np.asarray(next_state, dtype=np.float64).copy(),
            done=bool(done),
        )
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._next_index] = transition
        self._next_index = (self._next_index + 1) % self.capacity

    def sample(self, batch_size: int, rng: Optional[np.random.Generator] = None) -> TransitionBatch:
        """Sample a batch uniformly; raises if the buffer is too small.

        ``rng`` is required — sampling must draw from the caller's stream
        so replayed runs stay bit-identical.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(self._storage) < batch_size:
            raise ValueError(
                f"buffer holds {len(self._storage)} transitions; cannot sample {batch_size}"
            )
        if rng is None:
            raise ValueError(
                "sample() requires an explicit rng; pass np.random.default_rng(0) "
                "to reproduce the former implicit sampling stream"
            )
        indices = rng.choice(len(self._storage), size=batch_size, replace=False)
        chosen = [self._storage[i] for i in indices]
        return TransitionBatch(
            states=np.stack([t.state for t in chosen]),
            actions=np.array([t.action for t in chosen], dtype=int),
            rewards=np.array([t.reward for t in chosen], dtype=np.float64),
            next_states=np.stack([t.next_state for t in chosen]),
            dones=np.array([t.done for t in chosen], dtype=bool),
        )
