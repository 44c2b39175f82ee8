"""Exploration schedule for epsilon-greedy action selection."""

from __future__ import annotations


class LinearEpsilonDecay:
    """Linear decay from ``start`` to ``end`` over ``decay_steps`` steps."""

    def __init__(self, start: float = 1.0, end: float = 0.05, decay_steps: int = 1000) -> None:
        if not 0.0 <= end <= start <= 1.0:
            raise ValueError("need 0 <= end <= start <= 1")
        if decay_steps <= 0:
            raise ValueError("decay_steps must be positive")
        self.start = float(start)
        self.end = float(end)
        self.decay_steps = int(decay_steps)

    def value(self, step: int) -> float:
        if step < 0:
            raise ValueError("step must be non-negative")
        fraction = min(1.0, step / self.decay_steps)
        return self.start + fraction * (self.end - self.start)
