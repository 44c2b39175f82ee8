"""Configuration of the DT-assisted prediction scheme."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: How the grouping number K is chosen (see ``MulticastGroupConstructor.construct``).
K_STRATEGIES = ("ddqn", "silhouette", "fixed")

#: The fewest feature steps the 1D-CNN compressor takes: its encoder halves
#: the window in each of its two ``MaxPool1D(2)`` layers.
MIN_FEATURE_STEPS = 4


@dataclass
class SchemeConfig:
    """Hyper-parameters of the end-to-end prediction scheme.

    The defaults are sized so the full pipeline (CNN training, DDQN
    training, per-interval prediction) runs in a few seconds in the test
    suite while still exercising every component the paper describes.
    Every field is reachable from a scenario spec (``SchemeSpec``, plus
    ``EngineSpec.feature_steps``).  The components' other hyper-parameters
    (compressed dimension, learning rate, DDQN layer sizes, K-means
    restarts, reward weights, swipe smoothing) keep the values their own
    modules set, and each prediction reads the last played interval.

    ``k_strategy`` picks the grouping number K; ``fixed_k`` pins it and is
    set exactly when the strategy is ``"fixed"``.
    """

    # 1D-CNN feature compression.
    feature_steps: int = 32
    cnn_epochs: int = 12

    # Two-step multicast group construction.
    min_groups: int = 2
    max_groups: int = 6
    ddqn_episodes: int = 25
    k_strategy: str = "ddqn"
    fixed_k: Optional[int] = None

    # Group-based demand prediction.
    mc_rollouts: int = 12

    # Warm-up before the scheme starts predicting.
    warmup_intervals: int = 2

    seed: int = 0

    def __post_init__(self) -> None:
        if self.feature_steps < MIN_FEATURE_STEPS:
            raise ValueError(
                f"feature_steps must be at least {MIN_FEATURE_STEPS} (the 1D-CNN pools "
                f"the window twice), got {self.feature_steps}"
            )
        if self.cnn_epochs <= 0:
            raise ValueError("cnn_epochs must be positive")
        if self.min_groups < 1 or self.max_groups < self.min_groups:
            raise ValueError("invalid group-number range")
        if self.k_strategy not in K_STRATEGIES:
            raise ValueError(
                f"k_strategy must be one of {', '.join(K_STRATEGIES)}, got {self.k_strategy!r}"
            )
        if (self.k_strategy == "fixed") != (self.fixed_k is not None):
            raise ValueError(
                "fixed_k is set exactly when k_strategy='fixed', got "
                f"k_strategy={self.k_strategy!r} and fixed_k={self.fixed_k!r}"
            )
        if self.fixed_k is not None and self.fixed_k < 1:
            raise ValueError(f"fixed_k must be at least 1, got {self.fixed_k}")
        if self.ddqn_episodes <= 0:
            raise ValueError("ddqn_episodes must be positive")
        if self.mc_rollouts <= 0:
            raise ValueError("mc_rollouts must be positive")
        if self.warmup_intervals <= 0:
            raise ValueError("warmup_intervals must be positive")
