"""Two-step multicast group construction (DDQN + K-means++).

Step one: a DDQN agent looks at permutation-invariant statistics of the
compressed user features and chooses the number of multicast groups ``K``
(trading intra-group similarity against per-group multicast-channel cost).
Step two: K-means++ partitions the users into those ``K`` groups.

The constructor also exposes fallback K-selection strategies (silhouette
sweep, fixed K) so the DDQN choice can be ablated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster import KMeansPlusPlus, pairwise_euclidean, silhouette_score
from repro.core.config import K_STRATEGIES
from repro.rl.ddqn import DDQNAgent, DDQNConfig
from repro.rl.env import (
    GroupingEnvConfig,
    SnapshotReplayEnvironment,
    STATE_DIM,
    grouping_state,
)
from repro.rl.training import TrainingResult, train_agent

#: K-means++ restarts of every grouping the constructor makes.  The DDQN's
#: training rewards cluster with ``GroupingEnvConfig.kmeans_restarts``.
KMEANS_RESTARTS = 3

#: Hidden-layer widths of the DDQN's Q-networks.
DDQN_HIDDEN_SIZES = (32, 32)


@dataclass
class GroupingResult:
    """A multicast grouping of a user population."""

    user_ids: List[int]
    labels: np.ndarray
    centroids: np.ndarray
    num_groups: int
    silhouette: float
    k_source: str = "ddqn"

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=int)
        if len(self.user_ids) != self.labels.shape[0]:
            raise ValueError("user_ids and labels must have the same length")

    def groups(self) -> Dict[int, List[int]]:
        """Mapping ``group_id -> member user ids``."""
        grouping: Dict[int, List[int]] = {}
        for user_id, label in zip(self.user_ids, self.labels):
            grouping.setdefault(int(label), []).append(user_id)
        return grouping

    def group_sizes(self) -> Dict[int, int]:
        return {gid: len(members) for gid, members in self.groups().items()}


class MulticastGroupConstructor:
    """Builds multicast groups from compressed user features."""

    def __init__(self, min_groups: int = 2, max_groups: int = 6, seed: int = 0) -> None:
        self.env_config = GroupingEnvConfig(min_groups=min_groups, max_groups=max_groups, seed=seed)
        self.seed = seed
        self.agent = DDQNAgent(
            DDQNConfig(
                state_dim=STATE_DIM,
                num_actions=self.env_config.num_actions,
                hidden_sizes=DDQN_HIDDEN_SIZES,
                min_replay_size=32,
                batch_size=32,
                seed=seed,
            )
        )
        self.trained = False
        # Imported lazily: repro.sim pulls in modules that import this one.
        from repro.sim.rng import legacy_stream

        self._rng = legacy_stream(seed)
        self._last_k = 0
        self._last_quality = 0.0

    # -------------------------------------------------------------- training
    def train(self, snapshots: Sequence[np.ndarray], episodes: int = 25) -> TrainingResult:
        """Train the DDQN grouping-number selector.

        ``snapshots`` are compressed-feature matrices observed in past
        reservation intervals (at least one); the episodes replay them.
        """
        env = SnapshotReplayEnvironment(snapshots=list(snapshots), config=self.env_config)
        result = train_agent(self.agent, env, episodes=episodes, rng=self._rng)
        self.trained = True
        return result

    # ----------------------------------------------------------- K selection
    def select_k_ddqn(self, features: np.ndarray) -> int:
        """Grouping number chosen by the (trained) DDQN agent."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        state = grouping_state(
            features, self._last_k, self._last_quality, self.env_config.max_groups
        )
        action = self.agent.select_action(state, greedy=True)
        k = self.env_config.action_to_k(action)
        return min(k, features.shape[0])

    def select_k_silhouette(self, features: np.ndarray, distances: np.ndarray) -> int:
        """Exhaustive silhouette sweep over the allowed K range (fallback/ablation).

        ``distances`` is ``pairwise_euclidean(features)``; every K's
        silhouette reads it.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        best_k = self.env_config.min_groups
        best_score = -np.inf
        for k in range(self.env_config.min_groups, self.env_config.max_groups + 1):
            if k > features.shape[0]:
                break
            if k == 1:
                score = 0.0
            else:
                result = KMeansPlusPlus(k, restarts=KMEANS_RESTARTS).fit(features, rng=self._rng)
                score = silhouette_score(features, result.labels, distances)
            cost = self.env_config.resource_weight * k / self.env_config.max_groups
            score = self.env_config.similarity_weight * score - cost
            if score > best_score:
                best_score = score
                best_k = k
        return best_k

    # ---------------------------------------------------------- construction
    def construct(
        self,
        features: np.ndarray,
        user_ids: Sequence[int],
        num_groups: Optional[int] = None,
        k_strategy: str = "ddqn",
    ) -> GroupingResult:
        """Cluster ``features`` (aligned with ``user_ids``) into multicast groups.

        ``k_strategy`` selects how the grouping number is chosen:
        ``"ddqn"`` (the paper's method), ``"silhouette"`` (sweep), or
        ``"fixed"`` (requires ``num_groups``).
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        user_ids = list(user_ids)
        if features.shape[0] != len(user_ids):
            raise ValueError("features and user_ids must have the same length")
        if k_strategy not in K_STRATEGIES:
            raise ValueError(f"k_strategy must be one of {', '.join(K_STRATEGIES)}")

        # One distance matrix per feature matrix: the sweep's silhouettes and
        # the final grouping's all read it.
        distances = pairwise_euclidean(features)
        if k_strategy == "fixed":
            if num_groups is None:
                raise ValueError("num_groups is required when k_strategy='fixed'")
            k = num_groups
        elif k_strategy == "silhouette":
            k = self.select_k_silhouette(features, distances)
        else:
            k = self.select_k_ddqn(features)
        k = int(min(max(k, 1), features.shape[0]))

        if k == 1:
            labels = np.zeros(features.shape[0], dtype=int)
            centroids = features.mean(axis=0, keepdims=True)
            quality = 0.0
        else:
            result = KMeansPlusPlus(k, restarts=KMEANS_RESTARTS).fit(features, rng=self._rng)
            labels = result.labels
            centroids = result.centroids
            quality = silhouette_score(features, labels, distances)

        self._last_k = k
        self._last_quality = quality
        return GroupingResult(
            user_ids=user_ids,
            labels=labels,
            centroids=centroids,
            num_groups=k,
            silhouette=float(quality),
            k_source=k_strategy,
        )
