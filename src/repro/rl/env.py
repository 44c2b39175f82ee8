"""Grouping environment for the DDQN grouping-number selector.

The paper's two-step multicast group construction first lets a double deep
Q-network choose *how many* multicast groups to form by "mining users'
similarities", and only then runs K-means++ with that number.  This module
casts the grouping-number choice as a small episodic reinforcement-learning
problem:

* **State** -- summary statistics of the compressed user-feature matrix
  (number of users, feature spread, mean/min/max pairwise distance and the
  quality of the previously chosen grouping).  The statistics are invariant
  to user ordering, so the same trained agent can be reused across
  reservation intervals with different user populations.
* **Action** -- an index selecting the number of groups ``K`` in
  ``[min_groups, max_groups]``.
* **Reward** -- a clustering-quality term (silhouette score of the K-means++
  partition) minus a resource-cost term that grows with ``K``.  More groups
  always improve intra-group similarity but each extra group costs an extra
  multicast channel, which is exactly the trade-off the paper's DDQN is
  meant to resolve.

The snapshot-only part of the state costs every pairwise distance
(computed in row blocks over the upper triangle, never as one ``(n, n, d)``
difference tensor) and the silhouette reward reads an ``(n, n)`` distance
matrix, so both are computed once per snapshot and read by every step on
it: once per draw in :class:`GroupingEnvironment`, once per snapshot index in
:class:`SnapshotReplayEnvironment`, whose episodes replay the same few
snapshots over and over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import KMeansPlusPlus, pairwise_euclidean, silhouette_score

#: Dimensionality of the state vector produced by :func:`grouping_state`.
STATE_DIM = 8

#: Bytes of pairwise differences :func:`_population_terms` holds at once,
#: sized to stay in cache.
_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class StepResult:
    """Outcome of a single environment step."""

    state: np.ndarray
    reward: float
    done: bool
    info: dict


class Environment:
    """Minimal episodic environment interface used by :func:`train_agent`."""

    #: Dimensionality of the observation vector.
    state_dim: int
    #: Number of discrete actions.
    num_actions: int

    def reset(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Start a new episode and return the initial state."""
        raise NotImplementedError

    def step(self, action: int) -> StepResult:
        """Apply ``action`` and return the resulting transition."""
        raise NotImplementedError


def grouping_state(
    features: np.ndarray,
    previous_k: int,
    previous_quality: float,
    max_groups: int,
) -> np.ndarray:
    """Build the permutation-invariant state vector for a feature snapshot.

    Parameters
    ----------
    features:
        Compressed user-feature matrix of shape ``(num_users, dim)``.
    previous_k:
        Grouping number chosen at the previous step (0 if none yet).
    previous_quality:
        Silhouette score obtained with ``previous_k`` (0 if none yet).
    max_groups:
        Upper bound of the action space, used for normalisation.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return _state(_population_terms(features), previous_k, previous_quality, max_groups)


def _population_terms(
    features: np.ndarray, block_rows: Optional[int] = None
) -> Optional[Tuple[float, ...]]:
    """The state entries that depend on the snapshot alone.

    Returns ``(num_users, spread, mean, min and max pairwise distance,
    dimension)`` for a ``(num_users, dim)`` float64 matrix, or ``None`` when
    it has no users.  The distances come ``block_rows`` rows at a time (by
    default, as many rows as ``_BLOCK_BYTES`` of differences against every
    user holds).  Block ``[lo, hi)`` differences its rows against columns
    ``lo + 1`` onwards only, and writes the upper triangle of that
    ``(rows, n - lo - 1, d)`` tensor, in row-major order, into one array of
    all ``n (n - 1) / 2`` distances: the same values, in the same order, as
    one ``(n, n, d)`` tensor gives, without ever holding it or the lower
    triangle.
    """
    num_users, dim = features.shape
    if num_users == 0:
        return None
    centred = features - features.mean(axis=0, keepdims=True)
    spread = float(np.sqrt((centred**2).sum(axis=1)).mean())
    if num_users > 1:
        if block_rows is None:
            block_rows = max(1, _BLOCK_BYTES // (8 * num_users * max(dim, 1)))
        columns = np.arange(num_users)
        upper = np.empty(num_users * (num_users - 1) // 2)
        filled = 0
        for lo in range(0, num_users - 1, block_rows):
            hi = min(lo + block_rows, num_users - 1)
            diffs = features[lo:hi, None, :] - features[None, lo + 1 :, :]
            distances = np.sqrt((diffs**2).sum(axis=-1))
            block = distances[columns[lo:hi, None] < columns[None, lo + 1 :]]
            upper[filled : filled + block.size] = block
            filled += block.size
        mean_dist = float(upper.mean())
        min_dist = float(upper.min())
        max_dist = float(upper.max())
    else:
        mean_dist = min_dist = max_dist = 0.0
    return num_users, spread, mean_dist, min_dist, max_dist, dim


def _state(
    terms: Optional[Tuple[float, ...]],
    previous_k: int,
    previous_quality: float,
    max_groups: int,
) -> np.ndarray:
    """The state vector from a snapshot's :func:`_population_terms` and the last step."""
    if terms is None:
        return np.zeros(STATE_DIM)
    num_users, spread, mean_dist, min_dist, max_dist, dim = terms
    return np.array(
        [
            num_users / 100.0,
            spread,
            mean_dist,
            min_dist,
            max_dist,
            previous_k / max(max_groups, 1),
            previous_quality,
            dim / 64.0,
        ],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class _Snapshot:
    """A feature snapshot with what every step on it reads, measured once."""

    features: np.ndarray
    terms: Optional[Tuple[float, ...]]
    distances: np.ndarray


def _measure(features: np.ndarray) -> _Snapshot:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return _Snapshot(features, _population_terms(features), pairwise_euclidean(features))


@dataclass
class GroupingEnvConfig:
    """Configuration of :class:`GroupingEnvironment`.

    ``reward = similarity_weight * silhouette(K) - resource_weight * K /
    max_groups``; ``invalid_penalty`` is returned instead when ``K`` exceeds
    the number of users in the snapshot.
    """

    min_groups: int = 2
    max_groups: int = 8
    similarity_weight: float = 1.0
    resource_weight: float = 0.35
    invalid_penalty: float = -1.0
    episode_length: int = 8
    kmeans_restarts: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_groups < 1:
            raise ValueError("min_groups must be at least 1")
        if self.max_groups < self.min_groups:
            raise ValueError("max_groups must be >= min_groups")
        if self.episode_length <= 0:
            raise ValueError("episode_length must be positive")

    @property
    def num_actions(self) -> int:
        return self.max_groups - self.min_groups + 1

    def action_to_k(self, action: int) -> int:
        """Map a discrete action index to a grouping number."""
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} outside [0, {self.num_actions})")
        return self.min_groups + action


FeatureProvider = Callable[[np.random.Generator], np.ndarray]


def _default_feature_provider(rng: np.random.Generator) -> np.ndarray:
    """Sample a synthetic snapshot of compressed user features.

    Users are drawn around a random number of latent "interest centres",
    which mirrors what the 1D-CNN compressor produces for a population with
    a handful of distinct viewing profiles.
    """
    num_centres = int(rng.integers(2, 6))
    users_per_centre = int(rng.integers(5, 15))
    dim = 8
    centres = rng.normal(0.0, 3.0, size=(num_centres, dim))
    samples = []
    for centre in centres:
        samples.append(centre + rng.normal(0.0, 0.5, size=(users_per_centre, dim)))
    return np.vstack(samples)


class GroupingEnvironment(Environment):
    """Episodic environment whose action is the number of multicast groups.

    Each episode presents ``episode_length`` user-feature snapshots (drawn
    from ``feature_provider``); at every step the agent picks ``K``, the
    environment clusters the snapshot with K-means++ and rewards the agent
    with clustering quality minus multicast-channel cost.
    """

    def __init__(
        self,
        config: Optional[GroupingEnvConfig] = None,
        feature_provider: Optional[FeatureProvider] = None,
    ) -> None:
        self.config = config if config is not None else GroupingEnvConfig()
        self.feature_provider = (
            feature_provider if feature_provider is not None else _default_feature_provider
        )
        self.state_dim = STATE_DIM
        self.num_actions = self.config.num_actions
        # Imported lazily: repro.sim pulls in modules that import this one.
        from repro.sim.rng import legacy_stream

        self._rng = legacy_stream(self.config.seed)
        self._step_index = 0
        self._snapshot: Optional[_Snapshot] = None
        self._previous_k = 0
        self._previous_quality = 0.0

    # ------------------------------------------------------------------ API
    def reset(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        if rng is not None:
            self._rng = rng
        self._step_index = 0
        self._previous_k = 0
        self._previous_quality = 0.0
        self._snapshot = self._draw()
        return self._current_state()

    def step(self, action: int) -> StepResult:
        if self._snapshot is None:
            raise RuntimeError("call reset() before step()")
        k = self.config.action_to_k(action)
        reward, quality = self._evaluate(self._snapshot, k)
        self._previous_k = k
        self._previous_quality = quality
        self._step_index += 1
        done = self._step_index >= self.config.episode_length
        if not done:
            self._snapshot = self._draw()
        state = self._current_state()
        return StepResult(state=state, reward=reward, done=done, info={"k": k, "quality": quality})

    # ------------------------------------------------------------ internals
    def _draw(self) -> _Snapshot:
        """The next snapshot: a fresh draw from ``feature_provider``, measured."""
        return _measure(self.feature_provider(self._rng))

    def _current_state(self) -> np.ndarray:
        assert self._snapshot is not None
        return _state(
            self._snapshot.terms, self._previous_k, self._previous_quality, self.config.max_groups
        )

    def _evaluate(self, snapshot: _Snapshot, k: int) -> tuple:
        """Return ``(reward, silhouette)`` for clustering ``snapshot`` into ``k`` groups."""
        features = snapshot.features
        if k > features.shape[0]:
            return self.config.invalid_penalty, 0.0
        if k == 1:
            quality = 0.0
        else:
            result = KMeansPlusPlus(k, restarts=self.config.kmeans_restarts).fit(
                features, rng=self._rng
            )
            quality = silhouette_score(features, result.labels, snapshot.distances)
        cost = k / max(self.config.max_groups, 1)
        reward = self.config.similarity_weight * quality - self.config.resource_weight * cost
        return float(reward), float(quality)


class SnapshotReplayEnvironment(GroupingEnvironment):
    """Grouping environment that replays a fixed list of feature snapshots.

    Useful for training the DDQN on the exact user populations observed by
    the digital-twin manager rather than on synthetic snapshots.  Steps
    cycle through ``snapshots`` in order instead of drawing from a feature
    provider; each snapshot is measured once, when the environment is
    built, and its measurement is kept by snapshot index.
    """

    def __init__(
        self,
        snapshots: Sequence[np.ndarray],
        config: Optional[GroupingEnvConfig] = None,
    ) -> None:
        if not len(snapshots):
            raise ValueError("snapshots must not be empty")
        super().__init__(config)
        self._measured = [_measure(snapshot) for snapshot in snapshots]
        self._cursor = 0

    def _draw(self) -> _Snapshot:
        snapshot = self._measured[self._cursor % len(self._measured)]
        self._cursor += 1
        return snapshot
