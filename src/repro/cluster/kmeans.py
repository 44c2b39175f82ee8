"""K-means++ clustering.

User similarity in the paper is the Euclidean distance between (compressed)
user-status vectors; K-means++ is used to partition users into the number of
multicast groups chosen by the DDQN agent.  The implementation below follows
Arthur & Vassilvitskii (2007): D^2-weighted seeding followed by Lloyd
iterations, with an optional number of restarts keeping the lowest-inertia
solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.metrics import inertia


@dataclass
class KMeansResult:
    """Outcome of a K-means++ run."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float

    @property
    def num_clusters(self) -> int:
        return int(self.centroids.shape[0])


def kmeans_plus_plus_init(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """D^2-weighted seeding: return ``num_clusters`` initial centroids."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if num_clusters > n:
        raise ValueError(f"cannot seed {num_clusters} clusters from {n} points")
    centroids = np.empty((num_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for k in range(1, num_clusters):
        total = closest_sq.sum()
        if total <= 1e-15:
            # All remaining points coincide with an existing centroid; fall
            # back to uniform sampling so seeding still terminates.
            idx = int(rng.integers(n))
        else:
            probabilities = closest_sq / total
            idx = int(rng.choice(n, p=probabilities))
        centroids[k] = points[idx]
        dist_sq = np.sum((points - centroids[k]) ** 2, axis=1)
        closest_sq = np.minimum(closest_sq, dist_sq)
    return centroids


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Assign each point to its nearest centroid (squared Euclidean)."""
    distances = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return distances.argmin(axis=1)


class KMeansPlusPlus:
    """K-means with K-means++ seeding and multiple restarts.

    Parameters
    ----------
    num_clusters:
        Number of clusters ``K``.
    max_iterations:
        Maximum Lloyd iterations per restart.
    tolerance:
        Convergence threshold on the total centroid movement.
    restarts:
        Number of independent seedings; the lowest-inertia run wins.
    """

    def __init__(
        self,
        num_clusters: int,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        restarts: int = 3,
    ) -> None:
        if num_clusters <= 0:
            raise ValueError("num_clusters must be positive")
        if max_iterations <= 0 or restarts <= 0:
            raise ValueError("max_iterations and restarts must be positive")
        self.num_clusters = num_clusters
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.restarts = restarts

    def fit(self, points: np.ndarray, rng: Optional[np.random.Generator] = None) -> KMeansResult:
        """Cluster ``points`` (shape ``(n, d)``) and return the best result.

        ``rng`` is required: seeding draws from it, and a silent default
        would hide the caller's reproducibility contract.
        """
        if rng is None:
            raise ValueError(
                "KMeansPlusPlus.fit requires an explicit rng; derive one from "
                "the repro.sim.rng registry (e.g. legacy_stream(0) for the "
                "historical default)"
            )
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] < self.num_clusters:
            raise ValueError(
                f"cannot form {self.num_clusters} clusters from {points.shape[0]} points"
            )
        best: Optional[KMeansResult] = None
        for _ in range(self.restarts):
            result = self._single_run(points, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        return best

    def _single_run(self, points: np.ndarray, rng: np.random.Generator) -> KMeansResult:
        centroids = kmeans_plus_plus_init(points, self.num_clusters, rng)
        labels = _assign(points, centroids)
        for _ in range(self.max_iterations):
            new_centroids = centroids.copy()
            for k in range(self.num_clusters):
                members = points[labels == k]
                if members.shape[0] == 0:
                    # Re-seed empty clusters at the point farthest from its
                    # centroid, the standard remedy that keeps exactly K
                    # groups (the multicast scheduler requires all K groups
                    # to exist).
                    distances = np.sum((points - centroids[labels]) ** 2, axis=1)
                    new_centroids[k] = points[int(distances.argmax())]
                else:
                    new_centroids[k] = members.mean(axis=0)
            movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2)))
            centroids = new_centroids
            labels = _assign(points, centroids)
            if movement < self.tolerance:
                break
        return KMeansResult(
            labels=labels, centroids=centroids, inertia=inertia(points, labels, centroids)
        )
