"""One-restart-at-a-time reference for :mod:`repro.cluster.kmeans`.

``KMeansPlusPlus.fit`` draws every restart's seeds first and then runs
Lloyd's iterations for all restarts as one batch.  This module is the
implementation it replaced: each restart seeds and iterates on its own, with
one masked ``mean`` per cluster and one ``(n, K, d)`` distance sum per
assignment.  The two must agree in every byte: labels, centroids, inertia and
the generator's state after the call.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import KMeansResult, inertia


def reference_init(points: np.ndarray, num_clusters: int, rng: np.random.Generator) -> np.ndarray:
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


def _single_run(
    points: np.ndarray,
    num_clusters: int,
    max_iterations: int,
    tolerance: float,
    rng: np.random.Generator,
) -> KMeansResult:
    centroids = reference_init(points, num_clusters, rng)
    labels = _assign(points, centroids)
    for _ in range(max_iterations):
        new_centroids = centroids.copy()
        for k in range(num_clusters):
            members = points[labels == k]
            if members.shape[0] == 0:
                distances = np.sum((points - centroids[labels]) ** 2, axis=1)
                new_centroids[k] = points[int(distances.argmax())]
            else:
                new_centroids[k] = members.mean(axis=0)
        movement = float(np.sqrt(np.sum((new_centroids - centroids) ** 2)))
        centroids = new_centroids
        labels = _assign(points, centroids)
        if movement < tolerance:
            break
    return KMeansResult(
        labels=labels, centroids=centroids, inertia=inertia(points, labels, centroids)
    )


def reference_fit(
    points: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    restarts: int = 3,
) -> KMeansResult:
    """Run ``restarts`` seedings one after another; the lowest inertia wins."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    best = None
    for _ in range(restarts):
        result = _single_run(points, num_clusters, max_iterations, tolerance, rng)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best
