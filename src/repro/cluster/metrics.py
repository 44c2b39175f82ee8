"""Cluster-quality metrics.

These metrics feed two consumers:

* the DDQN reward, which trades off intra-group similarity (users in one
  multicast group should have similar channel conditions and preferences)
  against the number of groups (each group costs a separate multicast
  channel); and
* the evaluation harness, which compares grouping strategies.

:func:`silhouette_score` reads a pairwise distance matrix.  A caller that
scores several labelings of one snapshot (every K of a sweep, every DDQN
step on a replayed snapshot) computes :func:`pairwise_euclidean` once and
passes it as ``distances``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def pairwise_euclidean(points: np.ndarray) -> np.ndarray:
    """Full pairwise Euclidean distance matrix of shape ``(n, n)``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    squared = np.sum(points**2, axis=1)
    dist_sq = squared[:, None] + squared[None, :] - 2.0 * points @ points.T
    np.maximum(dist_sq, 0.0, out=dist_sq)
    return np.sqrt(dist_sq)


def inertia(points: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Within-cluster sum of squared distances to the assigned centroid."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    centroids = np.atleast_2d(np.asarray(centroids, dtype=np.float64))
    if labels.shape[0] != points.shape[0]:
        raise ValueError("labels and points must have the same length")
    return float(np.sum((points - centroids[labels]) ** 2))


def silhouette_score(
    points: np.ndarray, labels: np.ndarray, distances: Optional[np.ndarray] = None
) -> float:
    """Mean silhouette coefficient over all points.

    Returns 0.0 when there is a single cluster (the coefficient is undefined
    there); returns values in ``[-1, 1]`` otherwise.  Singleton clusters get
    a silhouette of 0 for their lone member, following scikit-learn.

    ``distances`` is the ``(n, n)`` matrix :func:`pairwise_euclidean`
    returns for ``points``.  It is computed here when omitted; a caller that
    scores several labelings of one snapshot computes it once and passes
    it, and gets the same float as if it had not.

    The score costs one gather and one row sum per cluster.  Each gather is
    copied to C order before the sum, so every row is summed as the
    contiguous 1-D slice ``distances[i, labels == c]`` would be (numpy's
    pairwise summation), which keeps the result exactly that of a per-point
    loop.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    unique, cluster_of, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if unique.shape[0] < 2:
        return 0.0
    if distances is None:
        distances = pairwise_euclidean(points)
    n = points.shape[0]
    if distances.shape != (n, n):
        raise ValueError(f"distances must have shape ({n}, {n}), got {distances.shape}")
    # sums[i, c]: summed distance from point i to the members of cluster c.
    sums = np.empty((n, unique.shape[0]), dtype=np.float64)
    for c in range(unique.shape[0]):
        sums[:, c] = np.ascontiguousarray(distances[:, cluster_of == c]).sum(axis=1)
    rows = np.arange(n)
    own_counts = counts[cluster_of]
    # Singletons divide by zero in a and zero denominators in the score; both
    # are masked to a score of 0 below.
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, cluster_of] / (own_counts - 1)
        means = sums / counts
        means[rows, cluster_of] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        scores = np.where((own_counts <= 1) | (denom == 0), 0.0, (b - a) / denom)
    return float(scores.mean())
