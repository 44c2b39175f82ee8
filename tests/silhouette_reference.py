"""Per-point silhouette reference for the cluster-metric tests.

:func:`repro.cluster.silhouette_score` computes the score one cluster at a
time over whole arrays; this module is the direct per-point definition it
must match exactly.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import pairwise_euclidean


def reference_silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient, one point at a time."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    unique = np.unique(labels)
    if unique.shape[0] < 2:
        return 0.0
    distances = pairwise_euclidean(points)
    n = points.shape[0]
    scores = np.zeros(n, dtype=np.float64)
    for i in range(n):
        own = labels[i]
        own_mask = labels == own
        own_count = int(own_mask.sum())
        if own_count <= 1:
            scores[i] = 0.0
            continue
        a = distances[i, own_mask].sum() / (own_count - 1)
        b = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = labels == other
            b = min(b, float(distances[i, other_mask].mean()))
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())
