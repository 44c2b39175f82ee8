"""K-means++ clustering.

User similarity in the paper is the Euclidean distance between (compressed)
user-status vectors; K-means++ is used to partition users into the number of
multicast groups chosen by the DDQN agent.  The implementation below follows
Arthur & Vassilvitskii (2007): D^2-weighted seeding followed by Lloyd
iterations, with an optional number of restarts keeping the lowest-inertia
solution.

The restarts run as one batch and give the same floats as one restart at a
time.  :meth:`KMeansPlusPlus.fit` draws every restart's seeds first, in the
order one restart after another would (Lloyd's iterations draw nothing, so
the generator ends where it would), then runs Lloyd's iterations for all
restarts at once, each restart with its own stop:

* a squared distance is summed over the coordinates in the order
  ``np.sum(axis=-1)`` adds a row (see :func:`_sum_over_coordinates`);
* a centroid adds its cluster's members in point order starting from 0.0,
  one ``np.bincount`` per coordinate, as ``members.mean(axis=0)`` does.  For
  one-coordinate points numpy sums the ``(m, 1)`` gather pairwise instead,
  so there each cluster takes one contiguous sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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


def _sum_over_coordinates(terms: np.ndarray) -> np.ndarray:
    """Sum the non-negative ``terms`` (shape ``(d, ...)``) over their first axis.

    The terms are added in the order ``np.sum(axis=-1)`` adds a length-``d``
    row, numpy's pairwise summation: below 8 terms left to right; up to 128,
    eight running sums combined as ``((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))``,
    then the tail; above 128, the two halves split at a multiple of 8.
    """
    count = terms.shape[0]
    if count < 8:
        # A reduction over the leading axis adds its rows in order from 0.0.
        return terms.sum(axis=0)
    if count > 128:
        half = count // 2
        half -= half % 8
        return _sum_over_coordinates(terms[:half]) + _sum_over_coordinates(terms[half:])
    whole = count - count % 8
    lanes = terms[:8]
    if whole > 8:
        # Lane j adds terms j, j + 8, j + 16, ... in order.
        lanes = terms[:whole].reshape(whole // 8, 8, *terms.shape[1:]).sum(axis=0)
    pairs = lanes[0::2] + lanes[1::2]
    total = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for row in terms[whole:]:
        total += row
    return total


def _squared_distances(points_t: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(len(centroids), n)`` squared distances from each centroid to the points.

    ``points_t`` is the ``(d, n)`` transpose of the points.
    """
    terms = points_t[:, None, :] - centroids.T[:, :, None]
    np.square(terms, out=terms)
    return _sum_over_coordinates(terms)


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
    points_t = np.ascontiguousarray(points.T)
    centroids = np.empty((num_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest_sq = _squared_distances(points_t, centroids[:1])[0]
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
        dist_sq = _squared_distances(points_t, centroids[k : k + 1])[0]
        closest_sq = np.minimum(closest_sq, dist_sq)
    return centroids


def _nearest(points_t: np.ndarray, centroids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every restart's squared distances ``(R, K, n)`` and nearest centroids ``(R, n)``."""
    restarts, k, d = centroids.shape
    distances = _squared_distances(points_t, centroids.reshape(restarts * k, d))
    distances = distances.reshape(restarts, k, -1)
    return distances, distances.argmin(axis=1)


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
        restarts, k = self.restarts, self.num_clusters
        centroids = np.stack([kmeans_plus_plus_init(points, k, rng) for _ in range(restarts)])
        points_t = np.ascontiguousarray(points.T)
        # Every restart's copy of the points, for one weighted bincount per
        # coordinate over all restarts' clusters.
        tiled_t = np.tile(points_t, restarts)
        offsets = k * np.arange(restarts)[:, None]
        distances, labels = _nearest(points_t, centroids)
        active = np.ones(restarts, dtype=bool)
        for _ in range(self.max_iterations):
            slots = (labels + offsets).ravel()
            counts = np.bincount(slots, minlength=restarts * k)
            sums = np.zeros((restarts * k, points.shape[1]))
            if points.shape[1] == 1:
                for slot in np.flatnonzero(counts):
                    sums[slot, 0] = tiled_t[0, slots == slot].sum()
            else:
                for j, row in enumerate(tiled_t):
                    sums[:, j] = np.bincount(slots, weights=row, minlength=restarts * k)
            # An empty cluster's 0 / 1 is replaced below.
            new_centroids = sums / np.maximum(counts, 1)[:, None]
            empty = np.flatnonzero(counts == 0)
            if empty.size:
                # Re-seed empty clusters at the point farthest from its
                # centroid, the standard remedy that keeps exactly K groups
                # (the multicast scheduler requires all K groups to exist).
                own = np.take_along_axis(distances, labels[:, None, :], axis=1)[:, 0, :]
                new_centroids[empty] = points[own.argmax(axis=1)[empty // k]]
            new_centroids = new_centroids.reshape(centroids.shape)
            step = (new_centroids - centroids).reshape(restarts, -1)
            movement = np.sqrt(np.sum(step**2, axis=1))
            # A restart that has stopped keeps its centroids and labels.
            np.copyto(centroids, new_centroids, where=active[:, None, None])
            distances, labels = _nearest(points_t, centroids)
            active &= ~(movement < self.tolerance)
            if not active.any():
                break
        inertias = [inertia(points, labels[r], centroids[r]) for r in range(restarts)]
        # min keeps the first of equal inertias: a later restart wins only
        # with a strictly lower one.
        best = min(range(restarts), key=inertias.__getitem__)
        return KMeansResult(labels=labels[best], centroids=centroids[best], inertia=inertias[best])
