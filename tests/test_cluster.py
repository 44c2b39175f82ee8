"""Unit tests for K-means++ and the cluster metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    KMeansPlusPlus,
    inertia,
    kmeans_plus_plus_init,
    pairwise_euclidean,
    silhouette_score,
)

from silhouette_reference import reference_silhouette


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.fixture
def three_blobs(rng):
    """Three well-separated Gaussian blobs (30 points, 2-D)."""
    centres = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.vstack([c + rng.normal(0, 0.4, size=(10, 2)) for c in centres])
    labels = np.repeat(np.arange(3), 10)
    return points, labels


class TestPairwiseAndInertia:
    def test_pairwise_symmetric_zero_diagonal(self, rng):
        points = rng.normal(size=(6, 3))
        distances = pairwise_euclidean(points)
        np.testing.assert_allclose(distances, distances.T)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-6)

    def test_pairwise_known_value(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = pairwise_euclidean(points)
        assert distances[0, 1] == pytest.approx(5.0)

    def test_inertia_zero_when_points_equal_centroids(self):
        points = np.array([[1.0, 1.0], [2.0, 2.0]])
        labels = np.array([0, 1])
        assert inertia(points, labels, points) == pytest.approx(0.0)

    def test_inertia_known_value(self):
        points = np.array([[0.0], [2.0]])
        labels = np.array([0, 0])
        centroids = np.array([[1.0]])
        assert inertia(points, labels, centroids) == pytest.approx(2.0)


class TestSilhouetteAndDaviesBouldin:
    def test_silhouette_high_for_separated_blobs(self, three_blobs):
        points, labels = three_blobs
        assert silhouette_score(points, labels) > 0.8

    def test_silhouette_lower_for_random_labels(self, three_blobs, rng):
        points, labels = three_blobs
        shuffled = rng.permutation(labels)
        assert silhouette_score(points, shuffled) < silhouette_score(points, labels)

    def test_silhouette_single_cluster_is_zero(self, three_blobs):
        points, _ = three_blobs
        assert silhouette_score(points, np.zeros(len(points), dtype=int)) == 0.0

    def test_silhouette_in_range(self, rng):
        points = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        score = silhouette_score(points, labels)
        assert -1.0 <= score <= 1.0


class TestSilhouetteMatchesReference:
    """The per-cluster silhouette is exactly the per-point definition."""

    @staticmethod
    def assert_exact(points, labels):
        expected = reference_silhouette(points, labels)
        assert silhouette_score(points, labels) == expected
        assert silhouette_score(points, labels, pairwise_euclidean(points)) == expected

    def test_random_cases_are_bit_identical(self):
        cases = np.random.default_rng(2024)
        for _ in range(400):
            n = int(cases.integers(2, 120))
            d = int(cases.integers(1, 12))
            k = int(cases.integers(1, min(n, 10) + 1))
            points = cases.normal(size=(n, d)) * cases.uniform(0.01, 20.0)
            labels = cases.integers(0, k, size=n)
            self.assert_exact(points, labels)

    def test_singleton_clusters(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [9.0, 0.0]])
        labels = np.array([0, 0, 1, 2])
        self.assert_exact(points, labels)
        # The two singletons score 0, so the mean is half the pair's score.
        assert 0.0 < silhouette_score(points, labels) < 0.5

    def test_single_cluster_is_zero(self):
        points = np.random.default_rng(1).normal(size=(7, 3))
        labels = np.full(7, 4)
        assert silhouette_score(points, labels) == 0.0
        assert silhouette_score(points, labels, pairwise_euclidean(points)) == 0.0

    def test_coincident_points_have_a_zero_denominator(self):
        labels = np.array([0, 0, 0, 1, 1, 1])
        points = np.ones((6, 3))
        self.assert_exact(points, labels)
        assert silhouette_score(points, labels) == 0.0
        # Rounding may leave these distances a hair above zero; still exact.
        self.assert_exact(np.tile([0.1, 0.7, 1.3], (6, 1)), labels)

    def test_labels_need_not_be_contiguous(self):
        cases = np.random.default_rng(9)
        points = cases.normal(size=(30, 4))
        labels = np.array([2, 7, 9])[cases.integers(0, 3, size=30)]
        self.assert_exact(points, labels)
        dense = np.searchsorted([2, 7, 9], labels)
        assert silhouette_score(points, labels) == silhouette_score(points, dense)

    def test_two_points(self):
        points = np.array([[0.0, 1.0], [2.0, 3.0]])
        self.assert_exact(points, np.array([0, 1]))
        self.assert_exact(points, np.array([3, 3]))

    def test_distances_must_match_the_points(self):
        points = np.random.default_rng(2).normal(size=(5, 2))
        with pytest.raises(ValueError, match="shape"):
            silhouette_score(points, np.array([0, 0, 1, 1, 1]), np.zeros((4, 4)))


class TestKMeansPlusPlus:
    def test_recovers_blobs(self, three_blobs, rng):
        points, labels = three_blobs
        result = KMeansPlusPlus(3, restarts=4).fit(points, rng=rng)
        assert result.num_clusters == 3
        # Every true blob should map to exactly one predicted cluster.
        for blob in range(3):
            blob_labels = result.labels[labels == blob]
            assert len(np.unique(blob_labels)) == 1

    def test_labels_cover_all_points(self, three_blobs, rng):
        points, _ = three_blobs
        result = KMeansPlusPlus(3).fit(points, rng=rng)
        assert result.labels.shape == (points.shape[0],)
        assert set(np.unique(result.labels)) <= {0, 1, 2}

    def test_inertia_decreases_with_more_clusters(self, three_blobs, rng):
        points, _ = three_blobs
        inertia_2 = KMeansPlusPlus(2, restarts=4).fit(points, rng=rng).inertia
        inertia_3 = KMeansPlusPlus(3, restarts=4).fit(points, rng=rng).inertia
        assert inertia_3 < inertia_2

    def test_too_few_points_raises(self, rng):
        with pytest.raises(ValueError):
            KMeansPlusPlus(5).fit(np.zeros((3, 2)), rng=rng)

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            KMeansPlusPlus(0)
        with pytest.raises(ValueError):
            KMeansPlusPlus(2, max_iterations=0)

    def test_seeding_returns_distinct_centroids_for_blobs(self, three_blobs, rng):
        points, _ = three_blobs
        centroids = kmeans_plus_plus_init(points, 3, rng)
        assert centroids.shape == (3, 2)
        distances = pairwise_euclidean(centroids)
        off_diagonal = distances[np.triu_indices(3, k=1)]
        assert np.all(off_diagonal > 1.0)

    def test_seeding_rejects_too_many_clusters(self, rng):
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(np.zeros((2, 2)), 3, rng)

    def test_deterministic_given_rng_seed(self, three_blobs):
        points, _ = three_blobs
        a = KMeansPlusPlus(3).fit(points, rng=np.random.default_rng(0))
        b = KMeansPlusPlus(3).fit(points, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_fit_requires_rng(self, three_blobs):
        points, _ = three_blobs
        with pytest.raises(ValueError, match="requires an explicit rng"):
            KMeansPlusPlus(3).fit(points)

    def test_single_cluster_is_the_population_mean(self, three_blobs, rng):
        points, _ = three_blobs
        result = KMeansPlusPlus(1).fit(points, rng=rng)
        np.testing.assert_array_equal(result.labels, 0)
        np.testing.assert_allclose(result.centroids, points.mean(axis=0, keepdims=True))

    def test_more_clusters_than_blobs_leaves_none_empty(self, three_blobs, rng):
        points, _ = three_blobs
        result = KMeansPlusPlus(4).fit(points, rng=rng)
        assert set(result.labels) == {0, 1, 2, 3}

    def test_result_is_a_lloyd_fixed_point(self, three_blobs, rng):
        points, _ = three_blobs
        result = KMeansPlusPlus(3).fit(points, rng=rng)
        for k in range(3):
            np.testing.assert_allclose(
                result.centroids[k], points[result.labels == k].mean(axis=0)
            )
        assert result.inertia == pytest.approx(
            inertia(points, result.labels, result.centroids)
        )
        assert silhouette_score(points, result.labels) > 0.8
