"""Clustering substrate: K-means++ and cluster-quality metrics.

The paper's two-step multicast group construction uses K-means++ for the
actual clustering once a DDQN agent has chosen the number of groups.  This
subpackage provides that K-means++ implementation plus the cluster-quality
metrics the DDQN reward is built from.
"""

from repro.cluster.kmeans import KMeansPlusPlus, KMeansResult, kmeans_plus_plus_init
from repro.cluster.metrics import (
    inertia,
    pairwise_euclidean,
    silhouette_score,
)

__all__ = [
    "KMeansPlusPlus",
    "KMeansResult",
    "inertia",
    "kmeans_plus_plus_init",
    "pairwise_euclidean",
    "silhouette_score",
]
