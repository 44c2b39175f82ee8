"""Clustering substrate: K-means++, quality metrics and baseline groupers.

The paper's two-step multicast group construction uses K-means++ for the
actual clustering once a DDQN agent has chosen the number of groups.  This
subpackage provides that K-means++ implementation plus the cluster-quality
metrics the DDQN reward is built from, and the baseline grouping strategies
the evaluation compares against.
"""

from repro.cluster.kmeans import KMeansPlusPlus, KMeansResult, kmeans_plus_plus_init
from repro.cluster.metrics import (
    inertia,
    pairwise_euclidean,
    silhouette_score,
)
from repro.cluster.baselines import (
    AgglomerativeGrouper,
    FixedKGrouper,
    RandomGrouper,
    SingleGroupGrouper,
)

__all__ = [
    "AgglomerativeGrouper",
    "FixedKGrouper",
    "KMeansPlusPlus",
    "KMeansResult",
    "RandomGrouper",
    "SingleGroupGrouper",
    "inertia",
    "kmeans_plus_plus_init",
    "pairwise_euclidean",
    "silhouette_score",
]
