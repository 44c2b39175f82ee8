"""User preference vectors over video categories.

A preference vector is a probability distribution over the category
taxonomy.  The paper updates preferences "based on preference labels and
engagement time"; :func:`blend_engagement` implements that update for a
whole population's preference table at once, as an exponential moving
average between each stored row and the user's observed engagement share
per category.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.video.categories import DEFAULT_CATEGORIES


class PreferenceVector:
    """A normalised preference distribution over categories."""

    def __init__(self, values: Mapping[str, float], categories: Optional[Sequence[str]] = None):
        self.categories = tuple(categories) if categories is not None else tuple(values.keys())
        if not self.categories:
            raise ValueError("preference vector needs at least one category")
        weights = np.array([max(float(values.get(c, 0.0)), 0.0) for c in self.categories])
        total = weights.sum()
        if total <= 0:
            weights = np.ones(len(self.categories))
            total = weights.sum()
        self._weights = weights / total
        self._index = {category: i for i, category in enumerate(self.categories)}

    # ------------------------------------------------------------ accessors
    def as_dict(self) -> Dict[str, float]:
        return {c: float(w) for c, w in zip(self.categories, self._weights)}

    def as_array(self, categories: Optional[Sequence[str]] = None) -> np.ndarray:
        """Preference weights ordered by ``categories`` (default: own order)."""
        if categories is None:
            return self._weights.copy()
        own = self.as_dict()
        return np.array([own.get(c, 0.0) for c in categories])

    def weight(self, category: str) -> float:
        row = self._index.get(category)
        return float(self._weights[row]) if row is not None else 0.0

    def favourite(self) -> str:
        """Category with the highest preference weight."""
        return self.categories[int(np.argmax(self._weights))]

    def least_favourite(self) -> str:
        return self.categories[int(np.argmin(self._weights))]

    def entropy(self) -> float:
        """Shannon entropy (nats) — low entropy means a very focused user."""
        weights = self._weights[self._weights > 0]
        return float(-(weights * np.log(weights)).sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceVector):
            return NotImplemented
        return self.categories == other.categories and np.allclose(
            self._weights, other._weights
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        pairs = ", ".join(f"{c}={w:.2f}" for c, w in self.as_dict().items())
        return f"PreferenceVector({pairs})"


def random_preference(
    rng: np.random.Generator,
    categories: Sequence[str] = DEFAULT_CATEGORIES,
    concentration: float = 0.7,
    favourite: Optional[str] = None,
    favourite_boost: float = 3.0,
) -> PreferenceVector:
    """Sample a preference vector from a Dirichlet distribution.

    ``concentration`` below one makes users focused on a few categories,
    which is what short-video engagement data looks like.  When
    ``favourite`` is given, that category's Dirichlet parameter is boosted so
    the user population can be biased (e.g. "group-1 users prefer News").
    """
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    alphas = np.full(len(categories), concentration)
    if favourite is not None:
        if favourite not in categories:
            raise ValueError(f"favourite {favourite!r} not in categories")
        alphas[list(categories).index(favourite)] *= favourite_boost
    weights = rng.dirichlet(alphas)
    return PreferenceVector(dict(zip(categories, weights)), categories=categories)


def cosine_similarity(a: PreferenceVector, b: PreferenceVector) -> float:
    """Cosine similarity between two preference vectors on a shared category set."""
    categories = tuple(dict.fromkeys(tuple(a.categories) + tuple(b.categories)))
    va = a.as_array(categories)
    vb = b.as_array(categories)
    denom = np.linalg.norm(va) * np.linalg.norm(vb)
    if denom == 0:
        return 0.0
    return float(np.dot(va, vb) / denom)


def blend_engagement(
    table: np.ndarray,
    rows: np.ndarray,
    categories: np.ndarray,
    durations: np.ndarray,
    learning_rate: float,
) -> None:
    """Blend each user's engagement share into their row of ``table``, in place.

    ``table`` holds one preference row per user, columns in category
    order.  Each watch record contributes its duration ``durations[k]`` to
    user row ``rows[k]`` and category column ``categories[k]``; each user's
    records come in playback order, and the users in any order (the
    simulator passes its watch blocks' arrays, group by group).  A row with
    engagement total ``T`` becomes ``p <- (1 - lr) * p + lr * e / T``,
    clamped at zero and renormalised.  Rows with no records or a zero
    total keep their values.

    The arithmetic runs in the order of a per-user dictionary update: each
    (user, category) engagement is summed over the user's records in
    playback order, and the total adds the categories left to right in the
    order they first appear in the user's records.
    """
    num_categories = table.shape[1]
    users, inverse = np.unique(rows, return_inverse=True)
    keys = inverse * num_categories + categories
    cells = users.shape[0] * num_categories
    engagement = np.maximum(
        np.bincount(keys, weights=durations, minlength=cells), 0.0
    ).reshape(users.shape[0], num_categories)
    # Each category's first record per user; categories with no record sort
    # last, where their zero engagement cannot change the total.
    present, first = np.unique(keys, return_index=True)
    first_seen = np.full(cells, keys.shape[0])
    first_seen[present] = first
    order = np.argsort(first_seen.reshape(engagement.shape), axis=1, kind="stable")
    by_appearance = np.take_along_axis(engagement, order, axis=1)
    total = by_appearance[:, 0].copy()
    for column in range(1, num_categories):
        total += by_appearance[:, column]
    update = ~(total <= 0.0)
    observed = engagement[update] / total[update, None]
    blended = np.maximum(
        (1.0 - learning_rate) * table[users[update]] + learning_rate * observed, 0.0
    )
    table[users[update]] = blended / blended.sum(axis=1)[:, None]
