"""Whole-tensor reference for the grouping state's population terms.

:func:`repro.rl.env._population_terms` computes the pairwise distances in
row blocks, each differenced only against the columns after its first row,
and keeps the upper triangle.  This module is the function it replaced,
which builds one ``(n, n, d)`` difference tensor; the blocked function must
return the same tuple (``==``) for any block size.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def reference_population_terms(features: np.ndarray) -> Optional[Tuple[float, ...]]:
    """The state entries that depend on the snapshot alone.

    Returns ``(num_users, spread, mean, min and max pairwise distance,
    dimension)`` for a ``(num_users, dim)`` float64 matrix, or ``None`` when
    it has no users.  The distances come from one ``(n, n, d)`` difference
    tensor.
    """
    num_users = features.shape[0]
    if num_users == 0:
        return None
    centred = features - features.mean(axis=0, keepdims=True)
    spread = float(np.sqrt((centred**2).sum(axis=1)).mean())
    if num_users > 1:
        diffs = features[:, None, :] - features[None, :, :]
        distances = np.sqrt((diffs**2).sum(axis=-1))
        upper = distances[np.triu_indices(num_users, k=1)]
        mean_dist = float(upper.mean())
        min_dist = float(upper.min())
        max_dist = float(upper.max())
    else:
        mean_dist = min_dist = max_dist = 0.0
    return num_users, spread, mean_dist, min_dist, max_dist, features.shape[1]
