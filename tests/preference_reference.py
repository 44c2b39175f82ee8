"""Per-user preference-update reference for the preference-table tests.

:func:`repro.behavior.preference.blend_engagement` updates a whole
population's preference table in one pass.  This module is the per-user
update it replaced: a dictionary of engagement seconds per category, filled
record by record, blended into the user's :class:`PreferenceVector`.  The
table must match it exactly, row by row.

The engagement total adds left to right with ``+`` rather than ``sum()``:
from Python 3.12 on, ``sum()`` over floats compensates its rounding, and
this reference must give the same bits on every supported Python.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.behavior.preference import PreferenceVector


def reference_engagement(records: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """Engagement seconds per category over ``(category, duration)`` records, in order."""
    engagement: Dict[str, float] = {}
    for category, duration in records:
        engagement[category] = engagement.get(category, 0.0) + duration
    return engagement


def reference_update(
    preference: PreferenceVector,
    categories: Sequence[str],
    engagement: Dict[str, float],
    learning_rate: float,
) -> PreferenceVector:
    """``preference`` after one window's engagement: ``(1 - lr) * p + lr * share``."""
    total = 0
    for seconds in engagement.values():
        total = total + max(seconds, 0.0)
    total = float(total)
    if total <= 0:
        return preference
    observed = np.array([max(engagement.get(c, 0.0), 0.0) / total for c in categories])
    current = preference.as_array(categories)
    blended = (1.0 - learning_rate) * current + learning_rate * observed
    return PreferenceVector(dict(zip(categories, blended)), categories=categories)
