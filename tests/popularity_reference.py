"""Per-record popularity-engagement reference for the watch-block tests.

:func:`repro.behavior.watching.video_engagement` totals an interval's watch
time per video from the interval's watch blocks.  This module is the loop
the simulator's popularity update ran before: a dictionary filled record by
record, users in the order of their keys (ascending id) and each user's
records in playback order.  The block path must match it in key order,
which :meth:`~repro.video.popularity.ZipfPopularity.update_from_engagement`
totals in, and in every bit of every value.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from repro.behavior.watching import WatchRecord


def reference_video_engagement(
    events_by_user: Mapping[int, Sequence[WatchRecord]],
) -> Dict[int, float]:
    """Watch seconds per video id, filled record by record in ``events_by_user`` order."""
    engagement: Dict[int, float] = {}
    for records in events_by_user.values():
        for record in records:
            engagement[record.video_id] = (
                engagement.get(record.video_id, 0.0) + record.watch_duration_s
            )
    return engagement
