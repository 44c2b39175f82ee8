"""Watching-duration model and the watch records it produces.

How long a user watches a short video before swiping away depends mainly on
how well the video matches the user's preferences.  The model below draws
the *watched fraction* of the video from a Beta distribution whose mean
increases with the preference weight of the video's category, with an extra
probability mass at "watched to the end" for well-matched videos.  That
yields the early-swipe-heavy, preference-skewed engagement traces the
prediction scheme needs.

A :class:`WatchRecord` is one viewing, the type every reader of watch
history gets.  The interval engine builds none: every member of a multicast
group watches every video of the group's stream, so a group's viewings of
one interval form a (members, videos) grid, and the group task returns them
as one :class:`WatchBlock` of arrays.  The block goes unchanged through the
worker pool, the status collector's drop mask, the simulator's preference
and popularity updates and the twin appends; records are built from it only
when someone reads them (:meth:`WatchBlock.records`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.video.catalog import Video

#: How far a watch duration may exceed its video's length (float slack).
_DURATION_SLACK_S = 1e-9


@dataclass(frozen=True)
class WatchRecord:
    """One completed viewing of a video by a user."""

    user_id: int
    video_id: int
    category: str
    watch_duration_s: float
    video_duration_s: float
    swiped: bool
    timestamp_s: float = 0.0

    def __post_init__(self) -> None:
        if self.watch_duration_s < 0 or self.video_duration_s <= 0:
            raise ValueError("durations must be positive")
        if self.watch_duration_s > self.video_duration_s + _DURATION_SLACK_S:
            raise ValueError("watch duration cannot exceed video duration")

    @property
    def watched_fraction(self) -> float:
        return self.watch_duration_s / self.video_duration_s


class WatchBlock(NamedTuple):
    """One multicast group's watch records of one interval, as columns.

    Every member watches every video of the group's stream, so row ``m`` of
    the ``(members, videos)`` arrays holds member ``member_ids[m]``'s
    records in playback order, and column ``v`` the stream's ``v``-th video,
    which started at ``start_times_s[v]``.  ``watch_durations_s`` is each
    viewing's duration capped at the interval end; ``swiped`` says whether
    the member's intended (uncapped) duration left the video before its
    end, so a watch cut short only by the interval boundary is no swipe.
    :meth:`check` applies :class:`WatchRecord`'s checks to every viewing at
    once, and :meth:`records` builds one member's records.
    """

    #: ``(members,)`` int64 user ids.
    member_ids: np.ndarray
    #: ``(videos,)`` int64 video ids, in playback order.
    video_ids: np.ndarray
    #: Each video's category.
    categories: Tuple[str, ...]
    #: ``(videos,)`` video lengths in seconds.
    video_durations_s: np.ndarray
    #: ``(videos,)`` the time each video started.
    start_times_s: np.ndarray
    #: ``(members, videos)`` float64 watch durations.
    watch_durations_s: np.ndarray
    #: ``(members, videos)`` bool swipe flags.
    swiped: np.ndarray

    @classmethod
    def from_records(cls, user_id: int, records: Sequence[WatchRecord]) -> "WatchBlock":
        """A one-member block holding ``records`` in their order.

        Raises ``ValueError`` if a record is not user ``user_id``'s.
        """
        for record in records:
            if record.user_id != user_id:
                raise ValueError(
                    f"watch record of user {record.user_id} pushed to UDT of user {user_id}"
                )
        return cls(
            member_ids=np.array([user_id], dtype=np.int64),
            video_ids=np.array([record.video_id for record in records], dtype=np.int64),
            categories=tuple(record.category for record in records),
            video_durations_s=np.array(
                [record.video_duration_s for record in records], dtype=np.float64
            ),
            start_times_s=np.array([record.timestamp_s for record in records], dtype=np.float64),
            watch_durations_s=np.array(
                [[record.watch_duration_s for record in records]], dtype=np.float64
            ),
            swiped=np.array([[record.swiped for record in records]], dtype=bool),
        )

    def check(self) -> None:
        """Raise ``ValueError`` unless every viewing passes :class:`WatchRecord`'s checks."""
        durations = self.watch_durations_s
        lengths = self.video_durations_s
        if (durations < 0).any() or (lengths <= 0).any():
            raise ValueError("durations must be positive")
        if (durations > lengths + _DURATION_SLACK_S).any():
            raise ValueError("watch duration cannot exceed video duration")

    def records(self, row: int, keep: Optional[np.ndarray] = None) -> List[WatchRecord]:
        """Member ``row``'s records in playback order, only ``keep``'s videos if given."""
        viewings: Iterable[tuple] = zip(
            self.video_ids.tolist(),
            self.categories,
            self.watch_durations_s[row].tolist(),
            self.video_durations_s.tolist(),
            self.swiped[row].tolist(),
            self.start_times_s.tolist(),
        )
        if keep is not None:
            viewings = compress(viewings, keep.tolist())
        user_id = int(self.member_ids[row])
        return [WatchRecord(user_id, *viewing) for viewing in viewings]


def video_engagement(blocks: Iterable[WatchBlock]) -> Dict[int, float]:
    """Total watch time per video id over ``blocks``, in first-appearance order.

    The blocks hold distinct members.  The records are visited user by user
    in ascending id, each user's in playback order, and each video's total
    adds its durations in that order starting from 0.0; the keys appear in
    the order their video is first met.  Both orders are those of a dict
    filled record by record from users' record lists keyed by ascending id,
    which :meth:`~repro.video.popularity.ZipfPopularity.update_from_engagement`
    totals in key order.
    """
    users: List[np.ndarray] = []
    videos: List[np.ndarray] = []
    durations: List[np.ndarray] = []
    for block in blocks:
        members, count = block.watch_durations_s.shape
        users.append(np.repeat(block.member_ids, count))
        videos.append(np.tile(block.video_ids, members))
        durations.append(block.watch_durations_s.ravel())
    if not users:
        return {}
    # A stable sort keeps each user's records in playback order.
    order = np.argsort(np.concatenate(users), kind="stable")
    ids, first, inverse = np.unique(
        np.concatenate(videos)[order], return_index=True, return_inverse=True
    )
    # bincount adds each bin's weights one by one, in input order.
    totals = np.bincount(inverse, weights=np.concatenate(durations)[order])
    appearance = np.argsort(first)
    return dict(zip(ids[appearance].tolist(), totals[appearance].tolist()))


class WatchingDurationModel:
    """Samples watch durations conditioned on user preference.

    Parameters
    ----------
    base_mean_fraction:
        Mean watched fraction for a completely indifferent user.
    preference_gain:
        How strongly the category preference weight shifts the mean
        watched fraction upwards.
    completion_probability_gain:
        Probability of watching to the very end grows with the preference
        weight at this rate.
    concentration:
        Beta-distribution concentration; higher values make durations less
        noisy around the mean.
    """

    #: Caps applied to the preference-driven means (single source of truth
    #: for both the public accessors and the inlined hot-path sampler).
    MAX_COMPLETION_PROBABILITY = 0.9
    MAX_MEAN_WATCHED_FRACTION = 0.95

    def __init__(
        self,
        base_mean_fraction: float = 0.25,
        preference_gain: float = 1.8,
        completion_probability_gain: float = 0.55,
        concentration: float = 4.0,
    ) -> None:
        if not 0.0 < base_mean_fraction < 1.0:
            raise ValueError("base_mean_fraction must be in (0, 1)")
        if preference_gain < 0 or completion_probability_gain < 0:
            raise ValueError("gains must be non-negative")
        if concentration <= 0:
            raise ValueError("concentration must be positive")
        self.base_mean_fraction = base_mean_fraction
        self.preference_gain = preference_gain
        self.completion_probability_gain = completion_probability_gain
        self.concentration = concentration

    def mean_watched_fraction(self, preference_weight: float) -> float:
        """Expected watched fraction for a given category preference weight."""
        if preference_weight < 0:
            raise ValueError("preference_weight must be non-negative")
        mean = self.base_mean_fraction * (1.0 + self.preference_gain * preference_weight)
        return float(min(mean, self.MAX_MEAN_WATCHED_FRACTION))

    def completion_probability(self, preference_weight: float) -> float:
        """Probability the user watches the video to the end."""
        return float(
            min(self.completion_probability_gain * preference_weight, self.MAX_COMPLETION_PROBABILITY)
        )

    def sample_watch_durations(
        self,
        video: Video,
        preference_weights: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample one watch duration per viewer in a single batched draw.

        ``preference_weights`` holds each viewer's preference weight for
        ``video``'s category.  A viewer watches to the end with probability
        :meth:`completion_probability`; otherwise the watched fraction is a
        Beta draw with mean :meth:`mean_watched_fraction`.  The draws are
        one ``random`` array and one ``beta`` array per call.
        """
        weights = np.asarray(preference_weights, dtype=np.float64)
        completion = np.minimum(
            self.completion_probability_gain * weights, self.MAX_COMPLETION_PROBABILITY
        )
        mean = np.minimum(
            self.base_mean_fraction * (1.0 + self.preference_gain * weights),
            self.MAX_MEAN_WATCHED_FRACTION,
        )
        alpha = mean * self.concentration
        beta = (1.0 - mean) * self.concentration
        completed = rng.random(weights.shape[0]) < completion
        fractions = rng.beta(alpha, beta)
        return np.where(completed, 1.0, fractions) * video.duration_s
