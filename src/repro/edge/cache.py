"""Edge video cache.

The cache stores videos at their highest representation (the only copy that
can be transcoded downwards).  Eviction is least-recently-used with an
optional popularity tiebreak, and capacity is expressed in bytes so cache
sizing can be reasoned about in storage terms.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.numeric import ordered_sum
from repro.video.catalog import Video


@dataclass
class CacheEntry:
    """One cached video (always at the highest representation)."""

    video_id: int
    size_bytes: float
    last_access_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests


def video_size_bytes(video: Video) -> float:
    """Storage size of a video at its highest representation."""
    return float(video.sizes_for(video.ladder.highest).sum() / 8.0)


class VideoCache:
    """LRU cache of highest-representation videos with a byte capacity."""

    def __init__(self, capacity_bytes: float) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------ accessors
    def __contains__(self, video_id: int) -> bool:
        return video_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> float:
        return float(ordered_sum(entry.size_bytes for entry in self._entries.values()))

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    # ------------------------------------------------------------ operations
    def access(self, video_id: int, time_s: float = 0.0) -> bool:
        """Record an access; returns True on hit, False on miss."""
        entry = self._entries.get(video_id)
        if entry is None:
            self.stats.misses += 1
            return False
        entry.last_access_time_s = time_s
        self._entries.move_to_end(video_id)
        self.stats.hits += 1
        return True

    def insert(self, video: Video, time_s: float = 0.0) -> bool:
        """Insert a video, evicting LRU entries as needed.

        Returns False when the video is larger than the whole cache and
        cannot be stored at all.
        """
        size = video_size_bytes(video)
        if size > self.capacity_bytes:
            return False
        if video.video_id in self._entries:
            self._entries[video.video_id].last_access_time_s = time_s
            self._entries.move_to_end(video.video_id)
            return True
        while self.used_bytes + size > self.capacity_bytes:
            self._evict_one()
        self._entries[video.video_id] = CacheEntry(
            video_id=video.video_id, size_bytes=size, last_access_time_s=time_s
        )
        return True

    def _evict_one(self) -> None:
        if not self._entries:
            raise RuntimeError("cache invariant violated: nothing to evict")
        self._entries.popitem(last=False)
        self.stats.evictions += 1

    def warm_with_popular(self, videos: Iterable[Video]) -> int:
        """Insert videos (given in popularity order) until the cache is full.

        Returns the number of videos actually cached.
        """
        cached = 0
        for video in videos:
            size = video_size_bytes(video)
            if size > self.free_bytes:
                continue
            if self.insert(video):
                cached += 1
        return cached
