"""Edge server: cache + transcoder + per-interval compute accounting.

The edge server receives, per reservation interval and per multicast group,
the list of videos that must be prepared at a given target representation
for a given (expected or actual) watched duration.  It answers with the CPU
cycles consumed and tracks cache hits/misses (a miss means the highest
representation must first be fetched from the remote CDN).  It keeps no
usage history: the caller records each interval's returned usage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.edge.cache import VideoCache
from repro.edge.transcoding import TranscodingCostModel
from repro.numeric import ordered_sum
from repro.video.catalog import Video, VideoCatalog
from repro.video.representations import Representation


@dataclass
class EdgeServerConfig:
    """Static parameters of the edge server."""

    cache_capacity_gbytes: float = 8.0
    cpu_capacity_cycles_per_s: float = 3.0e9 * 16  # 16 cores at 3 GHz
    cycles_per_pixel: float = 12.0

    def __post_init__(self) -> None:
        if self.cache_capacity_gbytes <= 0:
            raise ValueError("cache_capacity_gbytes must be positive")
        if self.cpu_capacity_cycles_per_s <= 0:
            raise ValueError("cpu_capacity_cycles_per_s must be positive")
        if self.cycles_per_pixel <= 0:
            raise ValueError("cycles_per_pixel must be positive")


@dataclass
class IntervalComputeUsage:
    """Computing usage of one reservation interval."""

    interval_index: int
    cycles_by_group: Dict[int, float] = field(default_factory=dict)
    cache_misses: int = 0

    @property
    def total_cycles(self) -> float:
        return float(ordered_sum(self.cycles_by_group.values()))

    def utilization(self, cpu_capacity_cycles_per_s: float, interval_s: float) -> float:
        """Fraction of the CPU budget the interval consumed."""
        if cpu_capacity_cycles_per_s <= 0 or interval_s <= 0:
            raise ValueError("capacity and interval must be positive")
        return self.total_cycles / (cpu_capacity_cycles_per_s * interval_s)


#: A transcoding request: (video, target representation, duration to prepare).
TranscodeRequest = Tuple[Video, Representation, float]


class EdgeServer:
    """Edge server performing cache lookups and transcoding for multicast groups.

    A cache miss is counted and the video inserted; fetching it costs no
    cycles, and no fetch delay is modelled.
    """

    def __init__(
        self,
        catalog: VideoCatalog,
        config: Optional[EdgeServerConfig] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config if config is not None else EdgeServerConfig()
        self.cache = VideoCache(self.config.cache_capacity_gbytes * 1e9)
        self.transcoder = TranscodingCostModel(cycles_per_pixel=self.config.cycles_per_pixel)

    # ------------------------------------------------------------- warm-up
    def warm_cache(self, top_videos: Optional[int] = None) -> int:
        """Pre-populate the cache with the most popular videos."""
        count = top_videos if top_videos is not None else len(self.catalog)
        popular = self.catalog.most_popular(min(count, len(self.catalog)))
        return self.cache.warm_with_popular(popular)

    # ------------------------------------------------------------ transcoding
    def process_interval(
        self,
        interval_index: int,
        group_requests: Mapping[int, Sequence[TranscodeRequest]],
        time_s: float = 0.0,
    ) -> IntervalComputeUsage:
        """Execute one interval's transcoding work and return its cost.

        ``group_requests`` maps group id to the list of (video, target
        representation, duration) tuples that must be prepared for that
        group.  Cache misses are counted and add no cycles (fetching is
        I/O); missed videos are inserted so later intervals hit.
        """
        usage = IntervalComputeUsage(interval_index=interval_index)
        for group_id, requests in group_requests.items():
            cycles = 0.0
            for video, target, duration_s in requests:
                if not self.cache.access(video.video_id, time_s=time_s):
                    usage.cache_misses += 1
                    self.cache.insert(video, time_s=time_s)
                cycles += self.transcoder.video_cycles(video, target, duration_s)
            usage.cycles_by_group[group_id] = cycles
        return usage
