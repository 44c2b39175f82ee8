"""A fleet of edge servers with per-group routing.

:class:`EdgeFleet` generalises the single hard-wired
:class:`~repro.edge.server.EdgeServer` to N servers: each interval's
per-group transcode requests are routed to the assigned server (server 0
for every group when no assignment is given — bit-identical to the
historical single-server path).  The fleet keeps no usage history: each
interval's :class:`FleetComputeUsage` is returned to the caller, which
derives the per-server utilization it records.

Routing preserves each server's request iteration order (insertion order
of the incoming mapping), so a one-server fleet walks the cache exactly
like the old direct ``EdgeServer.process_interval`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.edge.cache import video_size_bytes
from repro.edge.server import (
    EdgeServer,
    EdgeServerConfig,
    IntervalComputeUsage,
    TranscodeRequest,
)
from repro.numeric import ordered_sum
from repro.video.catalog import VideoCatalog


@dataclass
class FleetComputeUsage:
    """Fleet-wide computing usage of one reservation interval."""

    interval_index: int
    usage_by_server: Dict[int, IntervalComputeUsage] = field(default_factory=dict)
    server_of_group: Dict[int, int] = field(default_factory=dict)
    #: Distinct-video cache working set each group touched this interval.
    cache_bytes_by_group: Dict[int, float] = field(default_factory=dict)

    @property
    def cycles_by_group(self) -> Dict[int, float]:
        merged: Dict[int, float] = {}
        for usage in self.usage_by_server.values():
            merged.update(usage.cycles_by_group)
        return merged

    @property
    def total_cycles(self) -> float:
        return float(ordered_sum(u.total_cycles for u in self.usage_by_server.values()))

    @property
    def cache_misses(self) -> int:
        return int(sum(u.cache_misses for u in self.usage_by_server.values()))

    def cycles_by_server(self) -> Dict[int, float]:
        return {
            server: usage.total_cycles
            for server, usage in self.usage_by_server.items()
        }


class EdgeFleet:
    """N edge servers behind one per-interval routing front."""

    def __init__(
        self,
        catalog: VideoCatalog,
        configs: Sequence[EdgeServerConfig],
    ) -> None:
        if not configs:
            raise ValueError("fleet needs at least one server")
        self.catalog = catalog
        self.servers: List[EdgeServer] = [
            EdgeServer(catalog, config) for config in configs
        ]

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    # ------------------------------------------------------------- warm-up
    def warm_caches(self) -> int:
        """Warm every server's cache with the most popular videos."""
        return sum(server.warm_cache() for server in self.servers)

    # ---------------------------------------------------------- processing
    def process_interval(
        self,
        interval_index: int,
        group_requests: Mapping[int, Sequence[TranscodeRequest]],
        assignment: Optional[Mapping[int, int]] = None,
        time_s: float = 0.0,
    ) -> FleetComputeUsage:
        """Route each group's requests to its assigned server and run them.

        ``assignment`` maps group id → server index; unassigned groups (and
        every group when ``assignment`` is ``None``) run on server 0, the
        historical single-server behaviour.
        """
        assignment = assignment or {}
        routed: Dict[int, Dict[int, Sequence[TranscodeRequest]]] = {
            server: {} for server in range(self.num_servers)
        }
        server_of_group: Dict[int, int] = {}
        for group_id, requests in group_requests.items():
            server = int(assignment.get(group_id, 0)) % self.num_servers
            routed[server][group_id] = requests
            server_of_group[group_id] = server
        usage = FleetComputeUsage(
            interval_index=interval_index, server_of_group=server_of_group
        )
        for server_index, server in enumerate(self.servers):
            usage.usage_by_server[server_index] = server.process_interval(
                interval_index, routed[server_index], time_s=time_s
            )
        for group_id, requests in group_requests.items():
            seen: Dict[int, float] = {}
            for video, _target, _duration in requests:
                seen.setdefault(video.video_id, video_size_bytes(video))
            usage.cache_bytes_by_group[group_id] = float(ordered_sum(seen.values()))
        return usage

    # ------------------------------------------------------------ reporting
    def cache_utilization_by_server(self) -> Dict[int, float]:
        """Current cache fill fraction per server."""
        return {
            index: float(server.cache.used_bytes / server.cache.capacity_bytes)
            for index, server in enumerate(self.servers)
        }

    def cache_stats(self) -> Dict[str, float]:
        """Aggregated cache counters over the whole fleet."""
        hits = sum(server.cache.stats.hits for server in self.servers)
        misses = sum(server.cache.stats.misses for server in self.servers)
        evictions = sum(server.cache.stats.evictions for server in self.servers)
        requests = hits + misses
        return {
            "hits": int(hits),
            "misses": int(misses),
            "evictions": int(evictions),
            "hit_ratio": float(hits / requests) if requests else 0.0,
        }
