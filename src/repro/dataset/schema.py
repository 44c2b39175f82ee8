"""Dataset schema.

The bundle mirrors the structure of the public short-video-streaming
challenge data: a table of videos (category, duration, per-segment bitrate
trace at each representation), a table of users (initial preference) and a
table of swipe traces (which user watched which video for how long).  Videos
and users are plain dataclasses with dictionary round-tripping; a swipe
trace is the simulator's own :class:`~repro.behavior.watching.WatchRecord`,
written under the file's trace keys, so the bundle serialises to JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.behavior.watching import WatchRecord


@dataclass
class VideoRecord:
    """One video in the dataset."""

    video_id: int
    category: str
    duration_s: float
    segment_duration_s: float
    segment_sizes_bits: Dict[str, List[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.segment_duration_s <= 0:
            raise ValueError("durations must be positive")

    def to_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "category": self.category,
            "duration_s": self.duration_s,
            "segment_duration_s": self.segment_duration_s,
            "segment_sizes_bits": {
                str(name): list(map(float, sizes))
                for name, sizes in self.segment_sizes_bits.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VideoRecord":
        return cls(
            video_id=int(data["video_id"]),
            category=str(data["category"]),
            duration_s=float(data["duration_s"]),
            segment_duration_s=float(data["segment_duration_s"]),
            segment_sizes_bits={
                str(name): [float(v) for v in sizes]
                for name, sizes in data.get("segment_sizes_bits", {}).items()
            },
        )


@dataclass
class UserRecord:
    """One user in the dataset (initial preference over categories)."""

    user_id: int
    preference: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "user_id": self.user_id,
            "preference": {str(k): float(v) for k, v in self.preference.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UserRecord":
        return cls(
            user_id=int(data["user_id"]),
            preference={str(k): float(v) for k, v in data.get("preference", {}).items()},
        )


def _trace_to_dict(record: WatchRecord) -> dict:
    """One watch record as a swipe-trace entry of the file, in the file's key order."""
    return {
        "user_id": record.user_id,
        "video_id": record.video_id,
        "category": record.category,
        "timestamp_s": record.timestamp_s,
        "watch_duration_s": record.watch_duration_s,
        "video_duration_s": record.video_duration_s,
        "swiped": record.swiped,
    }


def _trace_from_dict(data: dict) -> WatchRecord:
    """The watch record of one swipe-trace entry of the file."""
    return WatchRecord(
        user_id=int(data["user_id"]),
        video_id=int(data["video_id"]),
        category=str(data["category"]),
        timestamp_s=float(data["timestamp_s"]),
        watch_duration_s=float(data["watch_duration_s"]),
        video_duration_s=float(data["video_duration_s"]),
        swiped=bool(data["swiped"]),
    )


@dataclass
class DatasetBundle:
    """The full dataset: videos, users and swipe traces."""

    videos: List[VideoRecord] = field(default_factory=list)
    users: List[UserRecord] = field(default_factory=list)
    swipe_traces: List[WatchRecord] = field(default_factory=list)
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def num_videos(self) -> int:
        return len(self.videos)

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_traces(self) -> int:
        return len(self.swipe_traces)

    def categories(self) -> List[str]:
        seen: List[str] = []
        for video in self.videos:
            if video.category not in seen:
                seen.append(video.category)
        return seen

    def to_dict(self) -> dict:
        return {
            "videos": [video.to_dict() for video in self.videos],
            "users": [user.to_dict() for user in self.users],
            "swipe_traces": [_trace_to_dict(trace) for trace in self.swipe_traces],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetBundle":
        return cls(
            videos=[VideoRecord.from_dict(v) for v in data.get("videos", [])],
            users=[UserRecord.from_dict(u) for u in data.get("users", [])],
            swipe_traces=[_trace_from_dict(t) for t in data.get("swipe_traces", [])],
            metadata={str(k): float(v) for k, v in data.get("metadata", {}).items()},
        )
