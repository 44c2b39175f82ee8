"""Transcoding cost model.

Computing demand in the paper is the CPU load of transcoding the cached
highest-representation videos down to the representation each multicast
group can actually receive.  The cost model charges cycles proportionally to
the pixel rate of the *target* representation times the transcoded duration
— the standard first-order model for software transcoding load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.numeric import ordered_sum
from repro.video.catalog import Video
from repro.video.representations import Representation


@dataclass(frozen=True)
class TranscodingJob:
    """Transcode ``duration_s`` seconds of one video to a target representation."""

    video_id: int
    source: Representation
    target: Representation
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        if self.target.bitrate_kbps > self.source.bitrate_kbps:
            raise ValueError("can only transcode downwards (target above source representation)")


class TranscodingCostModel:
    """Cycles-per-pixel transcoding cost.

    ``cycles = cycles_per_pixel * target_pixel_rate * duration`` plus a
    fixed per-job overhead.  Transcoding to the source representation
    itself costs only the overhead (pass-through).  ``cycles_per_pixel``
    comes from an :class:`~repro.edge.server.EdgeServerConfig`, which
    checks it and holds its default.
    """

    #: Fixed cycles of every non-empty job; all a pass-through job costs.
    PER_JOB_OVERHEAD_CYCLES = 5e7

    def __init__(self, cycles_per_pixel: float) -> None:
        self.cycles_per_pixel = cycles_per_pixel

    def _transcode_cycles(self, source: Representation, target: Representation, duration_s: float) -> float:
        """The cost formula shared by :meth:`job_cycles` and :meth:`video_cycles`."""
        if duration_s == 0:
            return 0.0
        if target.name == source.name:
            return self.PER_JOB_OVERHEAD_CYCLES
        work = self.cycles_per_pixel * target.pixel_rate * duration_s
        return float(work + self.PER_JOB_OVERHEAD_CYCLES)

    def job_cycles(self, job: TranscodingJob) -> float:
        """CPU cycles needed for one transcoding job."""
        return self._transcode_cycles(job.source, job.target, job.duration_s)

    def video_cycles(
        self,
        video: Video,
        target: Representation,
        watched_duration_s: Optional[float] = None,
    ) -> float:
        """Cycles to transcode (the watched prefix of) ``video`` to ``target``.

        Skips constructing a :class:`TranscodingJob` per call (this sits on
        the hot path of both the simulator's edge accounting and the demand
        rollouts) but applies the same downward-transcode validation.
        """
        duration = video.duration_s if watched_duration_s is None else watched_duration_s
        duration = min(max(duration, 0.0), video.duration_s)
        source = video.ladder.highest
        if target.bitrate_kbps > source.bitrate_kbps:
            raise ValueError("can only transcode downwards (target above source representation)")
        return self._transcode_cycles(source, target, duration)

    def total_cycles(self, jobs: Iterable[TranscodingJob]) -> float:
        return float(ordered_sum(self.job_cycles(job) for job in jobs))
