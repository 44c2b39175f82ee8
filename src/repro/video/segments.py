"""Per-segment variable-bitrate traces.

Short videos are delivered as a sequence of fixed-duration segments (1 s by
default).  Because encoders are variable-bitrate, each segment's size
fluctuates around the representation's nominal bitrate; the swiping
behaviour then determines *how many* of those segments are actually
transmitted, which is exactly what the resource-demand prediction needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.video.representations import Representation


@dataclass(frozen=True)
class Segment:
    """One media segment of a specific video and representation."""

    video_id: int
    index: int
    duration_s: float
    size_bits: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("segment index must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("segment duration must be positive")
        if self.size_bits < 0:
            raise ValueError("segment size must be non-negative")


def segment_sizes_bits(
    representation: Representation,
    num_segments: int,
    segment_duration_s: float = 1.0,
    vbr_std_fraction: float = 0.15,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample per-segment sizes (bits) around the representation's nominal bitrate.

    Sizes are drawn from a truncated normal distribution whose standard
    deviation is ``vbr_std_fraction`` of the nominal segment size, which is a
    reasonable stand-in for the VBR traces of the short-video-streaming
    challenge dataset.
    """
    if num_segments <= 0:
        raise ValueError("num_segments must be positive")
    if segment_duration_s <= 0:
        raise ValueError("segment_duration_s must be positive")
    if not 0.0 <= vbr_std_fraction < 1.0:
        raise ValueError("vbr_std_fraction must be in [0, 1)")
    if rng is None:
        raise ValueError(
            "segment_sizes_bits requires an explicit rng; derive one from "
            "the repro.sim.rng registry (e.g. legacy_stream(0) for the "
            "historical default)"
        )
    nominal = representation.bitrate_kbps * 1e3 * segment_duration_s
    sizes = rng.normal(nominal, vbr_std_fraction * nominal, size=num_segments)
    # A segment can never be smaller than a small fraction of the nominal size.
    return np.clip(sizes, 0.1 * nominal, None)


def scale_segment_sizes(
    sizes_bits: Sequence[float],
    source: Representation,
    target: Representation,
) -> np.ndarray:
    """Rescale a VBR trace from one representation to another.

    The relative per-segment complexity is preserved; only the nominal
    bitrate changes.  This mirrors how transcoded renditions inherit the
    scene complexity of the source encoding.
    """
    sizes = np.asarray(sizes_bits, dtype=np.float64)
    if np.any(sizes < 0):
        raise ValueError("segment sizes must be non-negative")
    ratio = target.bitrate_kbps / source.bitrate_kbps
    return sizes * ratio
