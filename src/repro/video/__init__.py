"""Short-video content substrate: categories, representations, catalog, popularity.

The edge server in the paper stores popular short videos at their highest
representation and transcodes them down on demand; the prediction scheme
consumes per-segment bitrates and per-category popularity.  This subpackage
provides those content models:

* :mod:`repro.video.categories` -- the video-category taxonomy (News,
  Sports, ... Game) used throughout preferences and swiping distributions.
* :mod:`repro.video.representations` -- the bitrate/resolution ladder a
  video can be transcoded into.
* :mod:`repro.video.segments` -- per-segment variable-bitrate traces.
* :mod:`repro.video.catalog` -- the video catalog generator.
* :mod:`repro.video.popularity` -- Zipf popularity and engagement-driven
  popularity updates.
"""

from repro.video.categories import (
    DEFAULT_CATEGORIES,
    VideoCategory,
    category_index,
    validate_category,
)
from repro.video.representations import (
    DEFAULT_LADDER,
    Representation,
    RepresentationLadder,
)
from repro.video.segments import Segment, segment_sizes_bits
from repro.video.catalog import CatalogConfig, Video, VideoCatalog
from repro.video.popularity import ZipfPopularity, zipf_weights

__all__ = [
    "CatalogConfig",
    "DEFAULT_CATEGORIES",
    "DEFAULT_LADDER",
    "Representation",
    "RepresentationLadder",
    "Segment",
    "Video",
    "VideoCatalog",
    "VideoCategory",
    "ZipfPopularity",
    "category_index",
    "segment_sizes_bits",
    "validate_category",
    "zipf_weights",
]
