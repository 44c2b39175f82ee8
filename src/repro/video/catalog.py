"""Video catalog: the set of short videos available at the edge.

The catalog generator produces a population of short videos with realistic
durations, category assignments, representation ladders and per-segment VBR
traces.  It is the stand-in for the content side of the public
short-video-streaming-challenge dataset the paper uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.video.categories import DEFAULT_CATEGORIES, validate_category
from repro.video.popularity import ZipfPopularity
from repro.video.representations import DEFAULT_LADDER, Representation, RepresentationLadder
from repro.video.segments import Segment, segment_sizes_bits


@dataclass
class Video:
    """A single short video and its per-segment bitrate traces.

    ``segment_sizes`` maps representation name to an array of per-segment
    sizes in bits (all representations share the same segment count).
    """

    video_id: int
    category: str
    duration_s: float
    segment_duration_s: float
    ladder: RepresentationLadder
    segment_sizes: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Memoized (representation name, segment count) -> prefix size in bits.
    _prefix_bits_cache: Dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.segment_duration_s <= 0:
            raise ValueError("segment_duration_s must be positive")

    @property
    def num_segments(self) -> int:
        return int(np.ceil(self.duration_s / self.segment_duration_s))

    def segments(self, representation: Representation) -> List[Segment]:
        """Materialise :class:`Segment` objects for one representation."""
        sizes = self.sizes_for(representation)
        return [
            Segment(
                video_id=self.video_id,
                index=i,
                duration_s=self.segment_duration_s,
                size_bits=float(size),
            )
            for i, size in enumerate(sizes)
        ]

    def sizes_for(self, representation: Representation) -> np.ndarray:
        """Per-segment sizes (bits) for ``representation``."""
        if representation.name not in self.segment_sizes:
            raise KeyError(
                f"video {self.video_id} has no trace for representation {representation.name!r}"
            )
        return self.segment_sizes[representation.name]

    def bits_watched(self, representation: Representation, watch_duration_s: float) -> float:
        """Total bits transmitted when a viewer watches ``watch_duration_s`` seconds.

        Segments are only counted while the viewer is still watching; the
        final partially-watched segment is still fully transmitted because
        segments are the delivery unit.
        """
        if watch_duration_s < 0:
            raise ValueError("watch_duration_s must be non-negative")
        watch_duration_s = min(watch_duration_s, self.duration_s)
        segments_needed = math.ceil(watch_duration_s / self.segment_duration_s)
        key = (representation.name, segments_needed)
        cached = self._prefix_bits_cache.get(key)
        if cached is None:
            sizes = self.sizes_for(representation)
            cached = float(sizes[:segments_needed].sum())
            self._prefix_bits_cache[key] = cached
        return cached


@dataclass
class CatalogConfig:
    """Configuration of the synthetic catalog generator."""

    num_videos: int = 200
    categories: Sequence[str] = DEFAULT_CATEGORIES
    min_duration_s: float = 10.0
    max_duration_s: float = 60.0
    segment_duration_s: float = 1.0
    zipf_exponent: float = 1.0
    vbr_std_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_videos <= 0:
            raise ValueError("num_videos must be positive")
        if self.min_duration_s <= 0 or self.max_duration_s < self.min_duration_s:
            raise ValueError("invalid duration range")
        if self.segment_duration_s <= 0:
            raise ValueError("segment_duration_s must be positive")
        if not self.categories:
            raise ValueError("categories must not be empty")


class VideoCatalog:
    """Collection of videos plus the popularity model over them."""

    def __init__(
        self,
        videos: Sequence[Video],
        popularity: Optional[ZipfPopularity] = None,
        zipf_exponent: float = 1.0,
    ) -> None:
        if not videos:
            raise ValueError("a catalog needs at least one video")
        self._videos: Dict[int, Video] = {}
        for video in videos:
            if video.video_id in self._videos:
                raise ValueError(f"duplicate video id {video.video_id}")
            self._videos[video.video_id] = video
        self.popularity = (
            popularity
            if popularity is not None
            else ZipfPopularity(list(self._videos.keys()), exponent=zipf_exponent)
        )
        self._sampling_cache: Optional[tuple] = None
        self._reference_ladder: Optional[RepresentationLadder] = None

    # ------------------------------------------------------------- sampling
    def sampling_arrays(self) -> tuple:
        """Cached per-video arrays for popularity/preference sampling.

        Returns ``(video_ids, normalized_popularity, category_indices,
        categories)`` where the first three are aligned per-video arrays and
        ``categories`` is the tuple the index array points into.  Rebuilding
        these from the Python-dict popularity model is only done when the
        model actually changed (tracked via its ``version`` counter), so the
        simulator and the demand predictor share one cache instead of rebuilding
        per group per interval.
        """
        version = getattr(self.popularity, "version", None)
        cache = self._sampling_cache
        if cache is not None and version is not None and cache[0] == version:
            return cache[1]
        video_id_list = self.video_ids()
        popularity = self.popularity.probabilities()
        pop = np.array([popularity.get(vid, 0.0) for vid in video_id_list])
        if pop.sum() > 0:
            pop = pop / pop.sum()
        categories: List[str] = []
        category_index: Dict[str, int] = {}
        indices = np.empty(len(video_id_list), dtype=np.intp)
        for row, vid in enumerate(video_id_list):
            category = self._videos[vid].category
            if category not in category_index:
                category_index[category] = len(categories)
                categories.append(category)
            indices[row] = category_index[category]
        arrays = (np.array(video_id_list), pop, indices, tuple(categories))
        self._sampling_cache = (version, arrays)
        return arrays

    def sampling_probabilities(self, preference, popularity_weight: float) -> np.ndarray:
        """Probability of serving each video, aligned with ``sampling_arrays()[0]``.

        The platform's recommender mixes normalized global popularity with
        normalized category preference: ``popularity_weight * popularity +
        (1 - popularity_weight) * preference``, renormalized (uniform if
        both are all zero).  ``preference`` is anything with a
        ``weight(category)`` method, such as a
        :class:`~repro.behavior.preference.PreferenceVector`.
        """
        video_ids, popularity, category_indices, categories = self.sampling_arrays()
        # One weight lookup per *category*, gathered out to per-video scores.
        weights = np.array([preference.weight(category) for category in categories])
        per_video = weights[category_indices]
        if per_video.sum() > 0:
            per_video = per_video / per_video.sum()
        mixture = popularity_weight * popularity + (1.0 - popularity_weight) * per_video
        total = mixture.sum()
        if total <= 0:
            return np.ones(video_ids.shape[0]) / video_ids.shape[0]
        return mixture / total

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return len(self._videos)

    def __iter__(self) -> Iterator[Video]:
        return iter(self._videos.values())

    def __contains__(self, video_id: int) -> bool:
        return video_id in self._videos

    def get(self, video_id: int) -> Video:
        if video_id not in self._videos:
            raise KeyError(f"unknown video id {video_id}")
        return self._videos[video_id]

    def video_ids(self) -> List[int]:
        return list(self._videos.keys())

    def reference_ladder(self) -> RepresentationLadder:
        """The single representation ladder shared by every catalog video.

        Callers that need "the" bitrate ladder (group link adaptation, demand
        prediction) must use this instead of peeking at an arbitrary video's
        ladder: on a heterogeneous catalog that lookup would silently pick
        whichever video happens to come first.  Raises :class:`ValueError`
        when the catalog's videos carry different ladders, because no single
        reference ladder exists then.
        """
        if self._reference_ladder is not None:
            return self._reference_ladder
        videos = iter(self._videos.values())
        ladder = next(videos).ladder
        for video in videos:
            other = video.ladder
            if other is ladder:
                continue
            if list(other) != list(ladder):
                raise ValueError(
                    "catalog is heterogeneous: video "
                    f"{video.video_id} uses ladder {other.names()} instead of "
                    f"{ladder.names()}; there is no single reference ladder"
                )
        self._reference_ladder = ladder
        return ladder

    def categories(self) -> List[str]:
        seen: List[str] = []
        for video in self._videos.values():
            if video.category not in seen:
                seen.append(video.category)
        return seen

    def by_category(self, category: str) -> List[Video]:
        validate_category(category, self.categories() or DEFAULT_CATEGORIES)
        return [video for video in self._videos.values() if video.category == category]

    def video_categories(self) -> Dict[int, str]:
        """Mapping ``video_id -> category``."""
        return {vid: video.category for vid, video in self._videos.items()}

    def most_popular(self, count: int) -> List[Video]:
        return [self.get(video_id) for video_id in self.popularity.top(count)]

    # ------------------------------------------------------------ generation
    @classmethod
    def generate(cls, config: Optional[CatalogConfig] = None) -> "VideoCatalog":
        """Generate a synthetic catalog according to ``config``."""
        config = config if config is not None else CatalogConfig()
        # Imported lazily: repro.sim imports the video package at load time.
        from repro.sim.rng import legacy_stream

        rng = legacy_stream(config.seed)
        ladder = DEFAULT_LADDER
        videos: List[Video] = []
        for video_id in range(config.num_videos):
            category = str(rng.choice(list(config.categories)))
            duration = float(rng.uniform(config.min_duration_s, config.max_duration_s))
            num_segments = int(np.ceil(duration / config.segment_duration_s))
            traces: Dict[str, np.ndarray] = {}
            for representation in ladder:
                traces[representation.name] = segment_sizes_bits(
                    representation,
                    num_segments,
                    segment_duration_s=config.segment_duration_s,
                    vbr_std_fraction=config.vbr_std_fraction,
                    rng=rng,
                )
            videos.append(
                Video(
                    video_id=video_id,
                    category=category,
                    duration_s=duration,
                    segment_duration_s=config.segment_duration_s,
                    ladder=ladder,
                    segment_sizes=traces,
                )
            )
        # Popularity rank is a random permutation so rank is independent of id.
        ranked_ids = [int(i) for i in rng.permutation(config.num_videos)]
        popularity = ZipfPopularity(ranked_ids, exponent=config.zipf_exponent)
        return cls(videos, popularity=popularity)
