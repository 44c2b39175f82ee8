"""Unit tests for the video content substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.video import (
    DEFAULT_CATEGORIES,
    DEFAULT_LADDER,
    CatalogConfig,
    Representation,
    RepresentationLadder,
    VideoCatalog,
    ZipfPopularity,
    category_index,
    segment_sizes_bits,
    validate_category,
    zipf_weights,
)
from repro.video.popularity import category_popularity
from repro.video.segments import Segment, scale_segment_sizes


@pytest.fixture
def rng():
    return np.random.default_rng(9)


class TestCategories:
    def test_default_taxonomy_has_news_first_game_last(self):
        assert DEFAULT_CATEGORIES[0] == "News"
        assert DEFAULT_CATEGORIES[-1] == "Game"

    def test_validate_accepts_known(self):
        assert validate_category("Music") == "Music"

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_category("Opera")

    def test_category_index(self):
        assert category_index("News") == 0
        assert category_index("Game") == len(DEFAULT_CATEGORIES) - 1


class TestRepresentations:
    def test_default_ladder_sorted_by_bitrate(self):
        bitrates = [rep.bitrate_kbps for rep in DEFAULT_LADDER]
        assert bitrates == sorted(bitrates)

    def test_highest_and_lowest(self):
        assert DEFAULT_LADDER.lowest.name == "240p"
        assert DEFAULT_LADDER.highest.name == "1080p"

    def test_by_name(self):
        assert DEFAULT_LADDER.by_name("720p").height == 720
        with pytest.raises(KeyError):
            DEFAULT_LADDER.by_name("4K")

    def test_best_fitting_picks_highest_affordable(self):
        rep = DEFAULT_LADDER.best_fitting(3.0e6)
        assert rep.name == "720p"

    def test_best_fitting_falls_back_to_lowest(self):
        assert DEFAULT_LADDER.best_fitting(10.0).name == "240p"

    def test_best_fitting_rejects_negative(self):
        with pytest.raises(ValueError):
            DEFAULT_LADDER.best_fitting(-1.0)

    def test_lower_than(self):
        rep = DEFAULT_LADDER.by_name("480p")
        lower = DEFAULT_LADDER.lower_than(rep)
        assert [r.name for r in lower] == ["240p", "360p"]

    def test_bits_for_duration(self):
        rep = Representation(bitrate_kbps=1000.0, name="test")
        assert rep.bits_for_duration(2.0) == pytest.approx(2e6)

    def test_invalid_representation_rejected(self):
        with pytest.raises(ValueError):
            Representation(bitrate_kbps=0.0)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            RepresentationLadder([])


class TestSegments:
    def test_segment_sizes_positive_and_close_to_nominal(self, rng):
        rep = DEFAULT_LADDER.by_name("480p")
        sizes = segment_sizes_bits(rep, 200, rng=rng)
        nominal = rep.bitrate_kbps * 1e3
        assert sizes.shape == (200,)
        assert np.all(sizes > 0)
        assert abs(sizes.mean() - nominal) / nominal < 0.1

    def test_segment_sizes_invalid_args(self, rng):
        rep = DEFAULT_LADDER.lowest
        with pytest.raises(ValueError):
            segment_sizes_bits(rep, 0, rng=rng)
        with pytest.raises(ValueError):
            segment_sizes_bits(rep, 5, vbr_std_fraction=1.5, rng=rng)

    def test_scale_segment_sizes_preserves_shape_ratio(self, rng):
        source = DEFAULT_LADDER.by_name("1080p")
        target = DEFAULT_LADDER.by_name("360p")
        sizes = segment_sizes_bits(source, 10, rng=rng)
        scaled = scale_segment_sizes(sizes, source, target)
        ratio = target.bitrate_kbps / source.bitrate_kbps
        np.testing.assert_allclose(scaled, sizes * ratio)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Segment(video_id=0, index=-1, duration_s=1.0, size_bits=100.0)
        with pytest.raises(ValueError):
            Segment(video_id=0, index=0, duration_s=0.0, size_bits=100.0)
        with pytest.raises(ValueError):
            Segment(video_id=0, index=0, duration_s=1.0, size_bits=-1.0)


class TestCatalog:
    def test_generate_respects_config(self):
        catalog = VideoCatalog.generate(CatalogConfig(num_videos=15, seed=1))
        assert len(catalog) == 15
        assert all(video.category in DEFAULT_CATEGORIES for video in catalog)

    def test_every_video_has_all_representations(self, small_catalog):
        for video in small_catalog:
            assert set(video.segment_sizes.keys()) == set(DEFAULT_LADDER.names())

    def test_num_segments_matches_duration(self, small_catalog):
        for video in small_catalog:
            expected = int(np.ceil(video.duration_s / video.segment_duration_s))
            assert video.num_segments == expected
            assert len(video.sizes_for(DEFAULT_LADDER.lowest)) == expected

    def test_bits_watched_monotone_in_duration(self, small_catalog):
        video = next(iter(small_catalog))
        rep = DEFAULT_LADDER.by_name("480p")
        short = video.bits_watched(rep, 2.0)
        long = video.bits_watched(rep, video.duration_s)
        assert 0 < short <= long

    def test_bits_watched_caps_at_video_duration(self, small_catalog):
        video = next(iter(small_catalog))
        rep = DEFAULT_LADDER.lowest
        assert video.bits_watched(rep, 1e6) == video.bits_watched(rep, video.duration_s)

    def test_bits_watched_rejects_negative(self, small_catalog):
        video = next(iter(small_catalog))
        with pytest.raises(ValueError):
            video.bits_watched(DEFAULT_LADDER.lowest, -1.0)

    def test_get_unknown_video_raises(self, small_catalog):
        with pytest.raises(KeyError):
            small_catalog.get(10_000)

    def test_by_category_partition(self, small_catalog):
        total = sum(len(small_catalog.by_category(c)) for c in small_catalog.categories())
        assert total == len(small_catalog)

    def test_most_popular_ordering(self, small_catalog):
        top = small_catalog.most_popular(5)
        probs = small_catalog.popularity.probabilities()
        values = [probs[video.video_id] for video in top]
        assert values == sorted(values, reverse=True)

    def test_duplicate_ids_rejected(self, small_catalog):
        video = next(iter(small_catalog))
        with pytest.raises(ValueError):
            VideoCatalog([video, video])


class TestPopularity:
    def test_zipf_weights_normalised_and_decreasing(self):
        weights = zipf_weights(50, exponent=1.0)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) <= 0)

    def test_zipf_exponent_zero_is_uniform(self):
        weights = zipf_weights(10, exponent=0.0)
        np.testing.assert_allclose(weights, 0.1)

    def test_probabilities_sum_to_one(self):
        model = ZipfPopularity([3, 1, 2], exponent=1.2)
        assert sum(model.probabilities().values()) == pytest.approx(1.0)

    def test_top_returns_most_popular_first(self):
        model = ZipfPopularity([7, 8, 9])
        assert model.top(2) == [7, 8]

    def test_engagement_update_shifts_mass(self):
        model = ZipfPopularity([0, 1, 2], exponent=1.0, engagement_learning_rate=0.5)
        before = model.probability(2)
        model.update_from_engagement({2: 100.0})
        assert model.probability(2) > before
        assert sum(model.probabilities().values()) == pytest.approx(1.0)

    def test_engagement_update_ignores_empty(self):
        model = ZipfPopularity([0, 1, 2])
        before = model.probabilities()
        model.update_from_engagement({})
        assert model.probabilities() == before

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ZipfPopularity([1, 1, 2])

    def test_category_popularity_normalised(self, small_catalog):
        per_category = category_popularity(
            small_catalog.popularity.probabilities(),
            small_catalog.video_categories(),
            DEFAULT_CATEGORIES,
        )
        assert sum(per_category.values()) == pytest.approx(1.0)
