"""Unit tests for the edge-server substrate."""

from __future__ import annotations

import pytest

from repro.edge import (
    EdgeServer,
    EdgeServerConfig,
    TranscodingCostModel,
    TranscodingJob,
    VideoCache,
)
from repro.edge.cache import video_size_bytes
from repro.video import DEFAULT_LADDER


class TestVideoCache:
    def test_insert_and_hit(self, small_catalog):
        cache = VideoCache(capacity_bytes=1e12)
        video = next(iter(small_catalog))
        assert not cache.access(video.video_id)
        assert cache.insert(video)
        assert cache.access(video.video_id)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_capacity_evicts_lru(self, small_catalog):
        videos = list(small_catalog)[:3]
        sizes = [video_size_bytes(v) for v in videos]
        capacity = sizes[0] + sizes[1] + 1.0
        cache = VideoCache(capacity_bytes=capacity)
        cache.insert(videos[0], time_s=0.0)
        cache.insert(videos[1], time_s=1.0)
        cache.access(videos[0].video_id, time_s=2.0)  # make video[1] the LRU entry
        cache.insert(videos[2], time_s=3.0)
        assert videos[0].video_id in cache or videos[2].video_id in cache
        assert cache.stats.evictions >= 1
        assert cache.used_bytes <= capacity

    def test_video_larger_than_cache_rejected(self, small_catalog):
        video = next(iter(small_catalog))
        cache = VideoCache(capacity_bytes=10.0)
        assert not cache.insert(video)

    def test_warm_with_popular(self, small_catalog):
        cache = VideoCache(capacity_bytes=1e12)
        cached = cache.warm_with_popular(small_catalog.most_popular(10))
        assert cached == 10
        assert len(cache) == 10

    def test_hit_ratio(self, small_catalog):
        cache = VideoCache(capacity_bytes=1e12)
        video = next(iter(small_catalog))
        cache.insert(video)
        cache.access(video.video_id)
        cache.access(12345)
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            VideoCache(capacity_bytes=0.0)

    def test_eviction_follows_strict_lru_order(self, small_catalog):
        # Two large videos fill the cache; the small third one displaces
        # exactly the least-recently-used of the two.
        videos = sorted(small_catalog, key=video_size_bytes, reverse=True)
        big_a, big_b, small = videos[0], videos[1], videos[-1]
        capacity = video_size_bytes(big_a) + video_size_bytes(big_b) + 1.0
        cache = VideoCache(capacity_bytes=capacity)
        cache.insert(big_a, time_s=0.0)
        cache.insert(big_b, time_s=1.0)
        cache.access(big_a.video_id, time_s=2.0)  # big_b is now the LRU entry
        cache.insert(small, time_s=3.0)
        assert big_a.video_id in cache
        assert big_b.video_id not in cache
        assert small.video_id in cache
        assert cache.stats.evictions == 1

    def test_reinsert_refreshes_recency(self, small_catalog):
        videos = sorted(small_catalog, key=video_size_bytes, reverse=True)
        big_a, big_b, small = videos[0], videos[1], videos[-1]
        capacity = video_size_bytes(big_a) + video_size_bytes(big_b) + 1.0
        cache = VideoCache(capacity_bytes=capacity)
        cache.insert(big_a, time_s=0.0)
        cache.insert(big_b, time_s=1.0)
        cache.insert(big_a, time_s=2.0)  # reinsert must refresh, not duplicate
        assert len(cache) == 2
        cache.insert(small, time_s=3.0)
        assert big_a.video_id in cache, "reinserted entry must be most recent"
        assert big_b.video_id not in cache

    def test_warm_skips_videos_larger_than_free_space(self, small_catalog):
        videos = sorted(small_catalog, key=video_size_bytes, reverse=True)
        # Room for the smallest video only: warming the popularity list must
        # skip the over-sized ones without evicting what is already cached.
        cache = VideoCache(capacity_bytes=video_size_bytes(videos[-1]) + 1.0)
        cached = cache.warm_with_popular(videos)
        assert cached == 1
        assert videos[-1].video_id in cache
        assert cache.stats.evictions == 0


def _model() -> TranscodingCostModel:
    return TranscodingCostModel(EdgeServerConfig().cycles_per_pixel)


class TestTranscoding:
    def test_job_cycles_scale_with_duration(self, small_catalog):
        model = _model()
        video = next(iter(small_catalog))
        target = DEFAULT_LADDER.by_name("480p")
        short = model.video_cycles(video, target, watched_duration_s=2.0)
        long = model.video_cycles(video, target, watched_duration_s=video.duration_s)
        assert long > short > 0

    def test_higher_target_costs_more(self, small_catalog):
        model = _model()
        video = next(iter(small_catalog))
        low = model.video_cycles(video, DEFAULT_LADDER.by_name("240p"))
        high = model.video_cycles(video, DEFAULT_LADDER.by_name("720p"))
        assert high > low

    def test_pass_through_costs_only_overhead(self, small_catalog):
        model = _model()
        video = next(iter(small_catalog))
        cycles = model.video_cycles(video, DEFAULT_LADDER.highest)
        assert cycles == TranscodingCostModel.PER_JOB_OVERHEAD_CYCLES
        transcoded = model.video_cycles(video, DEFAULT_LADDER.by_name("480p"))
        assert transcoded > TranscodingCostModel.PER_JOB_OVERHEAD_CYCLES

    def test_upscaling_rejected(self):
        low = DEFAULT_LADDER.by_name("240p")
        high = DEFAULT_LADDER.by_name("1080p")
        with pytest.raises(ValueError):
            TranscodingJob(video_id=0, source=low, target=high, duration_s=5.0)

    def test_zero_duration_costs_nothing(self):
        model = _model()
        job = TranscodingJob(
            video_id=0,
            source=DEFAULT_LADDER.highest,
            target=DEFAULT_LADDER.lowest,
            duration_s=0.0,
        )
        assert model.job_cycles(job) == 0.0

    def test_total_cycles_sums_jobs(self):
        model = _model()
        jobs = [
            TranscodingJob(0, DEFAULT_LADDER.highest, DEFAULT_LADDER.lowest, 5.0),
            TranscodingJob(1, DEFAULT_LADDER.highest, DEFAULT_LADDER.lowest, 5.0),
        ]
        assert model.total_cycles(jobs) == pytest.approx(2 * model.job_cycles(jobs[0]))

    def test_invalid_cost_model(self):
        """``cycles_per_pixel`` is checked where it lives, on the server config."""
        with pytest.raises(ValueError, match="cycles_per_pixel"):
            EdgeServerConfig(cycles_per_pixel=0.0)


class TestEdgeServer:
    def test_warm_cache_inserts_videos(self, small_catalog):
        server = EdgeServer(small_catalog, EdgeServerConfig(cache_capacity_gbytes=50.0))
        cached = server.warm_cache(top_videos=10)
        assert cached == 10

    def test_process_interval_accounts_cycles_per_group(self, small_catalog):
        server = EdgeServer(small_catalog)
        server.warm_cache()
        videos = list(small_catalog)[:4]
        target = DEFAULT_LADDER.by_name("360p")
        usage = server.process_interval(
            0,
            {
                0: [(videos[0], target, 5.0), (videos[1], target, 10.0)],
                1: [(videos[2], target, 5.0)],
            },
        )
        assert usage.cycles_by_group[0] > usage.cycles_by_group[1] > 0.0
        assert usage.total_cycles == pytest.approx(sum(usage.cycles_by_group.values()))
        assert usage.interval_index == 0

    def test_cache_miss_counted_and_filled(self, small_catalog):
        config = EdgeServerConfig(cache_capacity_gbytes=50.0)
        server = EdgeServer(small_catalog, config)
        video = next(iter(small_catalog))
        target = DEFAULT_LADDER.by_name("360p")
        usage = server.process_interval(0, {0: [(video, target, 5.0)]})
        assert usage.cache_misses == 1
        usage_second = server.process_interval(1, {0: [(video, target, 5.0)]})
        assert usage_second.cache_misses == 0

    def test_utilization_fraction(self, small_catalog):
        server = EdgeServer(small_catalog)
        video = next(iter(small_catalog))
        target = DEFAULT_LADDER.by_name("480p")
        usage = server.process_interval(0, {0: [(video, target, video.duration_s)]})
        fraction = usage.utilization(server.config.cpu_capacity_cycles_per_s, 300.0)
        assert 0.0 < fraction < 1.0
        assert fraction == pytest.approx(
            usage.total_cycles / (server.config.cpu_capacity_cycles_per_s * 300.0)
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            EdgeServerConfig(cache_capacity_gbytes=0.0)
        with pytest.raises(ValueError):
            EdgeServerConfig(cpu_capacity_cycles_per_s=-1.0)
