"""Watch records carried as blocks of arrays, from the group task to the twins.

The popularity update's input is held to the per-record dict loop it
replaced (:mod:`popularity_reference`), in key order and in every bit: over
every interval of a churned playback run and over generated blocks, whose
lossy keep masks go to the twins without touching what popularity reads.
"""

from __future__ import annotations

import dataclasses
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from popularity_reference import reference_video_engagement
from repro.behavior.watching import WatchBlock, WatchRecord, video_engagement
from repro.sim import SimulationConfig, StreamingSimulator
from repro.sim.simulator import round_robin_grouping
from repro.twin import DigitalTwinManager
from repro.twin.collector import CollectedStatus


def _items(engagement):
    """``engagement``'s items in order, each value by its bits."""
    return [(video_id, seconds.hex()) for video_id, seconds in engagement.items()]


def _events(blocks):
    """Each member's records by ascending user id, as the simulator keys them."""
    rows = sorted(
        ((uid, block, row) for block in blocks for row, uid in enumerate(block.member_ids)),
        key=lambda item: item[0],
    )
    return {int(uid): block.records(row) for uid, block, row in rows}


class TestWatchBlock:
    @staticmethod
    def _records():
        return [
            WatchRecord(3, 7, "News", 4.0, 10.0, swiped=True, timestamp_s=2.0),
            WatchRecord(3, 2, "Game", 12.0, 12.0, swiped=False, timestamp_s=8.0),
        ]

    def test_records_round_trip_through_a_one_member_block(self):
        records = self._records()
        block = WatchBlock.from_records(3, records)
        assert block.watch_durations_s.shape == block.swiped.shape == (1, 2)
        assert block.records(0) == records
        assert block.records(0, np.array([False, True])) == records[1:]
        # Python scalars, as the per-record playback loop built them.
        assert [type(value) for value in dataclasses.astuple(block.records(0)[0])] == [
            int, int, str, float, float, bool, float
        ]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("watch_durations_s", np.array([[4.0, -1.0]]), "durations must be positive"),
            ("video_durations_s", np.array([10.0, 0.0]), "durations must be positive"),
            ("watch_durations_s", np.array([[4.0, 12.5]]), "cannot exceed"),
        ],
    )
    def test_check_applies_the_record_checks_to_every_viewing(self, field, value, message):
        block = WatchBlock.from_records(3, self._records())
        block.check()
        bad = block._replace(**{field: value})
        with pytest.raises(ValueError, match=message):
            bad.check()
        with pytest.raises(ValueError, match=message):
            bad.records(0)


def _churned_run():
    """Every interval of a churned playback run: users join and leave between
    intervals, and groups of several members draw from a catalog small
    enough that groups share videos.  Round-robin dealing puts each group's
    members out of id order."""
    config = SimulationConfig(num_users=18, num_videos=12, interval_s=60.0, seed=5)
    results = []
    with StreamingSimulator(config) as sim:
        for step in range(5):
            if step in (1, 3):
                for _ in range(4):
                    sim.add_user()
            if step in (2, 3):
                for user_id in sim.user_ids()[1:12:3]:
                    sim.remove_user(user_id)
            results.append(sim.run_interval(round_robin_grouping(sim.user_ids(), 4)))
    return results


def test_engagement_of_a_churned_run_matches_the_per_record_loop():
    results = _churned_run()
    populations = [sorted(result.events_by_user) for result in results]
    assert any(set(a) - set(b) for a, b in zip(populations, populations[1:])), "no departure"
    assert any(set(b) - set(a) for a, b in zip(populations, populations[1:])), "no arrival"
    shared = False
    for result in results:
        video_sets = [set(block.video_ids.tolist()) for block in result.watch_blocks]
        shared |= len(set().union(*video_sets)) < sum(map(len, video_sets))
        assert list(result.events_by_user) == sorted(result.events_by_user)
        assert _items(video_engagement(result.watch_blocks)) == _items(
            reference_video_engagement(result.events_by_user)
        )
    assert shared, "no two groups of an interval played the same video"


@st.composite
def _lossy_blocks(draw):
    """Blocks of distinct members in no id order, drawn from a pool of six
    videos so blocks share videos, each with a keep mask of a lossy uplink."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    user_ids = draw(st.permutations(range(sum(sizes))))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lengths = rng.uniform(5.0, 60.0, 6)
    blocks, keeps = [], []
    first = 0
    for size in sizes:
        videos = draw(st.integers(min_value=1, max_value=5))
        video_ids = rng.integers(0, 6, videos)
        durations = rng.uniform(0.0, 1.0, (size, videos)) * lengths[video_ids]
        blocks.append(
            WatchBlock(
                member_ids=np.array(user_ids[first : first + size], dtype=np.int64),
                video_ids=video_ids,
                categories=tuple(("News", "Game", "Music")[v % 3] for v in video_ids.tolist()),
                video_durations_s=lengths[video_ids],
                start_times_s=np.cumsum(lengths[video_ids]) - lengths[video_ids],
                watch_durations_s=durations,
                swiped=durations < lengths[video_ids] - 1e-9,
            )
        )
        drop = draw(st.sampled_from([0.0, 0.3, 0.9]))
        keeps.append(rng.random((size, videos)) >= drop)
        first += size
    return blocks, keeps


@settings(max_examples=60, deadline=None)
@given(generated=_lossy_blocks())
def test_engagement_of_generated_blocks_matches_the_per_record_loop(generated):
    """Popularity reads every record; the twins keep only the kept ones."""
    blocks, keeps = generated
    events = _events(blocks)
    twins = DigitalTwinManager()
    twins.register_users(events)
    for block, kept in zip(blocks, keeps):
        twins.append_group(block.member_ids.tolist(), CollectedStatus({}, block, kept))
    assert _items(video_engagement(blocks)) == _items(reference_video_engagement(events))
    for block, kept in zip(blocks, keeps):
        for row, uid in enumerate(block.member_ids.tolist()):
            assert twins.twin(uid).watch_records() == list(compress(events[uid], kept[row]))
