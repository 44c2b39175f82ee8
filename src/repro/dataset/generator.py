"""Dataset generator: the simulator's own unicast playback, recorded.

:func:`generate_dataset` runs :class:`~repro.sim.simulator.StreamingSimulator`
with every user in a group of their own (the unicast baseline) and exports
what the simulation already holds: the video catalog with its per-segment
VBR traces, each user's preference row and each interval's watch records.
Each watch is therefore drawn by the same group task, from the same law, as
the watches the paper loop is scored against.
"""

from __future__ import annotations

from typing import List

from repro.behavior.watching import WatchRecord
from repro.dataset.schema import DatasetBundle, UserRecord, VideoRecord
from repro.sim.config import SimulationConfig
from repro.sim.simulator import StreamingSimulator, singleton_grouping


def check_num_intervals(num_intervals: int) -> None:
    """Raise ``ValueError`` unless a dataset can hold ``num_intervals`` intervals."""
    if num_intervals < 1:
        raise ValueError("num_intervals must be at least 1")


def generate_dataset(config: SimulationConfig, num_intervals: int) -> DatasetBundle:
    """Play ``num_intervals`` unicast intervals of ``config`` and export them.

    Users are exported with their preferences as drawn at set-up, videos in
    catalog order, and traces interval by interval, each interval's users
    in id order and each user's records in playback order.
    """
    check_num_intervals(num_intervals)
    with StreamingSimulator(config) as simulator:
        user_ids = simulator.user_ids()
        users = [
            UserRecord(
                user_id=user_id,
                preference={c: float(w) for c, w in zip(config.categories, row)},
            )
            for user_id, row in zip(user_ids, simulator.preference_weights(user_ids))
        ]
        videos = [
            VideoRecord(
                video_id=video.video_id,
                category=video.category,
                duration_s=video.duration_s,
                segment_duration_s=video.segment_duration_s,
                segment_sizes_bits={
                    name: sizes.tolist() for name, sizes in video.segment_sizes.items()
                },
            )
            for video in simulator.catalog
        ]
        grouping = singleton_grouping(user_ids)
        traces: List[WatchRecord] = []
        for _ in range(num_intervals):
            result = simulator.run_interval(grouping)
            for user_id in user_ids:
                traces.extend(result.events_by_user[user_id])

    metadata = {
        "interval_s": config.interval_s,
        "num_intervals": float(num_intervals),
        "seed": float(config.seed),
        "zipf_exponent": config.zipf_exponent,
    }
    return DatasetBundle(videos=videos, users=users, swipe_traces=traces, metadata=metadata)
