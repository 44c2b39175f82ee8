"""Synthetic stand-in for the public short-video-streaming-challenge dataset.

The paper generates "video bitrates and users' swiping behaviors" from the
public short-video-streaming-challenge dataset, which is not redistributable
here.  This subpackage records the simulator's own unicast playback in the
same schema: the video catalog with heavy-tailed popularity and per-segment
VBR bitrate traces, each user's preference, and every watch the user made
(:func:`generate_dataset`), plus a JSON loader/saver and train/test
splitting so experiments are repeatable.
"""

from repro.dataset.schema import DatasetBundle, UserRecord, VideoRecord
from repro.dataset.generator import check_num_intervals, generate_dataset
from repro.dataset.loader import load_dataset, save_dataset, train_test_split

__all__ = [
    "DatasetBundle",
    "UserRecord",
    "VideoRecord",
    "check_num_intervals",
    "generate_dataset",
    "load_dataset",
    "save_dataset",
    "train_test_split",
]
