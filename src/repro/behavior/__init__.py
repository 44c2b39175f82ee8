"""User behaviour substrate: preferences, watching duration and swiping.

The paper's core observation is that users' swiping behaviour (abandoning a
short video before it finishes) determines how much of each pre-cached video
is actually transmitted, and therefore how much radio and computing resource
a multicast group really needs.  This subpackage holds the behaviour models
the simulator's playback draws from and the estimators that read its
traces:

* :mod:`repro.behavior.preference` -- per-user category preference vectors
  and the population-wide engagement update (the "preference" UDT
  attribute).
* :mod:`repro.behavior.watching` -- the watch record, a group's watch
  records of one interval as one block of arrays, and the batched
  watching-duration sampler conditioned on how well a video matches each
  viewer's preference, which the interval engine's group task draws every
  watch from.
* :mod:`repro.behavior.swiping` -- the swipe-probability estimator over
  watch records.
"""

from repro.behavior.preference import (
    PreferenceVector,
    blend_engagement,
    cosine_similarity,
    random_preference,
)
from repro.behavior.watching import WatchingDurationModel, WatchRecord
from repro.behavior.swiping import SwipeProbabilityEstimator

__all__ = [
    "PreferenceVector",
    "SwipeProbabilityEstimator",
    "WatchRecord",
    "WatchingDurationModel",
    "blend_engagement",
    "cosine_similarity",
    "random_preference",
]
