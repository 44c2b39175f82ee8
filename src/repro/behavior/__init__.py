"""User behaviour substrate: preferences, watching duration, swiping, sessions.

The paper's core observation is that users' swiping behaviour (abandoning a
short video before it finishes) determines how much of each pre-cached video
is actually transmitted, and therefore how much radio and computing resource
a multicast group really needs.  This subpackage models the behaviour that
generates those traces:

* :mod:`repro.behavior.preference` -- per-user category preference vectors
  and the population-wide engagement update (the "preference" UDT
  attribute).
* :mod:`repro.behavior.watching` -- watching-duration model conditioned on
  how well a video matches the user's preference.
* :mod:`repro.behavior.swiping` -- swipe-probability distributions derived
  from watching durations.
* :mod:`repro.behavior.session` -- a session generator producing the
  per-user watch records the UDTs collect.
"""

from repro.behavior.preference import (
    PreferenceVector,
    blend_engagement,
    cosine_similarity,
    random_preference,
)
from repro.behavior.watching import WatchingDurationModel, WatchRecord
from repro.behavior.swiping import (
    SwipeProbabilityEstimator,
    empirical_swipe_distribution,
    swipe_probability_from_durations,
)
from repro.behavior.session import SessionConfig, SessionGenerator

__all__ = [
    "PreferenceVector",
    "SessionConfig",
    "SessionGenerator",
    "SwipeProbabilityEstimator",
    "WatchRecord",
    "WatchingDurationModel",
    "blend_engagement",
    "cosine_similarity",
    "empirical_swipe_distribution",
    "random_preference",
    "swipe_probability_from_durations",
]
