"""SeedSequence-derived random stream registry.

The simulator historically drew *everything* — population setup, churn,
channel fading, watch durations, twin collection — from one shared
``np.random.Generator``.  That coupling has two costs:

* **order dependence** — a group's draws depend on how many draws every
  group before it consumed, so playback cannot be reordered (let alone
  sharded across processes) without changing results, and
* **hidden collisions** — ad-hoc integer seed arithmetic such as
  ``seed * 1000 + user_id`` collides across (seed, user) pairs: user 1000
  under seed ``s`` replays user 0's trajectory under seed ``s + 1``.

This module replaces both with explicit :class:`numpy.random.SeedSequence`
derivation: every consumer gets its own child stream from a structured
integer key, so draws are reproducible for a given key regardless of
execution order, worker count, or what any other consumer did.  It is the
same trick the demand predictor already uses per ``(seed, group, window)``
rollout (:meth:`repro.core.demand.GroupDemandPredictor._rollout_rng`), now
shared as the one canonical derivation.

Key layout
----------

``(seed, user_id)``
    per-user mobility stream — the documented fix for the
    ``seed * 1000 + user_id`` collision (two entropy words, no tag).
``(seed, user_id, tag)``
    per-user setup streams (preference draws), churn-independent: adding
    or removing one user never perturbs another user's stream.
``(seed, interval_index, scoped_group_id, tag)``
    per-(interval, group) playback streams: one for channel fading, one
    for watch durations.  These make group playback order-independent and
    give process-sharded playback draw-exact shard boundaries.
``(seed, interval_index, user_id, tag)``
    per-(interval, user) twin-collection streams.

All words are masked to 64 bits (negative seeds allowed); distinct purpose
tags keep equal-length keys from ever colliding across stream kinds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF

#: Purpose tags appended to registry keys.  Values are arbitrary but must
#: stay distinct (and stable: changing one re-seeds every derived stream).
PREFERENCE_STREAM = 1
CHANNEL_STREAM = 2
WATCH_STREAM = 3
COLLECTION_STREAM = 4


def derive_seed_sequence(key: Sequence[int]) -> np.random.SeedSequence:
    """The canonical key → :class:`~numpy.random.SeedSequence` derivation.

    Each key word is masked to 64 bits so negative values (e.g. a negative
    configured seed) stay valid entropy.
    """
    return np.random.SeedSequence([int(word) & _MASK for word in key])


def derive_stream(key: Sequence[int]) -> np.random.Generator:
    """A fresh generator for ``key`` (see :func:`derive_seed_sequence`)."""
    return np.random.default_rng(derive_seed_sequence(key))


def legacy_stream(
    seed: "int | np.random.SeedSequence | np.random.Generator | None" = None,
) -> np.random.Generator:
    """Registry-sanctioned shim for historical ``np.random.default_rng(seed)``.

    The pre-registry modules seeded their generators with plain literals
    (``default_rng(config.seed)``, ``default_rng(0)``) and their golden
    digests pin those exact bit streams, so the sites cannot move to
    :func:`derive_stream`'s masked-key derivation without re-baselining
    every golden.  Centralising the construction here keeps ``repro lint``'s
    RNG001 invariant — *no generator is built outside this module* — while
    staying bit-identical: this is ``np.random.default_rng`` applied to the
    very same seed the call site used historically.

    Every call site of this shim is legacy by definition.  New code must
    derive its stream from a structured key (:func:`derive_stream` /
    :class:`RngRegistry`); an existing site graduates whenever its goldens
    are deliberately re-baselined.
    """
    return np.random.default_rng(seed)


def window_token(window_start_s: "float | None") -> int:
    """64-bit key word for an optional time-window start (ms resolution).

    ``None`` maps to the reserved all-ones word, matching the demand
    predictor's historical keying so its rollout streams are unchanged.
    """
    if window_start_s is None:
        return _MASK
    return int(round(float(window_start_s) * 1000.0)) & _MASK


class RngRegistry:
    """Per-simulation registry of derived random streams.

    Thin, stateless facade over :func:`derive_stream` that fixes the root
    seed and documents the key layout in one place.  Generators are *not*
    cached: every call returns a fresh stream positioned at the start of
    its key's sequence, which is exactly what order-independence requires.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def mobility_seed(self, user_id: int) -> np.random.SeedSequence:
        """Seed sequence of one user's mobility model: ``(seed, user_id)``."""
        return derive_seed_sequence((self.seed, user_id))

    def preference_stream(self, user_id: int) -> np.random.Generator:
        """Setup stream for one user's preference draw (churn-independent)."""
        return derive_stream((self.seed, user_id, PREFERENCE_STREAM))

    def channel_stream(
        self, interval_index: int, scoped_group_id: int
    ) -> np.random.Generator:
        """Channel-fading stream of one scoped group for one interval."""
        return derive_stream(
            (self.seed, interval_index, scoped_group_id, CHANNEL_STREAM)
        )

    def watch_stream(
        self, interval_index: int, scoped_group_id: int
    ) -> np.random.Generator:
        """Watch-duration / video-choice stream of one scoped group for one interval.

        This is the stream a playback worker re-derives locally, which is
        what makes process-shard boundaries draw-exact: the worker needs no
        generator state from the parent, only the key.
        """
        return derive_stream(
            (self.seed, interval_index, scoped_group_id, WATCH_STREAM)
        )

    def collection_stream(
        self, interval_index: int, user_id: int
    ) -> np.random.Generator:
        """Twin-collection stream of one user for one interval."""
        return derive_stream(
            (self.seed, interval_index, user_id, COLLECTION_STREAM)
        )
