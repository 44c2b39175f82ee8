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
    per-(interval, user) twin-collection streams, derived for a whole group
    at once (:meth:`RngRegistry.collection_streams`).

All words are masked to 64 bits (negative seeds allowed); distinct purpose
tags keep equal-length keys from ever colliding across stream kinds.

Batched derivation
------------------
:func:`derive_stream` is the reference: NumPy's own ``SeedSequence`` →
``PCG64`` seeding, one key at a time.  A group's collection streams are one
key per member, so :func:`derive_streams` derives a batch of keys in one
pass instead: ``SeedSequence``'s uint32 pool hash and its
``generate_state(4, np.uint64)`` run as numpy arithmetic over every key at
once (keys grouped by their uint32 layout: a word below 2**32 is one uint32,
a wider one two, low then high), PCG64's 128-bit seeding runs in Python
ints, and one generator is re-pointed at each key in turn.  A hypothesis
test (``TestRngRegistry`` in ``tests/test_parallel_playback.py``) holds it
to :func:`derive_stream`: the same PCG64 state and the same first draws for
keys of 1–6 words, with zero, negative and ≥ 2**32 words.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF

#: ``SeedSequence``'s hash constants (``numpy.random.bit_generator``): the
#: pool hash's and the state generator's, and the pool size NumPy uses.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier.
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1

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


def derive_streams(words: np.ndarray) -> Iterator[np.random.Generator]:
    """:func:`derive_stream` of each row of ``words``, derived as one batch.

    ``words`` is a ``(keys, words)`` integer array; row ``k`` holds key
    ``k``'s words, each taken modulo 2**64 as :func:`derive_seed_sequence`
    masks it.  The iterator yields **one** generator, re-pointed at each key
    in turn (its ``has_uint32``/``uinteger`` reset): after the ``k``-th
    ``next`` it sits where ``derive_stream(key k)`` starts, and the next
    ``next`` re-points it.  So consume each key's draws before advancing.
    """
    states = _seed_states(np.asarray(words).astype(np.uint64))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    # The setter copies the values out, so one state dict serves every key.
    pcg_state = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg_state, "has_uint32": 0, "uinteger": 0}
    for seed_high, seed_low, seq_high, seq_low in states.tolist():
        # pcg64_set_seed: state 0, step, add the seed, step.
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        pcg_state["inc"] = inc
        pcg_state["state"] = (
            (inc + (seed_high << 64 | seed_low)) * _PCG64_MULTIPLIER + inc
        ) & _MASK128
        bit_generator.state = state
        yield generator


def _seed_states(words: np.ndarray) -> np.ndarray:
    """Each key's ``SeedSequence(key).generate_state(4, np.uint64)``, ``(keys, 4)``.

    ``words`` is a ``(keys, words)`` uint64 array.  ``SeedSequence`` turns
    each word into one uint32 (below 2**32) or two (low, then high), so keys
    whose wide words sit in the same places have entropy of one length and
    layout; each such group of keys is hashed as one block.
    """
    keys, width = words.shape
    halves = np.empty((keys, width, 2), dtype=np.uint32)
    halves[:, :, 0] = words & np.uint64(_MASK32)
    halves[:, :, 1] = words >> np.uint64(32)
    halves = halves.reshape(keys, 2 * width)
    wide = words > np.uint64(_MASK32)
    # (rows, layout) of each group: the rows' keys share the layout.
    groups: List[Tuple[Union[slice, np.ndarray], np.ndarray]]
    if keys and (wide == wide[0]).all():
        groups = [(slice(None), wide[0])]
    else:
        layouts, inverse = np.unique(wide, axis=0, return_inverse=True)
        groups = [(inverse.reshape(-1) == index, layout) for index, layout in enumerate(layouts)]
    states = np.empty((keys, 4), dtype=np.uint64)
    for rows, layout in groups:
        columns = [
            2 * word + half
            for word, is_wide in enumerate(layout.tolist())
            for half in range(1 + is_wide)
        ]
        states[rows] = _generate_state(_hashed_pool(halves[rows][:, columns]))
    return states


def _hash_constants(start: int, multiplier: int, count: int) -> List[int]:
    """The ``count + 1`` hash constants of ``count`` hash calls.

    Call ``c`` xors with constant ``c`` and multiplies by constant ``c + 1``.
    """
    constants = [start]
    for _ in range(count):
        constants.append(constants[-1] * multiplier & _MASK32)
    return constants


def _hash(values: np.ndarray, xors: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``hashmix`` of each column with its own constants."""
    hashed = values ^ xors
    hashed *= multipliers
    hashed ^= hashed >> _XSHIFT
    return hashed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix``, elementwise."""
    mixed = x * _MIX_MULT_L
    mixed -= y * _MIX_MULT_R
    mixed ^= mixed >> _XSHIFT
    return mixed


def _hashed_pool(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy`` of each row of a ``(keys, words)`` uint32 block.

    The hash calls run in NumPy's order; calls whose inputs do not depend on
    each other run as one column block.
    """
    keys, length = entropy.shape
    extra = max(length - _POOL_SIZE, 0)
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    # Row r of each table: the xor (multiplier) constant per pool column of
    # block r.  Block 0 hashes the entropy's first words, then one block per
    # pool word mixes a hash of that word into every other one (its own
    # column's constants are placeholders, its result discarded), then one
    # block per remaining entropy word mixes a hash of it into every word.
    calls: List[Sequence[int]] = [range(_POOL_SIZE)]
    call = _POOL_SIZE
    for source in range(_POOL_SIZE):
        calls.append([call + d - (d >= source) for d in range(_POOL_SIZE)])
        call += _POOL_SIZE - 1
    calls += [range(call + _POOL_SIZE * k, call + _POOL_SIZE * (k + 1)) for k in range(extra)]
    xors = np.array([[constants[c] for c in block] for block in calls], dtype=np.uint32)
    multipliers = np.array([[constants[c + 1] for c in block] for block in calls], dtype=np.uint32)
    # Each pool word hashes one entropy word, or 0 past the entropy's end.
    pool = np.zeros((keys, _POOL_SIZE), dtype=np.uint32)
    pool[:, : length - extra] = entropy[:, :_POOL_SIZE]
    pool = _hash(pool, xors[0], multipliers[0])
    for source in range(_POOL_SIZE):
        kept = pool[:, source].copy()
        pool = _mix(pool, _hash(pool[:, source, None], xors[1 + source], multipliers[1 + source]))
        pool[:, source] = kept
    for block, source in enumerate(range(_POOL_SIZE, length), start=1 + _POOL_SIZE):
        pool = _mix(pool, _hash(entropy[:, source, None], xors[block], multipliers[block]))
    return pool


def _generate_state(pool: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of each row of ``pool``."""
    constants = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), dtype=np.uint32)
    words = _hash(np.concatenate([pool, pool], axis=1), constants[:-1], constants[1:])
    # Little-endian pairs of uint32 words, as NumPy assembles them.
    return words.astype("<u4", copy=False).view("<u8")


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
    very same seed the call site used historically.  A negative integer seed
    is taken modulo 2**64, as :func:`derive_seed_sequence` masks key words
    (``default_rng`` rejects negative seeds); every non-negative seed is
    passed on unchanged.

    Every call site of this shim is legacy by definition.  New code must
    derive its stream from a structured key (:func:`derive_stream` /
    :class:`RngRegistry`); an existing site graduates whenever its goldens
    are deliberately re-baselined.
    """
    if isinstance(seed, (int, np.integer)) and seed < 0:
        seed = int(seed) & _MASK
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

    def collection_streams(
        self, interval_index: int, user_ids: np.ndarray
    ) -> Iterator[np.random.Generator]:
        """Twin-collection streams of a group's members for one interval.

        Yields each member's ``(seed, interval_index, user_id, tag)`` stream
        in ``user_ids`` order, derived as one batch (:func:`derive_streams`).
        The yielded generator is one object, re-pointed at each member in
        turn: draw all of a member's draws before taking the next member's.
        """
        words = np.empty((len(user_ids), 4), dtype=np.uint64)
        words[:, 0] = self.seed & _MASK
        words[:, 1] = int(interval_index) & _MASK
        words[:, 2] = np.asarray(user_ids, dtype=np.int64).astype(np.uint64)
        words[:, 3] = COLLECTION_STREAM
        return derive_streams(words)
