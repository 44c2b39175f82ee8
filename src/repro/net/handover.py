"""Hysteresis + time-to-trigger handover policy.

Cellular handover is event-driven: a user hands over to a neighbour cell
only when the neighbour's measured signal exceeds the serving cell's by a
hysteresis margin *continuously* for a time-to-trigger window (the LTE "A3"
event).  This module evaluates that rule over batched mid-interval
measurement samples -- one mean-SNR tensor of shape ``(times, users,
cells)`` built from the vectorized ``positions()`` / ``mean_snr_db_batch``
paths -- instead of the boundary-only strongest-cell argmax the simulator
used before.

The policy itself is pure and deterministic: identical measurement inputs
produce the identical decision sequence, which is what the controller's
determinism guarantees (same seed, same handover events) rest on.  The
time-to-trigger streaks it carries between batches (:class:`StreakState`)
are always keyed by user id, so users joining or leaving between batches
never shift one user's streak onto another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.timegrid import time_grid

#: Tolerance used when comparing float sample times against the
#: time-to-trigger window (arange-produced times are exact multiples of the
#: sample period, but guard against accumulated float error anyway).
_TIME_EPS = 1e-9


@dataclass(frozen=True)
class HandoverConfig:
    """Parameters of the A3-style handover rule.

    ``hysteresis_db`` is the margin a neighbour must hold over the serving
    cell, ``time_to_trigger_s`` how long the margin must hold continuously,
    and ``sample_period_s`` the measurement period within an interval.

    ``load_bias_db`` makes the rule load-aware: callers pass a per-cell
    bias vector into :meth:`HandoverPolicy.evaluate` (the controller derives
    it as ``-load_bias_db`` for every overloaded cell), and the rule runs on
    the biased measurements.  An overloaded candidate therefore needs an
    extra ``load_bias_db`` of genuine margin to attract a handover, while
    users camped on an overloaded cell leave it that much more readily.  The
    default ``0.0`` disables the bias entirely and preserves the pure-SNR
    decision sequence bit-for-bit.
    """

    hysteresis_db: float = 3.0
    time_to_trigger_s: float = 10.0
    sample_period_s: float = 5.0
    load_bias_db: float = 0.0

    def __post_init__(self) -> None:
        if self.hysteresis_db < 0:
            raise ValueError("hysteresis_db must be non-negative")
        if self.time_to_trigger_s < 0:
            raise ValueError("time_to_trigger_s must be non-negative")
        if not 0 < self.sample_period_s < math.inf:
            raise ValueError("sample_period_s must be positive and finite")
        if self.load_bias_db < 0:
            raise ValueError("load_bias_db must be non-negative")


@dataclass
class StreakState:
    """Per-user A3 streak state carried across evaluation batches.

    ``candidate[u]`` is the cell index whose margin streak user
    ``user_ids[u]`` is accumulating (``-1`` when none) and
    ``entered_at_s[u]`` the absolute time the streak began.  Persisting
    this between intervals keeps the time-to-trigger window *continuous*: a
    margin that establishes late in one interval and completes early in the
    next still triggers.

    The state is keyed by user id: :meth:`aligned_to` remaps the carried
    rows onto any later user-id batch, so users that joined get a fresh
    streak and users that left are dropped.  A mid-run removal therefore
    never applies one user's candidate/TTT row to another.
    """

    candidate: np.ndarray
    entered_at_s: np.ndarray
    #: User id of each row.
    user_ids: np.ndarray

    @classmethod
    def keyed(cls, user_ids: Sequence[int]) -> "StreakState":
        """A fresh state keyed by ``user_ids`` (one row per user, no streaks)."""
        ids = np.asarray(user_ids, dtype=int)
        return cls(
            candidate=np.full(ids.shape[0], -1, dtype=int),
            entered_at_s=np.zeros(ids.shape[0]),
            user_ids=ids,
        )

    def aligned_to(self, user_ids: Sequence[int]) -> "StreakState":
        """Rows of this state remapped onto ``user_ids`` (churn-safe carry).

        Each requested user keeps their carried ``(candidate, entered_at)``
        row if present, and starts a fresh ``(-1, 0.0)`` streak otherwise;
        carried rows whose user is absent from ``user_ids`` are dropped.
        """
        ids = np.asarray(user_ids, dtype=int)
        row_of = {int(uid): row for row, uid in enumerate(self.user_ids)}
        candidate = np.full(ids.shape[0], -1, dtype=int)
        entered_at = np.zeros(ids.shape[0])
        for row, uid in enumerate(ids):
            carried = row_of.get(int(uid))
            if carried is not None:
                candidate[row] = self.candidate[carried]
                entered_at[row] = self.entered_at_s[carried]
        return StreakState(candidate=candidate, entered_at_s=entered_at, user_ids=ids)

    def without(self, user_id: int) -> "StreakState":
        """This state minus ``user_id``'s row (no-op when absent).

        Dropping the row resets the user: the next :meth:`aligned_to` call
        backfills a fresh ``(-1, 0.0)`` streak for them, which is exactly
        the (re-)attach semantics the controller wants.
        """
        keep = self.user_ids != int(user_id)
        if keep.all():
            return self
        return StreakState(
            candidate=self.candidate[keep],
            entered_at_s=self.entered_at_s[keep],
            user_ids=self.user_ids[keep],
        )


@dataclass(frozen=True)
class HandoverDecision:
    """One triggered handover, in measurement-index coordinates.

    ``user_index`` / ``source_index`` / ``target_index`` index into the
    ``user_ids`` / cell axes the policy was evaluated with; the controller
    translates them to real user and cell ids.  ``margin_db`` is the
    measured target-over-source margin at the trigger sample.
    """

    time_s: float
    user_index: int
    source_index: int
    target_index: int
    margin_db: float


def measure_mean_snr(base_stations: Sequence, positions: np.ndarray) -> np.ndarray:
    """Mean-SNR measurement tensor for a batch of user positions.

    ``positions`` has shape ``(times, users, 2)``; the result has shape
    ``(times, users, cells)`` with cells in the order of ``base_stations``.
    One vectorized ``mean_snr_db_batch`` call per cell over the flattened
    positions -- no per-(user, sample) Python work.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[-1] != 2:
        raise ValueError("positions must have shape (times, users, 2)")
    num_times, num_users = positions.shape[:2]
    flat = positions.reshape(num_times * num_users, 2)
    snr = np.stack([bs.mean_snr_db_batch(flat) for bs in base_stations], axis=1)
    return snr.reshape(num_times, num_users, len(base_stations))


class HandoverPolicy:
    """Evaluates the hysteresis + time-to-trigger rule over sample batches."""

    def __init__(self, config: HandoverConfig | None = None) -> None:
        self.config = config if config is not None else HandoverConfig()

    def measurement_times(self, start_s: float, end_s: float) -> np.ndarray:
        """Measurement sample times covering ``[start_s, end_s)``.

        Built from an integer step count (:func:`repro.timegrid.time_grid`)
        rather than float-step ``np.arange``, so long-horizon grids never
        gain or drop a sample to accumulated float error — a spurious extra
        sample would break the ``(T, U, C)`` measurement reshape and shift
        every time-to-trigger window by one period.
        """
        if end_s <= start_s:
            raise ValueError("end_s must be greater than start_s")
        return time_grid(start_s, end_s, self.config.sample_period_s)

    def evaluate(
        self,
        times_s: Sequence[float],
        snr_db: np.ndarray,
        serving_index: Sequence[int],
        user_ids: Sequence[int],
        state: "StreakState | None" = None,
        cell_bias_db: "Sequence[float] | None" = None,
    ) -> Tuple[List[HandoverDecision], np.ndarray, StreakState]:
        """Walk the measurement samples and trigger handovers.

        Parameters
        ----------
        times_s:
            Sample times, shape ``(T,)``, strictly increasing.
        snr_db:
            Mean-SNR tensor, shape ``(T, U, C)``.
        serving_index:
            Serving-cell index per user at the first sample, shape ``(U,)``.
        user_ids:
            User id of each measurement column, shape ``(U,)``.  The carried
            ``state`` is remapped *by id* onto this batch
            (:meth:`StreakState.aligned_to`), so streaks persist correctly
            while users join and leave between batches.
        state:
            Streak state carried over from the previous batch (fresh state
            when omitted).  Passing the returned state back in keeps
            time-to-trigger windows continuous across batch boundaries.
        cell_bias_db:
            Optional per-cell additive bias, shape ``(C,)``, applied to the
            whole measurement tensor before the rule runs (load-aware
            handover: an overloaded cell carries a negative bias, so joining
            it needs extra genuine margin and leaving it needs less).  The
            reported ``margin_db`` of each decision is the *effective*
            (biased) margin that triggered it.  ``None`` keeps the pure-SNR
            rule bit-for-bit.

        Returns ``(decisions, final_serving_index, state)``.  Decisions are
        ordered by (time, user index); a user can hand over more than once
        if the margin condition re-establishes towards another cell.  The
        walk is vectorized across users -- one pass over the time axis with
        array ops, no per-user Python loop.
        """
        times = np.asarray(times_s, dtype=np.float64)
        snr = np.asarray(snr_db, dtype=np.float64)
        serving = np.array(serving_index, dtype=int).copy()
        if snr.ndim != 3:
            raise ValueError("snr_db must have shape (times, users, cells)")
        if times.shape[0] != snr.shape[0] or serving.shape[0] != snr.shape[1]:
            raise ValueError("times_s, snr_db and serving_index shapes disagree")
        if cell_bias_db is not None:
            bias = np.asarray(cell_bias_db, dtype=np.float64)
            if bias.shape != (snr.shape[2],):
                raise ValueError("cell_bias_db must have one entry per cell")
            if np.any(bias):
                snr = snr + bias[None, None, :]
        num_users = serving.shape[0]
        ids = np.asarray(user_ids, dtype=int)
        if ids.shape[0] != num_users:
            raise ValueError("user_ids and serving_index shapes disagree")
        state = StreakState.keyed(ids) if state is None else state.aligned_to(ids)
        if num_users == 0 or times.shape[0] == 0 or snr.shape[2] < 2:
            return [], serving, state

        users = np.arange(num_users)
        candidate = state.candidate.copy()
        entered_at = state.entered_at_s.copy()
        ttt = self.config.time_to_trigger_s
        decisions: List[HandoverDecision] = []

        for step, now in enumerate(times):
            sample = snr[step]  # (U, C)
            best = np.argmax(sample, axis=1)
            margin = sample[users, best] - sample[users, serving]
            qualifies = (best != serving) & (margin > self.config.hysteresis_db)
            # A new candidate streak starts whenever the best neighbour
            # changes or the margin condition (re-)establishes.
            restarted = qualifies & (best != candidate)
            entered_at = np.where(restarted, now, entered_at)
            candidate = np.where(qualifies, best, -1)
            triggered = qualifies & (now - entered_at + _TIME_EPS >= ttt)
            for user in np.flatnonzero(triggered):
                decisions.append(
                    HandoverDecision(
                        time_s=float(now),
                        user_index=int(user),
                        source_index=int(serving[user]),
                        target_index=int(best[user]),
                        margin_db=float(margin[user]),
                    )
                )
            serving = np.where(triggered, best, serving)
            candidate = np.where(triggered, -1, candidate)
        return (
            decisions,
            serving,
            StreakState(candidate=candidate, entered_at_s=entered_at, user_ids=ids),
        )
