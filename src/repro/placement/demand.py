"""Per-job demand series and the deterministic demand forecaster.

The placement planner packs jobs (one per multicast group) onto edge
servers against each job's *predicted* resource usage over a short
planning horizon, not its instantaneous usage.  A :class:`DemandSeries`
carries that prediction — CPU cycles and cache bytes per future interval —
and :class:`DemandForecaster` produces it from observed history with a
Holt-style level+trend smoother (deterministic, RNG-free: placement must
never perturb the simulator's random streams).

When the digital-twin prediction scheme is driving the run, its per-group
``computing_cycles`` predictions are fed in through
:meth:`DemandForecaster.set_external` and override the smoother's level
for the next interval, so placement packs against exactly the demand the
twin predicted (cache-byte demand always comes from the smoother — the
twin does not predict it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple


@dataclass(frozen=True)
class DemandSeries:
    """Predicted resource demand of one job over the planning horizon.

    ``cpu_cycles[k]`` / ``cache_bytes[k]`` are the predicted usages in the
    k-th upcoming interval (k = 0 is the interval about to be placed).
    """

    cpu_cycles: Tuple[float, ...]
    cache_bytes: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.cpu_cycles) != len(self.cache_bytes):
            raise ValueError("cpu_cycles and cache_bytes must have equal length")
        if not self.cpu_cycles:
            raise ValueError("demand series must cover at least one interval")
        if any(v < 0 for v in self.cpu_cycles) or any(v < 0 for v in self.cache_bytes):
            raise ValueError("demand values must be non-negative")

    @property
    def horizon(self) -> int:
        return len(self.cpu_cycles)

    @property
    def peak_cpu_cycles(self) -> float:
        return float(max(self.cpu_cycles))

    @property
    def peak_cache_bytes(self) -> float:
        return float(max(self.cache_bytes))


@dataclass
class _GroupHistory:
    """Holt level+trend state of one group's demand smoother."""

    cycles_level: float
    cycles_trend: float = 0.0
    bytes_level: float = 0.0
    bytes_trend: float = 0.0
    observations: int = 0


class DemandForecaster:
    """Deterministic per-group demand forecaster (Holt level + trend).

    ``alpha`` smooths the level, ``beta`` the trend; a group with no
    history forecasts the configured priors (so brand-new groups — churn
    arrivals, splits — get a sane placement instead of zero demand).
    """

    def __init__(
        self,
        alpha: float = 0.5,
        beta: float = 0.3,
        prior_cycles: float = 1e10,
        prior_bytes: float = 1e8,
    ) -> None:
        if not 0.0 < alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise ValueError("alpha must be in (0, 1] and beta in [0, 1]")
        if prior_cycles < 0 or prior_bytes < 0:
            raise ValueError("priors must be non-negative")
        self.alpha = alpha
        self.beta = beta
        self.prior_cycles = float(prior_cycles)
        self.prior_bytes = float(prior_bytes)
        self._history: Dict[int, _GroupHistory] = {}
        self._external: Dict[int, float] = {}

    # ------------------------------------------------------------- external
    def set_external(self, forecasts: Mapping[int, float]) -> None:
        """Override the next-interval CPU forecast per group (twin feed).

        The override applies to the next :meth:`forecast` calls and is
        consumed by :meth:`observe` (one simulator interval), matching the
        predict-then-observe cadence of the scheme.  Non-finite forecasts
        (predicted outages) are dropped — the smoother covers those groups.
        """
        self._external = {
            int(gid): max(float(v), 0.0)
            for gid, v in forecasts.items()
            if math.isfinite(float(v))
        }

    # ------------------------------------------------------------ forecasts
    def forecast(self, group_id: int, horizon: int) -> DemandSeries:
        """Predicted demand series of one group over ``horizon`` intervals."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        state = self._history.get(group_id)
        if state is None:
            cycles_level, cycles_trend = self.prior_cycles, 0.0
            bytes_level, bytes_trend = self.prior_bytes, 0.0
        else:
            cycles_level, cycles_trend = state.cycles_level, state.cycles_trend
            bytes_level, bytes_trend = state.bytes_level, state.bytes_trend
        external = self._external.get(group_id)
        if external is not None:
            # The twin predicted the next interval's cycles outright; keep
            # the smoother's trend for the steps beyond it.
            cycles_level = external
        cycles = tuple(
            max(cycles_level + k * cycles_trend, 0.0) for k in range(horizon)
        )
        cache = tuple(max(bytes_level + k * bytes_trend, 0.0) for k in range(horizon))
        return DemandSeries(cpu_cycles=cycles, cache_bytes=cache)

    # ---------------------------------------------------------- observations
    def observe(self, group_id: int, cycles: float, cache_bytes: float) -> None:
        """Fold one interval's observed usage into the group's smoother."""
        cycles = max(float(cycles), 0.0)
        cache_bytes = max(float(cache_bytes), 0.0)
        state = self._history.get(group_id)
        if state is None:
            self._history[group_id] = _GroupHistory(
                cycles_level=cycles, bytes_level=cache_bytes, observations=1
            )
        else:
            new_cycles = self.alpha * cycles + (1.0 - self.alpha) * (
                state.cycles_level + state.cycles_trend
            )
            state.cycles_trend = (
                self.beta * (new_cycles - state.cycles_level)
                + (1.0 - self.beta) * state.cycles_trend
            )
            state.cycles_level = new_cycles
            new_bytes = self.alpha * cache_bytes + (1.0 - self.alpha) * (
                state.bytes_level + state.bytes_trend
            )
            state.bytes_trend = (
                self.beta * (new_bytes - state.bytes_level)
                + (1.0 - self.beta) * state.bytes_trend
            )
            state.bytes_level = new_bytes
            state.observations += 1
        self._external.pop(group_id, None)

    def observations(self, group_id: int) -> int:
        state = self._history.get(group_id)
        return state.observations if state is not None else 0

    def relative_error(self, predicted: float, observed: float) -> float:
        """Symmetric-floor relative prediction error, safe near zero."""
        denom = max(abs(predicted), abs(observed), 1.0)
        return abs(observed - predicted) / denom

    def forget(self, group_id: int) -> None:
        """Drop a group's history (group dissolved by churn/merge)."""
        self._history.pop(group_id, None)
        self._external.pop(group_id, None)
