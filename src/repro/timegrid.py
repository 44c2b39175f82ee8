"""Integer-step time grids.

Measurement, channel-sampling and collection schedules used to be built
with float-step ``np.arange(start_s, end_s, period_s)``.  ``np.arange``
determines the sample *count* from the floating-point ratio
``(end_s - start_s) / period_s``, so at a large ``start_s`` (long-horizon
runs) accumulated float error can add or drop a sample — e.g.
``np.arange(1.0, 1.3, 0.1)`` already yields **4** samples, the last one at
``1.3000000000000003 >= end_s``.  An extra or missing sample silently
changes how much randomness a channel trace consumes and breaks any
``(T, U, C)`` reshape or time-to-trigger arithmetic built on the expected
count.

:func:`time_grid` instead derives the count once, with a tolerance, and
materialises the grid as ``start_s + period_s * arange(n)`` — every sample
is an exact single multiply-add away from ``start_s``, the count is stable
at any horizon, and for well-behaved spans the values are bit-identical to
what ``np.arange`` produced (so identical-seed golden runs are preserved).

:func:`counts_at` places rows of sorted times on a sorted grid, counting in
integers: the walk table finds each position's leg with it, and the twin
tables each held sample.

This module is dependency-free on purpose: it is shared by the network
(:mod:`repro.net.handover`), simulation (:mod:`repro.sim.simulator`),
mobility (:mod:`repro.mobility.trajectory`) and twin
(:mod:`repro.twin.collector`, :mod:`repro.twin.timeseries`) layers, which
sit at different depths of the package import graph.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance applied to the span/step ratio before taking the
#: ceiling.  Large enough to absorb accumulated double-precision error at
#: any realistic simulation horizon, small enough never to swallow a real
#: sample (which would require a step mis-sized by one part in 1e9).
_RATIO_EPS = 1e-9


def num_grid_steps(start_s: float, end_s: float, step_s: float) -> int:
    """Number of samples of a ``[start_s, end_s)`` grid with step ``step_s``.

    The mathematical count ``ceil((end_s - start_s) / step_s)`` evaluated
    with a tolerance, so a ratio that is integral up to float error (e.g.
    ``60.00000000000001``) maps to the intended integer instead of picking
    up a spurious extra sample.
    """
    if step_s <= 0:
        raise ValueError("step_s must be positive")
    if end_s <= start_s:
        return 0
    ratio = (end_s - start_s) / step_s
    return int(np.ceil(ratio * (1.0 - _RATIO_EPS)))


def time_grid(start_s: float, end_s: float, step_s: float) -> np.ndarray:
    """Sample times covering ``[start_s, end_s)`` at ``step_s`` spacing.

    Equivalent to ``np.arange(start_s, end_s, step_s)`` for well-behaved
    spans (same values, same count), but with the count computed robustly
    from the span so long-horizon grids never gain or lose a sample to
    floating-point drift.
    """
    count = num_grid_steps(start_s, end_s, step_s)
    return start_s + step_s * np.arange(count)


def counts_at(times: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``(rows, len(grid))``: how many of each row's ``times`` are ``<= grid[j]``.

    ``times`` is ``(rows, width)``, each row sorted, padded with ``+inf``;
    ``grid`` is sorted.  Each time is ranked among the grid with one
    ``searchsorted``, the ranks are counted per (row, rank) and accumulated,
    all in integers, so no time is shifted by an offset.  Padding ranks past
    every grid time, into each row's spare last bin; each row ranks
    ``width`` times, so the rows before row ``i`` add ``i * width`` to the
    running count.
    """
    rows, width = times.shape
    steps = grid.shape[0]
    bins = np.arange(rows)
    first = grid.searchsorted(times)
    first += (bins * (steps + 1))[:, None]
    counts = np.bincount(first.ravel(), minlength=rows * (steps + 1)).cumsum()
    return counts.reshape(rows, steps + 1)[:, :steps] - (bins * width)[:, None]
