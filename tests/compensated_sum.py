"""Python 3.12's builtin ``sum()``, for checking pins on older interpreters.

From 3.12 on, ``sum()`` adds exact ``float`` items with Neumaier's
compensated summation and folds the compensation in at the end, while 3.10
and 3.11 add left to right.  :func:`compensated_sum` follows 3.12's C
implementation path for path: the integer fast path, the compensated float
fast path (with ints folded in uncompensated) and the generic ``+`` for
anything else, such as numpy scalars.  Installed as ``builtins.sum``, it
lets a 3.10 or 3.11 run see what a 3.12 run computes.
"""

from __future__ import annotations

import math
from typing import Any, Iterable


def compensated_sum(iterable: Iterable[Any], /, start: Any = 0) -> Any:
    """``sum(iterable, start)`` as CPython 3.12 computes it."""
    iterator = iter(iterable)
    result = start
    if type(result) is int:
        for item in iterator:
            if type(item) in (int, bool):
                result = result + item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in iterator:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in iterator:
        result = result + item
    return result
