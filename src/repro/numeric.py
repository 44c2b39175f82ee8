"""Float totals that add left to right on every supported Python.

From Python 3.12 on, builtin ``sum()`` over floats compensates its rounding
(Neumaier's variant of Kahan summation), while 3.10 and 3.11 add left to
right: the same floats can total to a different last bit.  Every pinned
output of this simulator passes through such totals (interval resource
blocks and cycles, popularity and engagement shares, fleet and demand
totals, run summaries), so each of them uses :func:`ordered_sum`, which
keeps the left-to-right rule whatever the interpreter.

This module is dependency-free on purpose: the network, edge, placement,
prediction and simulation layers all import it.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Iterable


def ordered_sum(values: Iterable[Any]) -> Any:
    """``values`` added left to right, starting from the integer 0.

    The result equals builtin ``sum(values)`` before Python 3.12, bit for
    bit, for floats, numpy scalars and ints alike.
    """
    return functools.reduce(operator.add, values, 0)
