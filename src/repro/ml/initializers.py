"""Weight initialisation schemes for the NumPy neural-network framework.

Each initialiser is a plain function taking the desired ``shape`` and a
:class:`numpy.random.Generator`, and returning a float64 array.  Keeping
initialisers as free functions (rather than classes) makes layers easy to
construct and keeps the random source explicit, which matters for the
reproducibility guarantees the benchmark harness relies on.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _fan_in_out(shape: Sequence[int]) -> tuple[int, int]:
    """Compute fan-in / fan-out for a weight tensor.

    For a dense layer weight of shape ``(in, out)`` the fans are simply the
    two dimensions.  For a 1-D convolution kernel of shape
    ``(kernel, in_channels, out_channels)`` the receptive-field size
    multiplies both fans, matching the convention used by PyTorch and Keras.
    """
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[:-2]))
    fan_in = shape[-2] * receptive
    fan_out = shape[-1] * receptive
    return fan_in, fan_out


def zeros_init(shape: Sequence[int]) -> np.ndarray:
    """Return an all-zero array; the standard choice for bias vectors."""
    return np.zeros(shape, dtype=np.float64)


def glorot_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot / Xavier uniform initialisation.

    Samples from ``U(-limit, limit)`` with ``limit = sqrt(6 / (fan_in +
    fan_out))``.  Suitable for tanh / sigmoid activations and the default
    for output layers.
    """
    fan_in, fan_out = _fan_in_out(shape)
    limit = math.sqrt(6.0 / float(fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def he_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """He uniform initialisation.

    Samples from ``U(-limit, limit)`` with ``limit = sqrt(6 / fan_in)``,
    the recommended scheme for ReLU-family activations (used by the
    1D-CNN compressor and the DDQN Q-networks).
    """
    fan_in, _ = _fan_in_out(shape)
    limit = math.sqrt(6.0 / float(fan_in))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)
