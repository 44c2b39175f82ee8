"""Einsum reference for the im2col :class:`repro.ml.layers.Conv1D`.

``Conv1D`` runs its forward pass and both gradients as matrix products over
im2col rows.  This module is the layer it replaced: windows gathered by
fancy indexing, ``np.einsum`` contractions, and the input gradient scattered
back one output position at a time.  The products sum in a different order
from these contractions, so the layer must match them within a rounding
bound; the windows and the bias gradient must match exactly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def reference_windows(x: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Windows of shape ``(batch, out_len, kernel, channels)``, by fancy indexing."""
    out_len = (x.shape[1] - kernel_size) // stride + 1
    starts = np.arange(out_len) * stride
    idx = starts[:, None] + np.arange(kernel_size)[None, :]
    return x[:, idx, :]


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (padding, padding), (0, 0))) if padding else x


def reference_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Conv1D output ``(batch, out_len, out_channels)`` of ``x`` under ``weight``."""
    windows = reference_windows(_pad(x, padding), weight.shape[0], stride)
    out = np.einsum("bokc,kcd->bod", windows, weight)
    if bias is not None:
        out = out + bias
    return out


def reference_backward(
    x: np.ndarray,
    weight: np.ndarray,
    grad_output: np.ndarray,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(input, weight, bias)`` gradients of a Conv1D for ``grad_output``."""
    kernel_size = weight.shape[0]
    windows = reference_windows(_pad(x, padding), kernel_size, stride)
    grad_weight = np.einsum("bokc,bod->kcd", windows, grad_output)
    grad_bias = grad_output.sum(axis=(0, 1))
    batch, length, channels = x.shape
    padded_len = length + 2 * padding
    grad_padded = np.zeros((batch, padded_len, channels), dtype=np.float64)
    grad_windows = np.einsum("bod,kcd->bokc", grad_output, weight)
    for o in range(grad_output.shape[1]):
        start = o * stride
        grad_padded[:, start : start + kernel_size, :] += grad_windows[:, o, :, :]
    if padding:
        grad_padded = grad_padded[:, padding : padded_len - padding, :]
    return grad_padded, grad_weight, grad_bias
