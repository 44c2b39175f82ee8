"""Strided-window reference for :class:`repro.ml.layers.MaxPool1D`.

``MaxPool1D`` reads its windows as a reshape view of the input and writes
each window's gradient with one ``np.put_along_axis``.  This module is the
layer it replaced: windows copied out of a strided view, any stride, and the
input gradient scattered with ``np.add.at``.  With the stride equal
to the pool size, the two must agree in every byte: the output, the argmax
and the input gradient, signed zeros included.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _windows(x: np.ndarray, pool_size: int, stride: int) -> np.ndarray:
    """C-contiguous windows ``(batch, out_len, pool_size, channels)``, copied."""
    if x.shape[1] < pool_size:
        raise ValueError(f"input length {x.shape[1]} too short for pool {pool_size}")
    view = sliding_window_view(x, pool_size, axis=1)[:, ::stride]
    return np.ascontiguousarray(view.transpose(0, 1, 3, 2))


class ReferenceMaxPool1D:
    """Max pooling over the time axis (channels-last layout)."""

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self._input_shape: Optional[tuple] = None
        self._argmax: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"MaxPool1D expects (batch, length, channels); got {x.shape}")
        self._input_shape = x.shape
        windows = _windows(x, self.pool_size, self.stride)
        self._argmax = windows.argmax(axis=2)  # (B, O, C)
        return windows.max(axis=2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._input_shape is not None and self._argmax is not None
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, length, channels = self._input_shape
        grad_input = np.zeros(self._input_shape, dtype=np.float64)
        out_len = grad_output.shape[1]
        b_idx = np.arange(batch)[:, None, None]
        c_idx = np.arange(channels)[None, None, :]
        starts = (np.arange(out_len) * self.stride)[None, :, None]
        positions = starts + self._argmax  # (B, O, C)
        np.add.at(grad_input, (b_idx, positions, c_idx), grad_output)
        return grad_input
