"""Neural-network layers with explicit forward / backward passes.

All layers operate on ``float64`` NumPy arrays.  Convolutional and pooling
layers use the *channels-last* layout ``(batch, length, channels)``, which
matches how the digital-twin time series are stored (one row per sampling
instant, one column per attribute).

Design notes
------------
* Trainable state lives in :class:`Parameter` objects so that optimisers can
  update weights without knowing anything about layer internals.
* ``forward`` caches whatever the corresponding ``backward`` needs; calling
  ``backward`` before ``forward`` raises a clear error instead of silently
  producing garbage.
* Every backward pass returns the gradient with respect to the layer input,
  allowing the :class:`repro.ml.network.Sequential` container to chain layers
  without any graph machinery.
* :class:`Conv1D` runs on im2col rows (Chellapilla et al., 2006): each
  window of the input is one row of a ``(batch * out_len, kernel *
  in_channels)`` matrix, so the forward pass and both gradients are single
  matrix products.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.ml.initializers import glorot_uniform, he_uniform, zeros_init


class Parameter:
    """A trainable tensor together with its accumulated gradient."""

    def __init__(self, value: np.ndarray, name: str = "param") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        """Return the trainable parameters of this layer (may be empty)."""
        return []

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def _require_cache(self, cache, name: str):
        if cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward() called before forward(); "
                f"missing cached {name}"
            )
        return cache


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    rng:
        Random generator used for weight initialisation.
    weight_init:
        Either ``"he"`` (default, for ReLU networks) or ``"glorot"``.
    use_bias:
        Whether to add a bias term.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        weight_init: str = "he",
        use_bias: bool = True,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense layer dimensions must be positive")
        init = he_uniform if weight_init == "he" else glorot_uniform
        self.weight = Parameter(init((in_features, out_features), rng), name="dense.weight")
        self.use_bias = use_bias
        self.bias = Parameter(zeros_init((out_features,)), name="dense.bias") if use_bias else None
        self._input: Optional[np.ndarray] = None
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected input with {self.in_features} features, got {x.shape[-1]}"
            )
        self._input = x
        out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._require_cache(self._input, "input")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        self.weight.grad += x.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value.T

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


def _sliding_windows(x: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Return C-contiguous windows of shape ``(batch, out_len, kernel, channels)``.

    ``windows[b, o, k, c] == x[b, o * stride + k, c]``.  The windows are one
    copy of a strided view, so :class:`Conv1D` reads them as im2col rows
    with a reshape.
    """
    batch, length, channels = x.shape
    out_len = (length - kernel_size) // stride + 1
    if out_len <= 0:
        raise ValueError(
            f"input length {length} too short for kernel {kernel_size} with stride {stride}"
        )
    view = sliding_window_view(x, kernel_size, axis=1)[:, ::stride]
    return np.ascontiguousarray(view.transpose(0, 1, 3, 2))


class Conv1D(Layer):
    """1-D convolution over the time axis (channels-last layout).

    Input shape ``(batch, length, in_channels)``; output shape
    ``(batch, out_length, out_channels)`` with ``out_length = (length + 2 *
    padding - kernel_size) // stride + 1``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        use_bias: bool = True,
    ) -> None:
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("kernel_size and stride must be positive, padding non-negative")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            he_uniform((kernel_size, in_channels, out_channels), rng), name="conv1d.weight"
        )
        self.bias = Parameter(zeros_init((out_channels,)), name="conv1d.bias") if use_bias else None
        self._rows: Optional[np.ndarray] = None
        self._input_shape: Optional[tuple] = None

    def _pad(self, x: np.ndarray) -> np.ndarray:
        if self.padding == 0:
            return x
        return np.pad(x, ((0, 0), (self.padding, self.padding), (0, 0)))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"Conv1D expects (batch, length, channels); got shape {x.shape}")
        if x.shape[2] != self.in_channels:
            raise ValueError(
                f"Conv1D expected {self.in_channels} input channels, got {x.shape[2]}"
            )
        self._input_shape = x.shape
        windows = _sliding_windows(self._pad(x), self.kernel_size, self.stride)
        batch, out_len = windows.shape[:2]
        # One im2col row per window: (B * O, K * Cin) @ (K * Cin, Cout).
        self._rows = windows.reshape(batch * out_len, -1)
        kernel = self.weight.value.reshape(-1, self.out_channels)
        out = (self._rows @ kernel).reshape(batch, out_len, self.out_channels)
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        rows = self._require_cache(self._rows, "input windows")
        input_shape = self._require_cache(self._input_shape, "input shape")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        grad_rows = grad_output.reshape(-1, self.out_channels)
        self.weight.grad += (rows.T @ grad_rows).reshape(self.weight.shape)
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=(0, 1))
        # Input gradient: each window's rows, scattered back one kernel tap
        # at a time (tap k of every window lands on a strided slice).
        batch, length, channels = input_shape
        out_len = grad_output.shape[1]
        kernel = self.weight.value.reshape(-1, self.out_channels)
        grad_windows = (grad_rows @ kernel.T).reshape(batch, out_len, self.kernel_size, channels)
        padded_len = length + 2 * self.padding
        grad_padded = np.zeros((batch, padded_len, channels), dtype=np.float64)
        span = self.stride * (out_len - 1) + 1
        for k in range(self.kernel_size):
            grad_padded[:, k : k + span : self.stride, :] += grad_windows[:, :, k, :]
        return grad_padded[:, self.padding : self.padding + length, :]

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


class MaxPool1D(Layer):
    """Max pooling over non-overlapping windows of the time axis (channels-last)."""

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._input_shape: Optional[tuple] = None
        self._argmax: Optional[np.ndarray] = None

    def _whole_windows(self, x: np.ndarray) -> np.ndarray:
        whole = x.shape[1] // self.pool_size
        return x[:, : whole * self.pool_size].reshape(x.shape[0], whole, self.pool_size, x.shape[2])

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"MaxPool1D expects (batch, length, channels); got {x.shape}")
        if x.shape[1] < self.pool_size:
            raise ValueError(f"input length {x.shape[1]} too short for pool {self.pool_size}")
        self._input_shape = x.shape
        windows = self._whole_windows(x)  # a view: (B, O, pool_size, C)
        self._argmax = windows.argmax(axis=2)  # (B, O, C)
        return windows.max(axis=2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape = self._require_cache(self._input_shape, "input shape")
        argmax = self._require_cache(self._argmax, "argmax indices")
        grad_input = np.zeros(shape, dtype=np.float64)
        # "+ 0.0" stores a -0.0 gradient as +0.0, as adding it onto zeros did.
        routed = np.asarray(grad_output, dtype=np.float64)[:, :, None, :] + 0.0
        np.put_along_axis(self._whole_windows(grad_input), argmax[:, :, None, :], routed, axis=2)
        return grad_input


class GlobalAveragePool1D(Layer):
    """Average over the time axis, producing one value per channel."""

    def __init__(self) -> None:
        self._input_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"GlobalAveragePool1D expects 3-D input; got {x.shape}")
        self._input_shape = x.shape
        return x.mean(axis=1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        shape = self._require_cache(self._input_shape, "input shape")
        batch, length, channels = shape
        grad_output = np.asarray(grad_output, dtype=np.float64)
        return np.repeat(grad_output[:, None, :], length, axis=1) / float(length)


class ReLU(Layer):
    """Rectified linear unit activation."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        mask = self._require_cache(self._mask, "activation mask")
        return np.asarray(grad_output, dtype=np.float64) * mask
