"""Numerical gradient checking for the layer and network tests.

The test-suite validates every layer's analytic backward pass against central
finite differences; this module is that finite-difference reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ml.layers import Layer
from repro.ml.network import Sequential


def numerical_gradient(
    func: Callable[[np.ndarray], float],
    x: np.ndarray,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + epsilon
        plus = func(x)
        x[idx] = original - epsilon
        minus = func(x)
        x[idx] = original
        grad[idx] = (plus - minus) / (2.0 * epsilon)
        it.iternext()
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max relative error between two gradient arrays (0 when both are 0)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denominator = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denominator))


def check_layer_input_gradient(
    layer: Layer,
    x: np.ndarray,
    epsilon: float = 1e-6,
) -> float:
    """Compare the layer's input gradient with finite differences.

    Uses ``0.5 * sum(output^2)`` as the scalar objective, whose gradient with
    respect to the layer output is simply the output itself.

    Returns the maximum relative error.
    """
    x = np.asarray(x, dtype=np.float64)

    def objective(inp: np.ndarray) -> float:
        out = layer.forward(inp, training=False)
        return 0.5 * float(np.sum(out**2))

    out = layer.forward(x, training=False)
    analytic = layer.backward(out)
    numeric = numerical_gradient(objective, x.copy(), epsilon=epsilon)
    return relative_error(analytic, numeric)


def check_layer_parameter_gradients(
    layer: Layer,
    x: np.ndarray,
    epsilon: float = 1e-6,
) -> float:
    """Compare parameter gradients with finite differences.

    Returns the maximum relative error across all parameters of the layer;
    returns 0.0 for parameter-free layers.
    """
    x = np.asarray(x, dtype=np.float64)
    params = layer.parameters()
    if not params:
        return 0.0

    layer.zero_grad()
    out = layer.forward(x, training=False)
    layer.backward(out)
    worst = 0.0
    for param in params:
        analytic = param.grad.copy()

        def objective(values: np.ndarray, _param=param) -> float:
            original = _param.value
            _param.value = values
            out_local = layer.forward(x, training=False)
            _param.value = original
            return 0.5 * float(np.sum(out_local**2))

        numeric = numerical_gradient(objective, param.value.copy(), epsilon=epsilon)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


def check_network_gradients(
    network: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    loss,
    epsilon: float = 1e-6,
) -> float:
    """End-to-end gradient check of a network against a loss function."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    network.zero_grad()
    prediction = network.forward(x, training=False)
    grad = loss.gradient(prediction, y)
    network.backward(grad)

    worst = 0.0
    for param in network.parameters():
        analytic = param.grad.copy()

        def objective(values: np.ndarray, _param=param) -> float:
            original = _param.value
            _param.value = values
            pred_local = network.forward(x, training=False)
            _param.value = original
            return loss.value(pred_local, y)

        numeric = numerical_gradient(objective, param.value.copy(), epsilon=epsilon)
        worst = max(worst, relative_error(analytic, numeric))
    return worst
