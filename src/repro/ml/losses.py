"""Loss functions for the NumPy neural-network framework.

Each loss exposes ``value(prediction, target)`` returning a scalar and
``gradient(prediction, target)`` returning the derivative with respect to
the prediction, averaged over the batch so that learning rates are
independent of batch size.
"""

from __future__ import annotations

import numpy as np


class Loss:
    """Base class for losses."""

    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _validate(prediction: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        prediction = np.asarray(prediction, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction shape {prediction.shape} does not match target shape {target.shape}"
            )
        return prediction, target


class MSELoss(Loss):
    """Mean squared error, averaged over every element of the batch."""

    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction, target = self._validate(prediction, target)
        return float(np.mean((prediction - target) ** 2))

    def gradient(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        prediction, target = self._validate(prediction, target)
        return 2.0 * (prediction - target) / prediction.size


class HuberLoss(Loss):
    """Huber loss; quadratic near zero, linear in the tails.

    Used for DDQN temporal-difference targets, where occasional large TD
    errors would otherwise destabilise training with a pure MSE objective.
    """

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)

    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction, target = self._validate(prediction, target)
        error = prediction - target
        abs_error = np.abs(error)
        quadratic = np.minimum(abs_error, self.delta)
        linear = abs_error - quadratic
        return float(np.mean(0.5 * quadratic**2 + self.delta * linear))

    def gradient(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        prediction, target = self._validate(prediction, target)
        error = prediction - target
        grad = np.clip(error, -self.delta, self.delta)
        return grad / prediction.size
