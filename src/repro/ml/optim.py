"""The Adam optimiser both learners train with.

:class:`Adam` holds references to :class:`repro.ml.layers.Parameter`
objects and updates their ``value`` in place from the accumulated ``grad``
on every call to :meth:`Adam.step`.  Gradients are *not* cleared
automatically: :meth:`repro.ml.network.Sequential.train_batch` and the DDQN
agent call ``zero_grad`` before each backward pass.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ml.layers import Parameter


class Adam:
    """Adam optimiser (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.learning_rate = float(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def clip_gradients(self, max_norm: float) -> float:
        """Scale all gradients so their joint L2 norm is at most ``max_norm``.

        Returns the pre-clipping norm, which training loops can log to track
        stability.
        """
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        total = float(np.sqrt(sum(float(np.sum(p.grad**2)) for p in self.parameters)))
        if total > max_norm and total > 0:
            scale = max_norm / total
            for param in self.parameters:
                param.grad *= scale
        return total

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for m, v, param in zip(self._m, self._v, self.parameters):
            m *= self.beta1
            m += (1.0 - self.beta1) * param.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * param.grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
