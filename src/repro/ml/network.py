"""Sequential network container with simple training helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.ml.layers import Layer, Parameter
from repro.ml.losses import Loss, MSELoss
from repro.ml.optim import Adam


@dataclass
class TrainingHistory:
    """Per-epoch loss curve recorded by :meth:`Sequential.fit`."""

    train_loss: List[float] = field(default_factory=list)


class Sequential:
    """A feed-forward stack of layers.

    The container chains ``forward`` calls in order and ``backward`` calls in
    reverse, which is all the 1D-CNN compressor and DDQN Q-networks require.
    :meth:`fit` is the one mini-batch training loop: the 1D-CNN compressor
    trains through it.  The DDQN takes one step per transition on targets
    from its target network, so it calls ``forward``/``backward`` itself.
    """

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ValueError("Sequential requires at least one layer")

    # ------------------------------------------------------------------ core
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=np.float64)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Run a forward pass in inference mode (``training=False``)."""
        return self.forward(x, training=False)

    # ------------------------------------------------------------ parameters
    def parameters(self) -> List[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    # -------------------------------------------------------- weight copying
    def get_weights(self) -> List[np.ndarray]:
        """Return copies of all parameter values (used for target networks)."""
        return [p.value.copy() for p in self.parameters()]

    def set_weights(self, weights: Iterable[np.ndarray]) -> None:
        weights = list(weights)
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(
                f"expected {len(params)} weight arrays, got {len(weights)}"
            )
        for param, value in zip(params, weights):
            if param.value.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {param.name}: {param.value.shape} vs {value.shape}"
                )
            param.value = value.copy()

    def copy_weights_from(self, other: "Sequential") -> None:
        """Hard-copy weights from ``other`` (e.g. online -> target network)."""
        self.set_weights(other.get_weights())

    # --------------------------------------------------------------- training
    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss: Loss,
        optimizer: Adam,
        grad_clip: Optional[float] = None,
    ) -> float:
        """Run one optimisation step on a single mini-batch and return the loss."""
        optimizer.zero_grad()
        prediction = self.forward(x, training=True)
        value = loss.value(prediction, y)
        grad = loss.gradient(prediction, y)
        self.backward(grad)
        if grad_clip is not None:
            optimizer.clip_gradients(grad_clip)
        optimizer.step()
        return value

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 32,
        loss: Optional[Loss] = None,
        optimizer: Optional[Adam] = None,
        rng: Optional[np.random.Generator] = None,
        grad_clip: Optional[float] = None,
    ) -> TrainingHistory:
        """Train with mini-batch gradient descent.

        Parameters mirror the familiar Keras-style ``fit`` signature; the
        defaults (MSE + Adam) suit the regression-style objectives used in
        the reproduction.  ``rng`` drives the per-epoch shuffle and is
        required: a hidden constant-seed fallback would correlate every
        caller that forgot to pass a stream.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of samples")
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if rng is None:
            raise ValueError(
                "fit() requires an explicit rng; pass np.random.default_rng(0) "
                "to reproduce the former implicit shuffle stream"
            )
        loss = loss if loss is not None else MSELoss()
        optimizer = optimizer if optimizer is not None else Adam(self.parameters())

        history = TrainingHistory()
        n = x.shape[0]
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                batch_idx = order[start : start + batch_size]
                batch_loss = self.train_batch(
                    x[batch_idx], y[batch_idx], loss, optimizer, grad_clip=grad_clip
                )
                epoch_losses.append(batch_loss)
            history.train_loss.append(float(np.mean(epoch_losses)))
        return history
