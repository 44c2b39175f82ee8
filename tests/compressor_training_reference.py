"""Hand-written epoch loop reference for the 1D-CNN compressor tests.

:meth:`repro.core.features.UDTFeatureCompressor.fit` trains through
:meth:`repro.ml.network.Sequential.fit`, and ``compress`` runs the encoder
through a second ``Sequential``.  This module writes both out layer by
layer, with the same shuffle draws, batch slices and operation order, and
the compressor must match it exactly.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.features import UDTFeatureCompressor, summary_targets


def reference_fit(compressor: UDTFeatureCompressor, tensor: np.ndarray) -> List[float]:
    """Train ``compressor`` in place and return the per-epoch mean losses."""
    config = compressor.config
    tensor = np.asarray(tensor, dtype=np.float64)
    compressor._channel_mean = tensor.mean(axis=(0, 1), keepdims=True)
    compressor._channel_std = tensor.std(axis=(0, 1), keepdims=True) + 1e-8
    normalised = (tensor - compressor._channel_mean) / compressor._channel_std
    targets = summary_targets(normalised)
    target_mean = targets.mean(axis=0, keepdims=True)
    target_std = targets.std(axis=0, keepdims=True) + 1e-8
    targets = (targets - target_mean) / target_std

    layers = compressor._network.layers
    optimizer = compressor._optimizer
    loss = compressor._loss
    train_loss: List[float] = []
    num_users = normalised.shape[0]
    for _ in range(config.epochs):
        order = compressor._rng.permutation(num_users)
        epoch_losses = []
        for start in range(0, num_users, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            x = normalised[batch_idx]
            y = targets[batch_idx]
            optimizer.zero_grad()
            prediction = x
            for layer in layers:
                prediction = layer.forward(prediction, training=True)
            epoch_losses.append(loss.value(prediction, y))
            grad = loss.gradient(prediction, y)
            for layer in reversed(layers):
                grad = layer.backward(grad)
            optimizer.clip_gradients(5.0)
            optimizer.step()
        train_loss.append(float(np.mean(epoch_losses)))
    compressor.fitted = True
    return train_loss


def reference_compress(compressor: UDTFeatureCompressor, tensor: np.ndarray) -> np.ndarray:
    """Encoder forward pass of a fitted ``compressor``, one layer at a time."""
    out = (np.asarray(tensor, dtype=np.float64) - compressor._channel_mean) / compressor._channel_std
    for layer in compressor._encoder.layers:
        out = layer.forward(out, training=False)
    return out
