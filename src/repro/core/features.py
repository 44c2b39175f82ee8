"""1D-CNN compression of user-digital-twin time series.

The paper "first utilize[s] a one-dimensional convolution neural network
(1D-CNN) to compress the time-series UDTs' data" before clustering.  The
compressor below is a small convolutional encoder trained with a
self-supervised objective: predict per-channel summary statistics (mean,
standard deviation, minimum, maximum) of the input window from the
compressed representation.  A representation that can reproduce those
statistics necessarily encodes the user's channel quality, position range,
engagement level and preference profile — exactly the similarity signal the
multicast grouping needs — while being an order of magnitude smaller than
the raw window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.ml.layers import (
    Conv1D,
    Dense,
    GlobalAveragePool1D,
    Layer,
    MaxPool1D,
    ReLU,
)
from repro.ml.losses import MSELoss
from repro.ml.network import Sequential, TrainingHistory
from repro.ml.optim import Adam


@dataclass
class CompressorConfig:
    """Hyper-parameters of the 1D-CNN compressor."""

    num_steps: int = 32
    num_channels: int = 12
    compressed_dim: int = 8
    conv_channels: tuple = (16, 32)
    kernel_size: int = 3
    epochs: int = 12
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_steps <= 0 or self.num_channels <= 0 or self.compressed_dim <= 0:
            raise ValueError("num_steps, num_channels and compressed_dim must be positive")
        if len(self.conv_channels) == 0:
            raise ValueError("need at least one convolutional layer")
        if self.kernel_size <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("kernel_size, epochs and batch_size must be positive")


def summary_targets(tensor: np.ndarray) -> np.ndarray:
    """Self-supervised targets: per-channel mean, std, min and max.

    ``tensor`` has shape ``(users, steps, channels)``; the result has shape
    ``(users, 4 * channels)``.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3:
        raise ValueError("expected a tensor of shape (users, steps, channels)")
    stats = [
        tensor.mean(axis=1),
        tensor.std(axis=1),
        tensor.min(axis=1),
        tensor.max(axis=1),
    ]
    return np.concatenate(stats, axis=1)


class UDTFeatureCompressor:
    """Convolutional encoder from UDT time-series windows to feature vectors."""

    def __init__(self, config: Optional[CompressorConfig] = None) -> None:
        self.config = config if config is not None else CompressorConfig()
        # Imported lazily: repro.sim pulls in modules that import this one.
        from repro.sim.rng import legacy_stream

        rng = legacy_stream(self.config.seed)
        config = self.config

        encoder: List[Layer] = []
        in_channels = config.num_channels
        for out_channels in config.conv_channels:
            encoder.append(
                Conv1D(
                    in_channels,
                    out_channels,
                    kernel_size=config.kernel_size,
                    rng=rng,
                    padding=config.kernel_size // 2,
                )
            )
            encoder.append(ReLU())
            encoder.append(MaxPool1D(pool_size=2))
            in_channels = out_channels
        encoder.append(GlobalAveragePool1D())
        encoder.append(Dense(in_channels, config.compressed_dim, rng, weight_init="glorot"))
        head: List[Layer] = [
            ReLU(),
            Dense(config.compressed_dim, 4 * config.num_channels, rng, weight_init="glorot"),
        ]
        # Training runs encoder + summary-statistics head; compression runs
        # the same encoder layer objects on their own.
        self._encoder = Sequential(encoder)
        self._network = Sequential(encoder + head)
        self._optimizer = Adam(self._network.parameters(), learning_rate=config.learning_rate)
        self._loss = MSELoss()
        self._rng = rng
        self._channel_mean: Optional[np.ndarray] = None
        self._channel_std: Optional[np.ndarray] = None
        self.fitted = False

    # ------------------------------------------------------------ internals
    def _validate_tensor(self, tensor: np.ndarray) -> np.ndarray:
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.ndim != 3:
            raise ValueError("expected a tensor of shape (users, steps, channels)")
        if tensor.shape[1] != self.config.num_steps:
            raise ValueError(
                f"expected {self.config.num_steps} time steps, got {tensor.shape[1]}"
            )
        if tensor.shape[2] != self.config.num_channels:
            raise ValueError(
                f"expected {self.config.num_channels} channels, got {tensor.shape[2]}"
            )
        return tensor

    def _normalise(self, tensor: np.ndarray) -> np.ndarray:
        if self._channel_mean is None or self._channel_std is None:
            return tensor
        return (tensor - self._channel_mean) / self._channel_std

    # -------------------------------------------------------------- training
    def fit(self, tensor: np.ndarray) -> TrainingHistory:
        """Train the compressor on a population feature tensor.

        ``tensor`` has shape ``(users, steps, channels)`` — typically the
        output of :meth:`repro.twin.manager.DigitalTwinManager.feature_tensor`
        over one or more reservation intervals.
        """
        tensor = self._validate_tensor(tensor)

        # Channel-wise normalisation of inputs and standardised targets.
        self._channel_mean = tensor.mean(axis=(0, 1), keepdims=True)
        self._channel_std = tensor.std(axis=(0, 1), keepdims=True) + 1e-8
        normalised = self._normalise(tensor)
        targets = summary_targets(normalised)
        target_mean = targets.mean(axis=0, keepdims=True)
        target_std = targets.std(axis=0, keepdims=True) + 1e-8
        history = self._network.fit(
            normalised,
            (targets - target_mean) / target_std,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            loss=self._loss,
            optimizer=self._optimizer,
            rng=self._rng,
            grad_clip=5.0,
        )
        self.fitted = True
        return history

    # ------------------------------------------------------------ inference
    def compress(self, tensor: np.ndarray) -> np.ndarray:
        """Compress a feature tensor into per-user feature vectors.

        Returns an array of shape ``(users, compressed_dim)``.  An unfitted
        compressor falls back to normalised per-channel statistics projected
        onto the first ``compressed_dim`` components, so the pipeline stays
        usable before / without training.
        """
        tensor = self._validate_tensor(tensor)
        if not self.fitted:
            stats = summary_targets(tensor)
            return stats[:, : self.config.compressed_dim]
        return self._encoder.predict(self._normalise(tensor))

    @property
    def compression_ratio(self) -> float:
        """Raw window size divided by the compressed dimension."""
        raw = self.config.num_steps * self.config.num_channels
        return raw / self.config.compressed_dim
