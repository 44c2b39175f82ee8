"""Minimal NumPy neural-network framework used by the reproduction.

The paper trains a 1D-CNN (to compress time-series user-digital-twin data)
and a double deep Q-network (to select the multicast grouping number).
PyTorch is not available in the offline environment, so this subpackage
provides the small set of building blocks those two models need:

* :mod:`repro.ml.layers` -- the layers with explicit ``forward`` /
  ``backward`` passes: Dense, Conv1D, max and global-average pooling, and
  ReLU.
* :mod:`repro.ml.losses` -- the mean-squared-error loss the 1D-CNN trains
  with and the Huber loss the DDQN trains with.
* :mod:`repro.ml.optim` -- the Adam optimiser both models train with.
* :mod:`repro.ml.network` -- a ``Sequential`` container with ``fit`` /
  ``predict`` helpers.
* :mod:`repro.ml.initializers` -- weight initialisation schemes.

The framework is intentionally small but fully functional: every layer
implements an exact analytic gradient which is verified against finite
differences in the test-suite.
"""

from repro.ml.initializers import (
    glorot_uniform,
    he_uniform,
    zeros_init,
)
from repro.ml.layers import (
    Conv1D,
    Dense,
    GlobalAveragePool1D,
    Layer,
    MaxPool1D,
    Parameter,
    ReLU,
)
from repro.ml.losses import HuberLoss, Loss, MSELoss
from repro.ml.network import Sequential
from repro.ml.optim import Adam

__all__ = [
    "Adam",
    "Conv1D",
    "Dense",
    "GlobalAveragePool1D",
    "HuberLoss",
    "Layer",
    "Loss",
    "MSELoss",
    "MaxPool1D",
    "Parameter",
    "ReLU",
    "Sequential",
    "glorot_uniform",
    "he_uniform",
    "zeros_init",
]
