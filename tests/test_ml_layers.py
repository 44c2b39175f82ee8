"""Unit tests for the neural-network layers, including gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import (
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    GlobalAveragePool1D,
    LeakyReLU,
    MaxPool1D,
    ReLU,
    Sigmoid,
    Tanh,
)
from gradcheck import (
    check_layer_input_gradient,
    check_layer_parameter_gradients,
)
from repro.ml.layers import count_parameters


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestDense:
    def test_output_shape(self, rng):
        layer = Dense(4, 3, rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_promotes_single_sample(self, rng):
        layer = Dense(4, 3, rng)
        out = layer.forward(rng.normal(size=4))
        assert out.shape == (1, 3)

    def test_rejects_wrong_feature_count(self, rng):
        layer = Dense(4, 3, rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(5, 7)))

    def test_rejects_non_positive_dims(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng)

    def test_no_bias_has_single_parameter(self, rng):
        layer = Dense(4, 3, rng, use_bias=False)
        assert len(layer.parameters()) == 1

    def test_linear_in_input(self, rng):
        layer = Dense(4, 2, rng, use_bias=False)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(layer.forward(2.0 * x), 2.0 * layer.forward(x))

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, rng)
        error = check_layer_input_gradient(layer, rng.normal(size=(2, 4)))
        assert error < 1e-5

    def test_parameter_gradients(self, rng):
        layer = Dense(4, 3, rng)
        error = check_layer_parameter_gradients(layer, rng.normal(size=(2, 4)))
        assert error < 1e-5


class TestConv1D:
    def test_output_shape_no_padding(self, rng):
        layer = Conv1D(2, 4, kernel_size=3, rng=rng)
        out = layer.forward(rng.normal(size=(5, 10, 2)))
        assert out.shape == (5, 8, 4)

    def test_output_shape_with_padding(self, rng):
        layer = Conv1D(2, 4, kernel_size=3, rng=rng, padding=1)
        out = layer.forward(rng.normal(size=(5, 10, 2)))
        assert out.shape == (5, 10, 4)

    def test_output_shape_with_stride(self, rng):
        layer = Conv1D(1, 2, kernel_size=2, rng=rng, stride=2)
        out = layer.forward(rng.normal(size=(3, 8, 1)))
        assert out.shape == (3, 4, 2)

    def test_rejects_wrong_rank(self, rng):
        layer = Conv1D(2, 4, kernel_size=3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(5, 10)))

    def test_rejects_bad_kernel(self, rng):
        with pytest.raises(ValueError):
            Conv1D(2, 4, kernel_size=0, rng=rng)

    def test_known_convolution_value(self, rng):
        layer = Conv1D(1, 1, kernel_size=2, rng=rng, use_bias=False)
        layer.weight.value = np.ones((2, 1, 1))
        x = np.arange(4, dtype=float).reshape(1, 4, 1)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, :, 0], [1.0, 3.0, 5.0])

    def test_input_gradient(self, rng):
        layer = Conv1D(2, 3, kernel_size=3, rng=rng, padding=1)
        error = check_layer_input_gradient(layer, rng.normal(size=(2, 6, 2)))
        assert error < 1e-5

    def test_parameter_gradients(self, rng):
        layer = Conv1D(2, 3, kernel_size=3, rng=rng)
        error = check_layer_parameter_gradients(layer, rng.normal(size=(2, 6, 2)))
        assert error < 1e-5


class TestPoolingAndReshaping:
    def test_maxpool_output(self, rng):
        layer = MaxPool1D(pool_size=2)
        x = np.array([[[1.0], [3.0], [2.0], [5.0]]])
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, :, 0], [3.0, 5.0])

    def test_maxpool_gradient_routes_to_max(self, rng):
        layer = MaxPool1D(pool_size=2)
        error = check_layer_input_gradient(layer, rng.normal(size=(2, 6, 3)))
        assert error < 1e-5

    def test_global_average_pool(self, rng):
        layer = GlobalAveragePool1D()
        x = rng.normal(size=(4, 5, 3))
        out = layer.forward(x)
        np.testing.assert_allclose(out, x.mean(axis=1))

    def test_global_average_pool_gradient(self, rng):
        layer = GlobalAveragePool1D()
        error = check_layer_input_gradient(layer, rng.normal(size=(2, 5, 3)))
        assert error < 1e-6

    def test_flatten_roundtrip_shape(self, rng):
        layer = Flatten()
        x = rng.normal(size=(4, 5, 3))
        out = layer.forward(x)
        assert out.shape == (4, 15)
        grad = layer.backward(out)
        assert grad.shape == x.shape


class TestActivations:
    @pytest.mark.parametrize("activation", [ReLU(), Tanh(), Sigmoid(), LeakyReLU(0.1)])
    def test_input_gradient(self, activation, rng):
        error = check_layer_input_gradient(activation, rng.normal(size=(3, 7)) + 0.05)
        assert error < 1e-5

    def test_relu_clips_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])

    def test_leaky_relu_keeps_scaled_negatives(self):
        out = LeakyReLU(0.1).forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[-0.1, 2.0]])

    def test_sigmoid_range(self, rng):
        out = Sigmoid().forward(rng.normal(size=(10, 4)) * 5)
        assert np.all(out > 0) and np.all(out < 1)

    def test_tanh_range(self, rng):
        out = Tanh().forward(rng.normal(size=(10, 4)) * 5)
        assert np.all(out > -1) and np.all(out < 1)


class TestDropout:
    def test_identity_at_inference(self, rng):
        layer = Dropout(0.5, rng)
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_zeroes_some_units_in_training(self, rng):
        layer = Dropout(0.5, rng)
        x = np.ones((20, 20))
        out = layer.forward(x, training=True)
        assert (out == 0).sum() > 0

    def test_scaling_preserves_expectation(self, rng):
        layer = Dropout(0.3, rng)
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        assert abs(out.mean() - 1.0) < 0.05


def test_count_parameters(rng):
    layers = [Dense(4, 8, rng), ReLU(), Dense(8, 2, rng)]
    # (4*8 + 8) + (8*2 + 2)
    assert count_parameters(layers) == 58
