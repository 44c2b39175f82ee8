"""Unit tests for the neural-network layers, including gradient checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.ml import Conv1D, Dense, GlobalAveragePool1D, MaxPool1D, ReLU
from gradcheck import (
    check_layer_input_gradient,
    check_layer_parameter_gradients,
)
from repro.ml.layers import _sliding_windows
from conv1d_reference import reference_backward, reference_forward, reference_windows
from maxpool_reference import ReferenceMaxPool1D


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


@settings(max_examples=200, deadline=None)
@given(
    batch=st.integers(1, 20),
    length=st.integers(1, 40),
    in_channels=st.integers(1, 12),
    out_channels=st.integers(1, 16),
    kernel_size=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    use_bias=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    batch=1, length=1, in_channels=1, out_channels=1, kernel_size=5, stride=3,
    padding=2, use_bias=True, scale=1.0, seed=0,
)
@example(
    batch=20, length=32, in_channels=12, out_channels=16, kernel_size=3, stride=1,
    padding=1, use_bias=True, scale=1.0, seed=1,
)
def test_conv1d_matches_the_einsum_reference(
    batch, length, in_channels, out_channels, kernel_size, stride, padding, use_bias, scale, seed
):
    """The im2col products sum in another order than the einsum reference.
    Each side of an ``n``-term sum is within ``n * eps * S`` of the exact
    value, ``S`` being the same sum over absolute values, so the two may
    differ by ``2 * n * eps * S``.  The windows and the bias gradient are
    unchanged."""
    assume(length + 2 * padding >= kernel_size)
    rng = np.random.default_rng(seed)
    layer = Conv1D(
        in_channels, out_channels, kernel_size, rng, stride=stride, padding=padding,
        use_bias=use_bias,
    )
    weight = layer.weight.value
    bias = None
    if use_bias:
        bias = layer.bias.value = rng.normal(size=out_channels) * scale
    x = rng.normal(size=(batch, length, in_channels)) * scale
    out_len = (length + 2 * padding - kernel_size) // stride + 1
    grad_output = rng.normal(size=(batch, out_len, out_channels))

    # The references and their bounds, fixed before the layer runs.
    eps = np.finfo(np.float64).eps
    out_ref = reference_forward(x, weight, bias, stride, padding)
    abs_bias = None if bias is None else np.abs(bias)
    out_abs = reference_forward(np.abs(x), np.abs(weight), abs_bias, stride, padding)
    out_terms = kernel_size * in_channels + (bias is not None)
    grad_input_ref, grad_weight_ref, grad_bias_ref = reference_backward(
        x, weight, grad_output, stride, padding
    )
    grad_input_abs, grad_weight_abs, _ = reference_backward(
        np.abs(x), np.abs(weight), np.abs(grad_output), stride, padding
    )
    input_terms = out_channels * -(-kernel_size // stride)
    weight_terms = batch * out_len

    padded = np.pad(x, ((0, 0), (padding, padding), (0, 0)))
    windows = _sliding_windows(padded, kernel_size, stride)
    assert windows.flags.c_contiguous
    assert np.array_equal(windows, reference_windows(padded, kernel_size, stride))

    out = layer.forward(x)
    grad_input = layer.backward(grad_output)
    assert out.shape == out_ref.shape and grad_input.shape == x.shape
    assert np.all(np.abs(out - out_ref) <= 2 * out_terms * eps * out_abs)
    assert np.all(np.abs(grad_input - grad_input_ref) <= 2 * input_terms * eps * grad_input_abs)
    assert np.all(
        np.abs(layer.weight.grad - grad_weight_ref) <= 2 * weight_terms * eps * grad_weight_abs
    )
    if use_bias:
        assert np.array_equal(layer.bias.grad, grad_bias_ref)


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

    def test_global_average_pool_rejects_wrong_rank(self, rng):
        with pytest.raises(ValueError):
            GlobalAveragePool1D().forward(rng.normal(size=(4, 5)))

    def test_maxpool_rejects_non_positive_pool(self):
        with pytest.raises(ValueError):
            MaxPool1D(pool_size=0)

    def test_maxpool_rejects_wrong_rank(self, rng):
        with pytest.raises(ValueError):
            MaxPool1D(pool_size=2).forward(rng.normal(size=(4, 6)))

    def test_maxpool_drops_the_trailing_partial_window(self):
        layer = MaxPool1D(pool_size=2)
        x = np.array([[[1.0], [3.0], [2.0], [5.0], [9.0]]])
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, :, 0], [3.0, 5.0])
        grad_input = layer.backward(np.array([[[10.0], [20.0]]]))
        np.testing.assert_allclose(grad_input[0, :, 0], [0.0, 10.0, 0.0, 20.0, 0.0])


def _with_ties(rng: np.random.Generator, shape: tuple, tie_share: float) -> np.ndarray:
    """Normal draws, a ``tie_share`` of them replaced by -0.0, 0.0, -1.0, 1.0, -inf, inf or NaN.

    NaN holds a pooling layer to argmax's rule, where the first NaN is the
    maximum of its window.
    """
    values = rng.normal(size=shape)
    tied = rng.random(shape) < tie_share
    specials = np.array([-0.0, 0.0, -1.0, 1.0, -np.inf, np.inf, np.nan])
    values[tied] = rng.choice(specials, size=int(tied.sum()))
    return values


@settings(max_examples=300, deadline=None)
@given(
    batch=st.integers(1, 8),
    length=st.integers(1, 40),
    channels=st.integers(1, 6),
    pool_size=st.integers(1, 4),
    tie_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(batch=1, length=3, channels=1, pool_size=4, tie_share=0.0, seed=0)
@example(batch=8, length=32, channels=6, pool_size=2, tie_share=1.0, seed=1)
def test_maxpool_matches_the_strided_reference(
    batch, length, channels, pool_size, tie_share, seed
):
    """The reshape view, the comparison argmax and ``put_along_axis`` agree
    with the strided windows, ``argmax`` and ``np.add.at`` in every byte:
    ties, signed zeros, infinities and NaN included."""
    rng = np.random.default_rng(seed)
    x = _with_ties(rng, (batch, length, channels), tie_share)
    layer, reference = MaxPool1D(pool_size), ReferenceMaxPool1D(pool_size)
    if length < pool_size:
        for pool in (layer, reference):
            with pytest.raises(ValueError, match="too short"):
                pool.forward(x)
        return
    out, out_ref = layer.forward(x), reference.forward(x)
    assert out.shape == out_ref.shape == (batch, length // pool_size, channels)
    assert out.tobytes() == out_ref.tobytes()
    assert layer._argmax.tobytes() == reference._argmax.tobytes()
    grad_output = _with_ties(rng, out.shape, tie_share)
    grad_input, grad_input_ref = layer.backward(grad_output), reference.backward(grad_output)
    assert grad_input.shape == x.shape
    assert grad_input.tobytes() == grad_input_ref.tobytes()


class TestActivations:
    @pytest.mark.parametrize("activation", [ReLU()])
    def test_input_gradient(self, activation, rng):
        error = check_layer_input_gradient(activation, rng.normal(size=(3, 7)) + 0.05)
        assert error < 1e-5

    def test_relu_clips_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])

    def test_relu_gradient_passes_only_positive_inputs(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        grad_input = layer.backward(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_allclose(grad_input, [[0.0, 0.0, 5.0]])


def _layer_cases():
    """One instance and a matching input shape of every layer type."""
    rng = np.random.default_rng(4)
    return [
        pytest.param(lambda: Dense(4, 3, rng), (2, 4), id="dense"),
        pytest.param(lambda: Conv1D(2, 3, kernel_size=3, rng=rng, padding=1), (2, 6, 2), id="conv1d"),
        pytest.param(lambda: MaxPool1D(pool_size=2), (2, 6, 3), id="maxpool"),
        pytest.param(GlobalAveragePool1D, (2, 5, 3), id="global_average_pool"),
        pytest.param(ReLU, (3, 7), id="relu"),
    ]


@pytest.mark.parametrize("make_layer, shape", _layer_cases())
def test_training_flag_leaves_the_output_unchanged(make_layer, shape, rng):
    layer = make_layer()
    x = rng.normal(size=shape)
    np.testing.assert_array_equal(layer.forward(x, training=True), layer.forward(x, training=False))


@pytest.mark.parametrize("make_layer, shape", _layer_cases())
def test_backward_before_forward_raises(make_layer, shape):
    with pytest.raises(RuntimeError, match="called before forward"):
        make_layer().backward(np.ones(shape))
