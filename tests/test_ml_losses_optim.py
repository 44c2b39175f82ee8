"""Unit tests for losses, optimizers and initializers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import (
    Adam,
    HuberLoss,
    MSELoss,
    glorot_uniform,
    he_uniform,
    zeros_init,
)
from repro.ml.layers import Parameter


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestLosses:
    def test_mse_zero_for_identical(self):
        pred = np.array([[1.0, 2.0]])
        assert MSELoss().value(pred, pred) == 0.0

    def test_mse_known_value(self):
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        assert MSELoss().value(pred, target) == pytest.approx(2.5)

    def test_mse_gradient_matches_finite_difference(self, rng):
        loss = MSELoss()
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        grad = loss.gradient(pred, target)
        eps = 1e-6
        for index in np.ndindex(pred.shape):
            perturbed = pred.copy()
            perturbed[index] += eps
            numeric = (loss.value(perturbed, target) - loss.value(pred, target)) / eps
            assert grad[index] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_huber_equals_mse_like_for_small_errors(self):
        pred = np.array([[0.1]])
        target = np.array([[0.0]])
        assert HuberLoss(delta=1.0).value(pred, target) == pytest.approx(0.005)

    def test_huber_linear_for_large_errors(self):
        pred = np.array([[10.0]])
        target = np.array([[0.0]])
        value = HuberLoss(delta=1.0).value(pred, target)
        assert value == pytest.approx(1.0 * (10.0 - 0.5))

    def test_huber_gradient_bounded(self, rng):
        loss = HuberLoss(delta=1.0)
        pred = rng.normal(size=(4, 4)) * 100
        target = np.zeros((4, 4))
        grad = loss.gradient(pred, target)
        assert np.all(np.abs(grad) <= 1.0 / pred.size + 1e-9) or np.all(np.isfinite(grad))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MSELoss().value(np.zeros((2, 2)), np.zeros((3, 2)))


class TestOptimizers:
    def _quadratic_step(self, optimizer_factory, steps=200):
        rng = np.random.default_rng(0)
        param = Parameter(rng.normal(size=(4,)), name="w")
        optimizer = optimizer_factory([param])
        for _ in range(steps):
            optimizer.zero_grad()
            param.grad += 2.0 * param.value  # d/dw ||w||^2
            optimizer.step()
        return np.linalg.norm(param.value)

    def test_adam_minimises_quadratic(self):
        assert self._quadratic_step(lambda p: Adam(p, learning_rate=0.05)) < 1e-2

    def test_gradient_clipping_limits_norm(self, rng):
        param = Parameter(np.zeros(3), name="w")
        optimizer = Adam([param], learning_rate=0.1)
        param.grad += np.array([30.0, 40.0, 0.0])
        norm = optimizer.clip_gradients(max_norm=5.0)
        assert norm == pytest.approx(50.0)
        assert np.linalg.norm(param.grad) == pytest.approx(5.0)

    def test_zero_grad_resets(self, rng):
        param = Parameter(np.zeros(3), name="w")
        optimizer = Adam([param], learning_rate=0.1)
        param.grad += 1.0
        optimizer.zero_grad()
        np.testing.assert_allclose(param.grad, 0.0)

    def test_adam_first_step_moves_each_weight_by_the_learning_rate(self):
        # Bias correction makes the first step -lr * g / (|g| + eps).
        param = Parameter(np.zeros(3), name="w")
        optimizer = Adam([param], learning_rate=0.01)
        param.grad += np.array([4.0, -0.5, 0.0])
        optimizer.step()
        np.testing.assert_allclose(param.value, [-0.01, 0.01, 0.0], rtol=1e-6)

    def test_clipping_leaves_small_gradients_unchanged(self):
        param = Parameter(np.zeros(2), name="w")
        optimizer = Adam([param], learning_rate=0.1)
        param.grad += np.array([3.0, 4.0])
        assert optimizer.clip_gradients(max_norm=10.0) == pytest.approx(5.0)
        np.testing.assert_array_equal(param.grad, [3.0, 4.0])

    def test_clipping_rejects_non_positive_norm(self):
        optimizer = Adam([Parameter(np.zeros(2), name="w")])
        with pytest.raises(ValueError, match="max_norm"):
            optimizer.clip_gradients(max_norm=0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"learning_rate": 0.0}, "learning rate"),
            ({"beta1": 1.0}, "betas"),
            ({"beta2": -0.1}, "betas"),
        ],
        ids=["learning_rate", "beta1", "beta2"],
    )
    def test_adam_rejects_invalid_hyperparameters(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Adam([Parameter(np.zeros(2), name="w")], **kwargs)

    def test_adam_rejects_no_parameters(self):
        with pytest.raises(ValueError, match="no parameters"):
            Adam([])


class TestInitializers:
    def test_zeros_init(self):
        np.testing.assert_allclose(zeros_init((3, 2)), 0.0)

    def test_glorot_bounds(self, rng):
        values = glorot_uniform((50, 50), rng)
        limit = np.sqrt(6.0 / 100)
        assert np.all(np.abs(values) <= limit + 1e-12)

    def test_he_bounds(self, rng):
        values = he_uniform((50, 50), rng)
        limit = np.sqrt(6.0 / 50)
        assert np.all(np.abs(values) <= limit + 1e-12)
