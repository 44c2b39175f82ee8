"""Unit tests for the Sequential container and network-level gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import Adam, Dense, MSELoss, ReLU, Sequential
from gradcheck import check_network_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(2)


def make_mlp(rng, in_dim=3, hidden=8, out_dim=2):
    return Sequential([Dense(in_dim, hidden, rng), ReLU(), Dense(hidden, out_dim, rng)])


class TestSequentialBasics:
    def test_requires_at_least_one_layer(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_forward_shape(self, rng):
        net = make_mlp(rng)
        assert net.forward(rng.normal(size=(5, 3))).shape == (5, 2)

    def test_call_equals_forward(self, rng):
        net = make_mlp(rng)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(net(x), net.forward(x))

    def test_get_set_weights_roundtrip(self, rng):
        net = make_mlp(rng)
        other = make_mlp(np.random.default_rng(99))
        other.set_weights(net.get_weights())
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(net.predict(x), other.predict(x))

    def test_set_weights_shape_mismatch_raises(self, rng):
        net = make_mlp(rng)
        weights = net.get_weights()
        weights[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.set_weights(weights)

    def test_copy_weights_from(self, rng):
        net = make_mlp(rng)
        target = make_mlp(np.random.default_rng(100))
        target.copy_weights_from(net)
        for a, b in zip(net.get_weights(), target.get_weights()):
            np.testing.assert_allclose(a, b)

    def test_copy_weights_from_does_not_alias_the_source(self, rng):
        net = make_mlp(rng)
        target = make_mlp(np.random.default_rng(100))
        target.copy_weights_from(net)
        copied = target.get_weights()
        for param in net.parameters():
            param.value += 1.0
        for before, after in zip(copied, target.get_weights()):
            np.testing.assert_array_equal(before, after)

    def test_set_weights_rejects_wrong_count(self, rng):
        net = make_mlp(rng)
        with pytest.raises(ValueError, match="expected 4 weight arrays"):
            net.set_weights(net.get_weights()[:-1])

    def test_parameters_list_every_weight_in_layer_order(self, rng):
        net = make_mlp(rng)
        shapes = [param.shape for param in net.parameters()]
        assert shapes == [(3, 8), (8,), (8, 2), (2,)]
        # (3*8 + 8) + (8*2 + 2) = 32 + 18
        assert sum(param.value.size for param in net.parameters()) == 50

    def test_zero_grad_clears_every_layer(self, rng):
        net = make_mlp(rng)
        net.forward(rng.normal(size=(4, 3)), training=True)
        net.backward(np.ones((4, 2)))
        assert any(np.any(param.grad != 0) for param in net.parameters())
        net.zero_grad()
        for param in net.parameters():
            np.testing.assert_array_equal(param.grad, 0.0)


class TestTraining:
    def test_fit_reduces_loss_on_linear_data(self, rng):
        net = Sequential([Dense(2, 16, rng), ReLU(), Dense(16, 1, rng)])
        x = rng.normal(size=(128, 2))
        y = (x @ np.array([[1.0], [-2.0]])) + 0.5
        history = net.fit(
            x,
            y,
            epochs=30,
            batch_size=16,
            optimizer=Adam(net.parameters(), 1e-2),
            rng=np.random.default_rng(0),
        )
        assert history.train_loss[-1] < history.train_loss[0] * 0.2

    def test_fit_rejects_mismatched_samples(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        with pytest.raises(ValueError):
            net.fit(np.zeros((4, 2)), np.zeros((5, 1)), epochs=1)

    def test_fit_rejects_non_positive_epochs(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        with pytest.raises(ValueError):
            net.fit(np.zeros((4, 2)), np.zeros((4, 1)), epochs=0)

    def test_fit_rejects_non_positive_batch_size(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        with pytest.raises(ValueError):
            net.fit(np.zeros((4, 2)), np.zeros((4, 1)), batch_size=0)

    def test_fit_records_one_mean_batch_loss_per_epoch(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        x = rng.normal(size=(32, 2))
        y = x.sum(axis=1, keepdims=True)
        history = net.fit(x, y, epochs=3, batch_size=8, rng=np.random.default_rng(0))
        assert len(history.train_loss) == 3
        assert all(np.isfinite(loss) and loss > 0 for loss in history.train_loss)

    def test_fit_requires_rng(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        with pytest.raises(ValueError, match="requires an explicit rng"):
            net.fit(np.zeros((4, 2)), np.zeros((4, 1)), epochs=1)

    def test_train_batch_returns_loss(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        loss = MSELoss()
        optimizer = Adam(net.parameters(), 1e-3)
        value = net.train_batch(np.zeros((4, 2)), np.ones((4, 1)), loss, optimizer)
        assert value > 0


def test_network_gradients_end_to_end(rng):
    net = Sequential([Dense(3, 6, rng), ReLU(), Dense(6, 2, rng)])
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))
    error = check_network_gradients(net, x, y, MSELoss())
    assert error < 1e-5
