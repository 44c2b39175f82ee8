"""Unit tests for the Sequential container and network-level gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import Adam, Dense, MSELoss, ReLU, Sequential, Tanh
from gradcheck import check_network_gradients
from repro.ml.network import TrainingHistory


@pytest.fixture
def rng():
    return np.random.default_rng(2)


def make_mlp(rng, in_dim=3, hidden=8, out_dim=2):
    return Sequential([Dense(in_dim, hidden, rng), Tanh(), Dense(hidden, out_dim, rng)])


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

    def test_num_parameters(self, rng):
        net = make_mlp(rng)
        # (3*8 + 8) + (8*2 + 2) = 32 + 18
        assert net.num_parameters() == 50

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

    def test_soft_update_moves_towards_source(self, rng):
        net = make_mlp(rng)
        target = make_mlp(np.random.default_rng(100))
        before = [w.copy() for w in target.get_weights()]
        target.soft_update_from(net, tau=0.5)
        for b, after, source in zip(before, target.get_weights(), net.get_weights()):
            np.testing.assert_allclose(after, 0.5 * b + 0.5 * source)

    def test_soft_update_rejects_bad_tau(self, rng):
        net = make_mlp(rng)
        with pytest.raises(ValueError):
            net.soft_update_from(make_mlp(rng), tau=0.0)


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

    def test_fit_records_validation_loss(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        x = rng.normal(size=(32, 2))
        y = x.sum(axis=1, keepdims=True)
        history = net.fit(
            x, y, epochs=3, validation_data=(x, y), rng=np.random.default_rng(0)
        )
        assert len(history.validation_loss) == 3

    def test_fit_rejects_mismatched_samples(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        with pytest.raises(ValueError):
            net.fit(np.zeros((4, 2)), np.zeros((5, 1)), epochs=1)

    def test_fit_rejects_non_positive_epochs(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        with pytest.raises(ValueError):
            net.fit(np.zeros((4, 2)), np.zeros((4, 1)), epochs=0)

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

    def test_fit_callback_invoked_per_epoch(self, rng):
        net = make_mlp(rng, in_dim=2, out_dim=1)
        calls = []
        net.fit(
            np.zeros((8, 2)),
            np.zeros((8, 1)),
            epochs=4,
            callback=lambda epoch, loss: calls.append(epoch),
            rng=np.random.default_rng(0),
        )
        assert calls == [0, 1, 2, 3]


class TestTrainingHistory:
    def test_last_raises_when_empty(self):
        with pytest.raises(ValueError):
            TrainingHistory().last()

    def test_improved_true_with_short_history(self):
        history = TrainingHistory(train_loss=[1.0, 0.9])
        assert history.improved(patience=5)

    def test_improved_detects_plateau(self):
        history = TrainingHistory(train_loss=[1.0, 0.5, 0.5, 0.5, 0.5, 0.5])
        assert not history.improved(patience=3)


def test_network_gradients_end_to_end(rng):
    net = Sequential([Dense(3, 6, rng), Tanh(), Dense(6, 2, rng)])
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 2))
    error = check_network_gradients(net, x, y, MSELoss())
    assert error < 1e-5
