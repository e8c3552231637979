import math

import numpy as np
import pytest

from flipnet import Layer, Network, cross_entropy, evaluate_accuracy, forward, train
from flipnet.errors import InvalidInputError, InvalidParameterError
from flipnet.network import softmax_rows
from flipnet.training import SIGMA_FLOOR, TrainConfig, init_network


def blobs(rng, n=200, sep=4.0):
    half = n // 2
    X = np.concatenate([
        rng.normal(-sep / 2, 1.0, size=(half, 2)),
        rng.normal(sep / 2, 1.0, size=(half, 2)),
    ])
    y = np.concatenate([np.zeros(half, int), np.ones(half, int)])
    return X, y


class TestCrossEntropy:
    def test_confident(self):
        assert cross_entropy(np.array([1.0 - 1e-12, 1e-12]), 0) == pytest.approx(0.0, abs=1e-9)

    def test_uniform(self):
        assert cross_entropy(np.array([0.5, 0.5]), 0) == pytest.approx(math.log(2), rel=1e-12)
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2), rel=1e-12)

    def test_clamp_no_inf(self):
        assert np.isfinite(cross_entropy(np.array([0.0, 1.0]), 0))

    def test_invalid_label(self):
        with pytest.raises(InvalidParameterError):
            cross_entropy(np.array([0.5, 0.5]), 2)

    def test_gradient_wrt_logits_finite_difference(self, rng):
        z = rng.standard_normal(4)
        label = 2
        analytic = softmax_rows(z[None])[0] - np.eye(4)[label]
        h = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd = (
                cross_entropy(softmax_rows((z + e)[None])[0], label)
                - cross_entropy(softmax_rows((z - e)[None])[0], label)
            ) / (2 * h)
            assert abs(analytic[k] - fd) <= 1e-6 * max(abs(fd), 1e-6)


class TestTrain:
    def test_zero_epochs_unchanged(self, rng):
        X, y = blobs(rng)
        net = init_network([2, 8, 2], seed=1)
        trained, _ = train(net, X, y, TrainConfig(epochs=0, seed=0))
        for a, b in zip(net.layers, trained.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.sigma == b.sigma

    def test_separable_blobs_high_accuracy(self, rng):
        X, y = blobs(rng, n=200, sep=4.0)
        net = init_network([2, 8, 2], seed=2)
        cfg = TrainConfig(epochs=100, dropout_rate=0.0, seed=3, batch_size=32)
        trained, report = train(net, X, y, cfg)
        assert report.train_accuracy >= 0.99

    def test_loss_decreases(self, rng):
        X, y = blobs(rng)
        net = init_network([2, 8, 2], seed=4)
        _, report = train(net, X, y, TrainConfig(epochs=10, dropout_rate=0.0, seed=5))
        assert report.epoch_losses[9] < report.epoch_losses[0]

    def test_single_adam_step_hand_computed(self):
        # One sample, one batch, one epoch: the update must match the
        # Adam formula at t=1 computed by hand from the CE gradient.
        W = np.array([[0.3], [-0.2]])
        b = np.array([0.05, -0.05])
        net = Network([Layer(W.copy(), b.copy(), 1.0)])
        x = np.array([[2.0]])
        y = np.array([0])
        lr, eps = 0.01, 1e-8
        cfg = TrainConfig(
            learning_rate=lr, dropout_rate=0.0, epochs=1, batch_size=1,
            seed=0, adam_eps=eps, train_sigma=False,
        )
        trained, _ = train(net, x, y, cfg)

        z = W[:, 0] * 2.0 + b
        p = np.exp(z) / np.exp(z).sum()
        delta = p - np.array([1.0, 0.0])
        gW = delta[:, None] * x[0]
        gb = delta
        # t=1: m_hat = g, v_hat = g^2 -> step = lr * g / (|g| + eps)
        expW = W - lr * gW / (np.abs(gW) + eps)
        expb = b - lr * gb / (np.abs(gb) + eps)
        np.testing.assert_allclose(trained.layers[0].weights, expW, rtol=1e-12)
        np.testing.assert_allclose(trained.layers[0].bias, expb, rtol=1e-12)

    def test_seeded_determinism(self, rng):
        X, y = blobs(rng)
        net = init_network([2, 6, 2], seed=7)
        cfg = TrainConfig(epochs=5, dropout_rate=0.5, seed=11)
        a, _ = train(net, X, y, cfg)
        b, _ = train(net, X, y, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
            assert la.sigma == lb.sigma

    def test_sigma_floor(self, rng):
        X, y = blobs(rng)
        net = init_network([2, 4, 2], seed=8)
        cfg = TrainConfig(epochs=3, dropout_rate=0.0, seed=9, learning_rate=10.0)
        try:
            trained, _ = train(net, X, y, cfg)
        except Exception:
            return  # divergence is acceptable at this absurd rate
        for layer in trained.layers:
            assert layer.sigma >= SIGMA_FLOOR

    def test_sigma_trains_when_enabled(self, rng):
        X, y = blobs(rng)
        net = init_network([2, 8, 2], seed=10)
        on, _ = train(net, X, y, TrainConfig(epochs=5, dropout_rate=0.0, seed=1))
        off, _ = train(net, X, y, TrainConfig(epochs=5, dropout_rate=0.0, seed=1, train_sigma=False))
        assert on.layers[0].sigma != 1.0
        assert off.layers[0].sigma == 1.0

    def test_empty_dataset(self):
        net = init_network([2, 2], seed=0)
        with pytest.raises(InvalidInputError):
            train(net, np.empty((0, 2)), np.empty(0, int), TrainConfig(epochs=1))


class TestEvaluateAccuracy:
    def test_constant_prediction_on_balanced_data(self, rng):
        net = Network([Layer(np.zeros((2, 3)), np.zeros(2), 1.0)])
        X = rng.standard_normal((10, 3))
        y = np.array([0, 1] * 5)
        assert evaluate_accuracy(net, X, y) == 0.5  # argmax ties -> class 0

    def test_hand_counted(self, rng):
        net = init_network([2, 6, 2], seed=12)
        X = rng.standard_normal((10, 2))
        y = rng.integers(0, 2, 10)
        preds = [int(np.argmax(forward(net, x).logits)) for x in X]
        expected = sum(p == t for p, t in zip(preds, y)) / 10
        assert evaluate_accuracy(net, X, y) == expected

    def test_dropout_has_no_effect_at_inference(self, rng):
        X, y = blobs(rng)
        net = init_network([2, 8, 2], seed=13)
        acc = evaluate_accuracy(net, X, y)
        # dropout_rate lives in the config, not the network: evaluation
        # never consults it
        trained, _ = train(net, X, y, TrainConfig(epochs=0, dropout_rate=0.9))
        assert evaluate_accuracy(trained, X, y) == acc


class TestConfigValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(InvalidParameterError):
            TrainConfig(learning_rate=0.0)

    def test_bad_dropout(self):
        with pytest.raises(InvalidParameterError):
            TrainConfig(dropout_rate=1.0)

    @pytest.mark.parametrize("kwargs", [{"epochs": -1}, {"batch_size": 0}])
    def test_bad_epochs_or_batch_size(self, kwargs):
        with pytest.raises(InvalidParameterError):
            TrainConfig(**kwargs)
