import math

import numpy as np
import pytest

from flipnet import Layer, Network, cross_entropy, evaluate_accuracy, forward, train
from flipnet.errors import InvalidInputError, InvalidParameterError, ShapeError
from flipnet.network import softmax_rows
from flipnet.training import ADAM_EPS, SIGMA_FLOOR, TrainConfig, _loss_and_grads, init_network
from conftest import make_random_net


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

    @pytest.mark.parametrize("labels", [1.0, True, [0.0, 1.0]])
    def test_label_not_an_integer(self, labels):
        # a float label used to reach numpy's IndexError
        with pytest.raises(InvalidParameterError):
            cross_entropy(np.full((2, 2), 0.5), labels)

    def test_rows_match_single_rows(self, rng):
        softmax = softmax_rows(rng.standard_normal((5, 3)))
        labels = np.array([0, 2, 1, 1, 0])
        rows = cross_entropy(softmax, labels)
        assert rows.shape == (5,)
        for r in range(5):
            assert rows[r] == cross_entropy(softmax[r], labels[r])
        assert np.ndim(cross_entropy(softmax[0], 0)) == 0
        with pytest.raises(InvalidParameterError):
            cross_entropy(softmax, np.array([0, 2, 1, 3, 0]))

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


class RecordingGenerator:
    """A numpy Generator that records each draw as (method, args)."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            self.calls.append((name, args))
            return getattr(self._rng, name)(*args, **kwargs)
        return draw


def recorded_draws(monkeypatch, run):
    """Calls run() with every numpy Generator it makes recording; returns
    their draws, in order."""
    generators, make = [], np.random.default_rng

    def recording(seed=None):
        generators.append(RecordingGenerator(make(seed)))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    try:
        run()
    finally:
        monkeypatch.setattr(np.random, "default_rng", make)
    return [call for g in generators for call in g.calls]


class TestBackward:
    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    def test_gradients_match_central_differences(self, rng, dropout_rate):
        # two hidden layers with unequal sigmas; every evaluation draws its
        # dropout masks from a fresh generator with one seed, so the masks
        # are held fixed while the parameters move
        net = make_random_net(rng, [3, 5, 4, 2], scale=0.7)
        net.layers[0].sigma, net.layers[1].sigma = 0.8, 1.7
        X = rng.standard_normal((6, 3))
        y = np.array([0, 1, 1, 0, 1, 0])

        def mean_loss(n):
            return _loss_and_grads(n, X, y, dropout_rate, np.random.default_rng(5))[0]

        def central_difference(li, name, index=()):
            h = 1e-6
            diffs = []
            for step in (h, -h):
                moved = net.copy()
                layer = moved.layers[li]
                if index == ():
                    setattr(layer, name, getattr(layer, name) + step)
                else:
                    getattr(layer, name)[index] += step
                diffs.append(mean_loss(moved))
            return (diffs[0] - diffs[1]) / (2 * h)

        grads = _loss_and_grads(net, X, y, dropout_rate, np.random.default_rng(5))[1]
        assert len(grads) == len(net.layers)
        for li, (gW, gb, gsigma) in enumerate(grads):
            for name, analytic in (("weights", gW), ("bias", gb)):
                assert analytic.shape == getattr(net.layers[li], name).shape
                fd = np.array([central_difference(li, name, index)
                               for index in np.ndindex(analytic.shape)]).reshape(analytic.shape)
                np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)
            # the output layer has no activation, so its sigma moves nothing
            assert gsigma == pytest.approx(central_difference(li, "sigma"), rel=1e-6, abs=1e-9)
        assert grads[-1][2] == 0.0


class TestRandomStream:
    def test_dropout_off_draws_only_the_epoch_permutations(self, rng, monkeypatch):
        X, y = blobs(rng)
        net = init_network([2, 6, 5, 2], seed=1)
        cfg = TrainConfig(epochs=3, dropout_rate=0.0, seed=2, batch_size=64)
        draws = recorded_draws(monkeypatch, lambda: train(net, X, y, cfg))
        assert draws == [("permutation", (200,))] * 3

    def test_dropout_draws_one_mask_per_hidden_layer_per_batch(self, rng, monkeypatch):
        # 200 rows in batches of 64, 64, 64 and 8; masks in layer order
        X, y = blobs(rng)
        net = init_network([2, 6, 5, 2], seed=1)
        cfg = TrainConfig(epochs=2, dropout_rate=0.5, seed=2, batch_size=64)
        draws = recorded_draws(monkeypatch, lambda: train(net, X, y, cfg))
        batches = [("random", ((rows, n_out),)) for rows in (64, 64, 64, 8) for n_out in (6, 5)]
        assert draws == ([("permutation", (200,))] + batches) * 2


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
        lr, eps = 0.01, ADAM_EPS
        cfg = TrainConfig(learning_rate=lr, dropout_rate=0.0, epochs=1, batch_size=1, seed=0)
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
        assert on.layers[0].sigma != 1.0

    @pytest.mark.parametrize("bad", [-1, 2, 5, 0.5])
    def test_label_outside_classes(self, rng, bad):
        # numpy would wrap -1 to the last class and fail on 5 with a raw IndexError;
        # a float label array would be truncated to classes
        X, y = blobs(rng)
        y = np.where(np.arange(len(y)) == 3, bad, y)
        with pytest.raises(InvalidInputError):
            train(init_network([2, 8, 2], seed=0), X, y, TrainConfig(epochs=1))

    @pytest.mark.parametrize("sizes", [[2, 0, 2], [2, -5, 2], [0, 2]])
    def test_layer_size_below_one(self, sizes):
        with pytest.raises(InvalidParameterError):
            init_network(sizes)

    def test_empty_dataset(self):
        net = init_network([2, 2], seed=0)
        with pytest.raises(InvalidInputError):
            train(net, np.empty((0, 2)), np.empty(0, int), TrainConfig(epochs=1))

    BAD_TEST_SETS = {
        "one column narrower": (lambda X, y: (X[:, :1], y), ShapeError),
        "one label short": (lambda X, y: (X, y[:-1]), InvalidInputError),
        "label 2 of 2 classes": (lambda X, y: (X, np.where(np.arange(len(y)) == 7, 2, y)),
                                 InvalidInputError),
        "label -1": (lambda X, y: (X, np.where(np.arange(len(y)) == 7, -1, y)),
                     InvalidInputError),
        "empty": (lambda X, y: (X[:0], y[:0]), InvalidInputError),
        "labels missing": (lambda X, y: (X, None), InvalidInputError),
        "float labels": (lambda X, y: (X, y + 0.5), InvalidInputError),
    }

    @pytest.mark.parametrize("case", sorted(BAD_TEST_SETS))
    def test_bad_test_set_fails_before_the_first_epoch(self, rng, monkeypatch, case):
        # these used to run every epoch, then fail or miscount (float labels
        # were truncated)
        X, y = blobs(rng)
        make_test_set, error = self.BAD_TEST_SETS[case]
        net = init_network([2, 4, 2], seed=0)

        def run():
            with pytest.raises(error, match="test"):
                train(net, X, y, TrainConfig(epochs=15), *make_test_set(X, y))

        assert recorded_draws(monkeypatch, run) == []  # no epoch's permutation

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("split", ["training", "test"])
    def test_non_finite_features(self, rng, bad, split):
        # caught before the first epoch, not as a diverged loss
        X, y = blobs(rng)
        X_test = X.copy()
        (X if split == "training" else X_test)[5, 1] = bad
        with pytest.raises(InvalidInputError, match=f"{split} features must be finite"):
            train(init_network([2, 4, 2], seed=0), X, y, TrainConfig(epochs=1), X_test, y)


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

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_learning_rate(self, rate):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            TrainConfig(learning_rate=rate)

    def test_bad_dropout(self):
        with pytest.raises(InvalidParameterError):
            TrainConfig(dropout_rate=1.0)

    @pytest.mark.parametrize("kwargs", [{"epochs": -1}, {"batch_size": 0}])
    def test_bad_epochs_or_batch_size(self, kwargs):
        with pytest.raises(InvalidParameterError):
            TrainConfig(**kwargs)
