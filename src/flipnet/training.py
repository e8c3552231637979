"""Training: cross-entropy loss, Adam, inverted dropout, trainable sigma.

All randomness (weight init, shuffles, dropout masks) is driven by the
config seed, so identical configs reproduce bit-identical networks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, TrainingDivergedError
from .network import (Layer, Network, activation_erf, activation_erf_deriv, cross_entropy,
                      forward_batch, softmax_rows)

SIGMA_FLOOR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    dropout_rate: float = 0.5
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise InvalidParameterError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidParameterError("dropout_rate must be in [0, 1)")
        if self.epochs < 0:
            raise InvalidParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidParameterError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainReport:
    epoch_losses: list = field(default_factory=list)
    train_accuracy: float = float("nan")
    test_accuracy: float = float("nan")


def init_network(layer_sizes, seed=0):
    """Scaled-uniform init, range +-sqrt(6 / (n_in + n_out)), every sigma 1."""
    if any(n < 1 for n in layer_sizes):
        raise InvalidParameterError(f"layer sizes must be >= 1, got {layer_sizes}")
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        W = rng.uniform(-limit, limit, size=(n_out, n_in))
        layers.append(Layer(W, np.zeros(n_out), 1.0))
    return Network(layers)


def _forward_train(net, X, dropout_rate, rng):
    """Forward pass with inverted dropout on hidden activations.

    Returns (softmax, caches) where caches hold per-layer inputs,
    preactivations and dropout masks for the backward pass. At rate 0
    every mask is the scalar 1.0 and no random number is drawn.
    """
    a = X
    caches = []
    for layer in net.layers[:-1]:
        y = a @ layer.weights.T + layer.bias
        mask = 1.0
        if dropout_rate > 0.0:
            mask = (rng.random(y.shape) >= dropout_rate) / (1.0 - dropout_rate)
        caches.append((a, y, mask))
        a = activation_erf(y, layer.sigma) * mask
    out = net.layers[-1]
    y = a @ out.weights.T + out.bias
    caches.append((a, y, 1.0))
    return softmax_rows(y), caches


def _backward(net, caches, delta_logits):
    """Gradients of the mean loss wrt every weight, bias and sigma.

    delta_logits is d(mean loss)/d(logits) = (softmax - onehot) / batch.
    Returns one (gW, gb, gsigma) tuple per layer, in layer order; the
    output layer has no activation, so its sigma gradient is zero.
    """
    g = delta_logits  # d(loss)/d(preactivation of the current layer)
    grads = [(g.T @ caches[-1][0], g.sum(axis=0), 0.0)]
    for li in range(len(net.layers) - 2, -1, -1):
        layer = net.layers[li]
        a_in, y, mask = caches[li]
        g = (g @ net.layers[li + 1].weights) * mask * activation_erf_deriv(y, layer.sigma)
        # d erf(y/s) / ds = -(y / s) * d erf(y/s) / dy
        grads.append((g.T @ a_in, g.sum(axis=0), float(-np.sum(g * (y / layer.sigma)))))
    return grads[::-1]


def train(net, features, labels, cfg, test_features=None, test_labels=None):
    """Minibatch Adam on weights, biases and per-layer sigma.

    Returns (trained network, TrainReport). Deterministic for a fixed
    config: the shuffle and dropout streams are derived from cfg.seed.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] == 0:
        raise InvalidInputError("dataset is empty")
    if features.shape[0] != labels.shape[0]:
        raise InvalidInputError("feature/label counts differ")
    if labels.min() < 0 or labels.max() >= net.class_count:
        raise InvalidInputError(f"labels must lie in [0, {net.class_count})")
    for name, X in (("training", features), ("test", test_features)):
        if X is not None and not np.all(np.isfinite(X)):
            raise InvalidInputError(f"{name} features must be finite")

    net = net.copy()
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)
    # Adam's (m, v) for each layer's weights, bias and sigma
    moments = [[(0.0, 0.0)] * 3 for _ in net.layers]
    t = 0
    n = features.shape[0]
    onehot = np.eye(net.class_count)

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            X, y = features[idx], labels[idx]
            probs, caches = _forward_train(net, X, cfg.dropout_rate, rng)
            losses.append(float(np.mean(cross_entropy(probs, y))) * len(y))
            delta = (probs - onehot[y]) / len(y)
            grads = _backward(net, caches, delta)
            t += 1
            for layer, layer_grads, layer_moments in zip(net.layers, grads, moments):
                params = [layer.weights, layer.bias, layer.sigma]
                for k, g in enumerate(layer_grads):
                    m, v = layer_moments[k]
                    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
                    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
                    layer_moments[k] = (m, v)
                    m_hat = m / (1 - ADAM_BETA1**t)
                    v_hat = v / (1 - ADAM_BETA2**t)
                    step = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                    params[k] = params[k] - step
                layer.weights, layer.bias, sigma = params
                layer.sigma = max(float(sigma), SIGMA_FLOOR)
        epoch_loss = float(np.sum(losses) / n)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch)
        report.epoch_losses.append(epoch_loss)

    report.train_accuracy = evaluate_accuracy(net, features, labels)
    if test_features is not None:
        report.test_accuracy = evaluate_accuracy(net, test_features, test_labels)
    return net, report


def evaluate_accuracy(net, features, labels):
    """Fraction of argmax predictions equal to labels; ties to lower id."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    logits, _ = forward_batch(net, features)
    preds = np.argmax(logits, axis=1)  # argmax takes the first (lowest) on ties
    return float(np.mean(preds == labels))
