"""Training: cross-entropy loss, Adam, inverted dropout, trainable sigma.

All randomness (weight init, shuffles, dropout masks) is driven by the
config seed, so identical configs reproduce bit-identical networks.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, TrainingDivergedError
from .network import (
    Layer,
    Network,
    activation_erf,
    activation_erf_deriv,
    forward_batch,
    softmax_rows,
)

SIGMA_FLOOR = 1e-3


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    dropout_rate: float = 0.5
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    train_sigma: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidParameterError("learning_rate must be positive")
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


def cross_entropy(softmax, label):
    """-log(softmax[label]), input clamped at 1e-300."""
    softmax = np.asarray(softmax, dtype=np.float64)
    if not 0 <= label < softmax.shape[-1]:
        raise InvalidParameterError(f"label {label} out of range")
    return -np.log(max(softmax[label], 1e-300))


def init_network(layer_sizes, seed=0, sigma=1.0):
    """Scaled-uniform init, range +-sqrt(6 / (n_in + n_out))."""
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        W = rng.uniform(-limit, limit, size=(n_out, n_in))
        layers.append(Layer(W, np.zeros(n_out), sigma))
    return Network(layers)


def _forward_train(net, X, dropout_rate, rng):
    """Forward pass with inverted dropout on hidden activations.

    Returns (softmax, caches) where caches hold per-layer inputs,
    preactivations and dropout masks for the backward pass.
    """
    a = X
    caches = []
    n_layers = len(net.layers)
    for li, layer in enumerate(net.layers):
        y = a @ layer.weights.T + layer.bias
        if li < n_layers - 1:
            act = activation_erf(y, layer.sigma)
            if dropout_rate > 0.0:
                mask = (rng.random(act.shape) >= dropout_rate) / (1.0 - dropout_rate)
                act = act * mask
            else:
                mask = None
            caches.append((a, y, mask))
            a = act
        else:
            caches.append((a, y, None))
            a = y
    return softmax_rows(a), caches


def _backward(net, caches, delta_logits, train_sigma):
    """Gradients of the mean loss wrt every weight, bias and sigma.

    delta_logits is d(mean loss)/d(logits) = (softmax - onehot) / batch.
    Returns one (gW, gb, gsigma) tuple per layer, in layer order; the
    output layer has no activation, so its sigma gradient is zero.
    """
    n_layers = len(net.layers)
    out = [None] * n_layers
    sigma_grads = [0.0] * n_layers
    g = delta_logits  # d(loss)/d(preactivation of current layer)
    for li in range(n_layers - 1, -1, -1):
        layer = net.layers[li]
        a_in, _, _ = caches[li]
        out[li] = (g.T @ a_in, g.sum(axis=0), sigma_grads[li])
        if li > 0:
            prev = net.layers[li - 1]
            _, y_prev, mask_prev = caches[li - 1]
            g_act = g @ layer.weights
            if mask_prev is not None:
                g_act = g_act * mask_prev
            dact = activation_erf_deriv(y_prev, prev.sigma)
            if train_sigma:
                # d erf(y/s) / ds = -(y / s) * d erf(y/s) / dy
                sigma_grads[li - 1] = float(
                    -np.sum(g_act * dact * (y_prev / prev.sigma))
                )
            g = g_act * dact
    return out


def _flatten_grads(net, grads):
    parts = []
    for (gW, gb, gs) in grads:
        parts.append(gW.ravel())
        parts.append(gb)
        parts.append(np.array([gs]))
    return np.concatenate(parts)


def _get_params(net):
    parts = []
    for layer in net.layers:
        parts.append(layer.weights.ravel())
        parts.append(layer.bias)
        parts.append(np.array([layer.sigma]))
    return np.concatenate(parts)


def _set_params(net, theta):
    off = 0
    for layer in net.layers:
        n = layer.weights.size
        layer.weights = theta[off : off + n].reshape(layer.weights.shape).copy()
        off += n
        n = layer.bias.size
        layer.bias = theta[off : off + n].copy()
        off += n
        layer.sigma = max(float(theta[off]), SIGMA_FLOOR)
        off += 1


def train(net, features, labels, cfg, test_features=None, test_labels=None):
    """Minibatch Adam on weights, biases and (optionally) per-layer sigma.

    Returns (trained network, TrainReport). Deterministic for a fixed
    config: the shuffle and dropout streams are derived from cfg.seed.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.shape[0] == 0:
        raise InvalidInputError("dataset is empty")
    if features.shape[0] != labels.shape[0]:
        raise InvalidInputError("feature/label counts differ")

    net = net.copy()
    report = TrainReport()
    if cfg.epochs == 0:
        report.train_accuracy = evaluate_accuracy(net, features, labels)
        if test_features is not None:
            report.test_accuracy = evaluate_accuracy(net, test_features, test_labels)
        return net, report

    rng = np.random.default_rng(cfg.seed)
    theta = _get_params(net)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
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
            batch_loss = float(
                -np.mean(np.log(np.maximum(probs[np.arange(len(y)), y], 1e-300)))
            )
            losses.append(batch_loss * len(y))
            delta = (probs - onehot[y]) / len(y)
            grads = _backward(net, caches, delta, cfg.train_sigma)
            g = _flatten_grads(net, grads)
            t += 1
            m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
            v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
            m_hat = m / (1 - cfg.adam_beta1**t)
            v_hat = v / (1 - cfg.adam_beta2**t)
            theta = theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
            _set_params(net, theta)
            theta = _get_params(net)  # reflect the sigma projection
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
