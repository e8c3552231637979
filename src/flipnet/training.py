"""Training: cross-entropy loss, Adam, inverted dropout, trainable sigma.

All randomness (weight init, shuffles, dropout masks) is driven by the
config seed, so identical configs reproduce bit-identical networks.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidInputError, InvalidParameterError, ShapeError, TrainingDivergedError,
                     check_classes, check_count, check_positive)
from .network import Layer, Network, backward, cross_entropy, forward_batch, softmax_rows

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
        check_positive("learning_rate", self.learning_rate)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidParameterError("dropout_rate must be in [0, 1)")
        check_count("epochs", self.epochs, 0)
        check_count("batch_size", self.batch_size, 1)
        check_count("seed", self.seed, 0)


@dataclass
class TrainReport:
    epoch_losses: list = field(default_factory=list)
    train_accuracy: float = float("nan")
    test_accuracy: float = float("nan")


def init_network(layer_sizes, seed=0):
    """Scaled-uniform init, range +-sqrt(6 / (n_in + n_out)), every sigma 1."""
    for n in layer_sizes:
        check_count("layer size", n, 1)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in zip(layer_sizes, layer_sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        W = rng.uniform(-limit, limit, size=(n_out, n_in))
        layers.append(Layer(W, np.zeros(n_out), 1.0))
    return Network(layers)


def _loss_and_grads(net, X, y, dropout_rate, rng):
    """Mean cross-entropy of one batch and one (gW, gb, gsigma) per layer.

    The dropout masks are drawn first, one per hidden layer in layer
    order (none at rate 0, drawing nothing). Both passes are network's:
    the tape gives each layer's input and preactivation, and backward
    each preactivation's gradient.
    """
    masks = None
    if dropout_rate > 0.0:
        masks = [(rng.random((len(X), layer.n_out)) >= dropout_rate) / (1.0 - dropout_rate)
                 for layer in net.layers[:-1]]
    logits, tape = forward_batch(net, X, masks)
    probs = softmax_rows(logits)
    terms = backward(net, tape, (probs - np.eye(net.class_count)[y]) / len(y), masks)
    # d erf(y/s) / ds = -(y / s) * d erf(y/s) / dy; the linear output layer has no sigma
    grads = [(g.T @ a, g.sum(axis=0), float(-np.sum(g * (z / layer.sigma))))
             for layer, (a, z), g in zip(net.layers[:-1], tape, terms)]
    (a, _), g = tape[-1], terms[-1]
    return float(np.mean(cross_entropy(probs, y))), grads + [(g.T @ a, g.sum(axis=0), 0.0)]


def _checked_split(net, name, features, labels):
    """(features, labels) as float [n, input_dim] and int [n] arrays of
    finite rows and integer classes of net; checked before the first epoch."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != net.input_dim:
        raise ShapeError(f"{name} features must be [n, {net.input_dim}], got {features.shape}")
    if len(features) == 0:
        raise InvalidInputError(f"{name} set is empty")
    labels = check_classes(f"{name} labels", labels, net.class_count, InvalidInputError)
    if labels.shape != (len(features),):
        raise InvalidInputError(f"{name} feature/label counts differ")
    if not np.all(np.isfinite(features)):
        raise InvalidInputError(f"{name} features must be finite")
    return features, labels


def train(net, features, labels, cfg, test_features=None, test_labels=None):
    """Minibatch Adam on weights, biases and per-layer sigma.

    Returns (trained network, TrainReport). Deterministic for a fixed
    config: the shuffle and dropout streams are derived from cfg.seed.
    """
    features, labels = _checked_split(net, "training", features, labels)
    if test_features is not None:
        test_features, test_labels = _checked_split(net, "test", test_features, test_labels)

    net = net.copy()
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)
    # Adam's (m, v) for each layer's weights, bias and sigma
    moments = [[(0.0, 0.0)] * 3 for _ in net.layers]
    t = 0
    n = features.shape[0]

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = _loss_and_grads(net, features[idx], labels[idx], cfg.dropout_rate, rng)
            losses.append(loss * len(idx))
            t += 1
            for layer, layer_grads, layer_moments in zip(net.layers, grads, moments):
                params = [layer.weights, layer.bias, layer.sigma]
                for k, g in enumerate(layer_grads):
                    m, v = layer_moments[k]
                    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
                    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
                    layer_moments[k] = (m, v)
                    m_hat, v_hat = m / (1 - ADAM_BETA1**t), v / (1 - ADAM_BETA2**t)
                    params[k] = params[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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
    preds = np.argmax(forward_batch(net, features)[0], axis=1)  # the first (lowest) on ties
    return float(np.mean(preds == np.asarray(labels, dtype=np.int64)))
