"""Feedforward network with tunable error-function activations.

Hidden layers apply erf(y / sigma) elementwise with a per-layer sigma;
the output layer is linear and feeds softmax. The forward pass, the
reverse sweep (input-gradient VJP) over its preactivations, the spectral
norm and the Lipschitz upper bound for the logit map all live here,
together with the binary checkpoint format.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import erf as _erf

from .errors import InvalidInputError, InvalidParameterError, ShapeError, FormatError

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)

CHECKPOINT_MAGIC = b"FLIPNET1"


def activation_erf(y, sigma):
    """erf(y / sigma); odd in y, range (-1, 1)."""
    if sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    return _erf(y / sigma)


def activation_erf_deriv(y, sigma):
    """d/dy erf(y / sigma) = 2 / (sigma * sqrt(pi)) * exp(-(y / sigma)^2), and
    exactly 0 where (y / sigma)^2 >= 708, so exp makes no subnormals."""
    u2 = np.asarray(y / sigma)  # squared, negated and exponentiated in place
    u2 *= u2
    u2[u2 >= 708.0] = np.inf
    return (_TWO_OVER_SQRT_PI / sigma) * np.exp(np.negative(u2, out=u2), out=u2)


@dataclass
class Layer:
    """One affine layer. sigma tunes the erf activation (hidden layers only)."""

    weights: np.ndarray  # [n_out, n_in]
    bias: np.ndarray  # [n_out]
    sigma: float = 1.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("weights must be 2-D and bias 1-D")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} != weight rows {self.weights.shape[0]}"
            )
        if not 0 < self.sigma < math.inf:
            raise InvalidParameterError(f"sigma must be positive and finite, got {self.sigma}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise InvalidInputError("layer weights and bias must be finite")

    @property
    def n_in(self):
        return self.weights.shape[1]

    @property
    def n_out(self):
        return self.weights.shape[0]


@dataclass
class Network:
    """Ordered layers; the last layer is linear (raw logits feed softmax)."""

    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.n_out != nxt.n_in:
                raise ShapeError(
                    f"layer dims do not chain: {prev.n_out} -> {nxt.n_in}"
                )

    @property
    def input_dim(self):
        return self.layers[0].n_in

    @property
    def class_count(self):
        return self.layers[-1].n_out

    def copy(self):
        return Network(
            [Layer(l.weights.copy(), l.bias.copy(), l.sigma) for l in self.layers]
        )


@dataclass
class Evaluation:
    """Forward-pass record at one input: logits and softmax."""

    logits: np.ndarray
    softmax: np.ndarray


def softmax_rows(z):
    """Row-wise softmax, shift-stabilized."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def row_norms(D):
    """np.linalg.norm of each row of D, bit for bit: a stack of [1, d] @ [d, 1]
    products reduces each row with the same dot kernel as a 1-D norm."""
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])


def cross_entropy(softmax, labels):
    """-log(softmax[r, labels[r]]) for each row r, clamped at 1e-300; a
    single row [class_count] and one label give a scalar."""
    softmax, labels = np.asarray(softmax, dtype=np.float64), np.asarray(labels)
    if np.any((labels < 0) | (labels >= softmax.shape[-1])):
        raise InvalidParameterError(f"labels must lie in [0, {softmax.shape[-1]})")
    p = np.take_along_axis(softmax, labels[..., None], axis=-1)[..., 0]
    return -np.log(np.maximum(p, 1e-300))


def forward_batch(net, X):
    """Logits and per-layer preactivations for a batch of rows.

    Returns (logits [n, class_count], preacts list of [n, n_out_l]).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ShapeError(f"expected [n, {net.input_dim}] input, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("input contains non-finite values")
    a = X
    preacts = []
    for li, layer in enumerate(net.layers):
        y = a @ layer.weights.T + layer.bias
        preacts.append(y)
        if li < len(net.layers) - 1:
            a = activation_erf(y, layer.sigma)
        else:
            a = y
    return a, preacts


def vjp(net, preacts, coeffs):
    """Input gradient of coeffs . z, by one reverse sweep over a forward tape.

    preacts is the list forward_batch returned for rows X. coeffs has
    shape [class_count] (the same for every row) or [n, class_count]
    (one vector per row). Returns [n, input_dim].
    """
    n = preacts[0].shape[0]
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape not in ((net.class_count,), (n, net.class_count)):
        raise ShapeError(
            f"coeffs must have shape ({net.class_count},) or ({n}, {net.class_count}), "
            f"got {coeffs.shape}"
        )
    # g holds d(objective)/d(activation of layer li)
    g = np.broadcast_to(coeffs, (n, net.class_count))
    for li in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[li]
        if li < len(net.layers) - 1:
            g = g * activation_erf_deriv(preacts[li], layer.sigma)
        g = g @ layer.weights
    return g


def forward(net, x):
    """Evaluate the network at a single input. No dropout at inference."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D input, got shape {x.shape}")
    logits = forward_batch(net, x[None, :])[0][0]
    return Evaluation(logits=logits, softmax=softmax_rows(logits))


def logits_batch(net, X):
    """Logits only, for hot loops."""
    return forward_batch(net, X)[0]


def grad_scalar_wrt_input(net, x, coeffs):
    """Gradient of coeffs . z(x) with respect to the input x.

    coeffs = e_i - e_j gives the logit-difference gradient used by the
    Taylor baseline and the flip solver.
    """
    return vjp(net, forward_batch(net, np.asarray(x, dtype=np.float64)[None, :])[1], coeffs)[0]


def grad_scalar_wrt_input_batch(net, X, coeffs):
    """Batched grad_scalar_wrt_input: coeffs is [C] for all rows or [n, C]."""
    return vjp(net, forward_batch(net, X)[1], coeffs)


def spectral_norm(W):
    """Largest singular value of W (LAPACK SVD)."""
    W = np.asarray(W, dtype=np.float64)
    if not np.all(np.isfinite(W)):
        raise InvalidInputError("matrix contains non-finite values")
    if W.size == 0:
        return 0.0
    return float(np.linalg.norm(W, 2))


def lipschitz_bound(net):
    """Upper bound on the Lipschitz constant of the logit map.

    Product over hidden layers of ||W_l||_2 * (2 / (sigma_l * sqrt(pi)))
    (the maximal erf slope), times ||W_out||_2 for the final linear layer.
    """
    bound = 1.0
    for li, layer in enumerate(net.layers):
        bound *= spectral_norm(layer.weights)
        if li < len(net.layers) - 1:
            bound *= _TWO_OVER_SQRT_PI / layer.sigma
    return bound


def save_checkpoint(net, path):
    """Write the network in the FLIPNET1 binary format (little-endian f64)."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        dims = [net.input_dim] + [l.n_out for l in net.layers]
        f.write(struct.pack("<I", len(net.layers)))
        f.write(struct.pack(f"<{len(dims)}I", *dims))
        f.write(struct.pack("<I", net.class_count))
        for layer in net.layers:
            f.write(layer.weights.astype("<f8").tobytes(order="C"))
            f.write(layer.bias.astype("<f8").tobytes())
            f.write(struct.pack("<d", layer.sigma))


def load_checkpoint(path):
    """Read a FLIPNET1 checkpoint. Bit-exact round trip with save_checkpoint."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:8]!r}")
    # magic, layer count, the n_layers + 1 dims, class count
    n_layers = struct.unpack_from("<I", data, 8)[0] if len(data) >= 12 else 0
    off = 12 + 4 * (n_layers + 2)
    if off > len(data):
        raise FormatError(f"{path}: header truncated at byte {len(data)}")
    *dims, class_count = struct.unpack_from(f"<{n_layers + 2}I", data, 12)
    if class_count != dims[-1]:
        raise FormatError(f"{path}: class count {class_count} != last dim {dims[-1]}")
    layers = []
    for li in range(n_layers):
        n_in, n_out = dims[li], dims[li + 1]
        need = 8 * (n_out * n_in + n_out) + 8
        if off + need > len(data):
            raise FormatError(f"{path}: truncated at layer {li}")
        W = np.frombuffer(data, dtype="<f8", count=n_out * n_in, offset=off)
        off += 8 * n_out * n_in
        b = np.frombuffer(data, dtype="<f8", count=n_out, offset=off)
        off += 8 * n_out
        (sigma,) = struct.unpack_from("<d", data, off)
        off += 8
        layers.append(Layer(W.reshape(n_out, n_in).copy(), b.copy(), sigma))
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes")
    return Network(layers)
