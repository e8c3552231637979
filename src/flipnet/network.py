"""Feedforward network with tunable error-function activations.

Hidden layers apply erf(y / sigma) elementwise with a per-layer sigma;
the output layer is linear and feeds softmax. The forward pass and its
tape, the one reverse sweep over that tape (which the input-gradient
VJP and training's parameter gradients both read), the spectral norm
and the Lipschitz upper bound for the logit map all live here, together
with the binary checkpoint format.
"""

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import erf as _erf

from .errors import (InvalidInputError, InvalidParameterError, ShapeError, FormatError,
                     check_classes, check_positive)

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)
TILE = 32  # rows per BLAS call of rows_product; of 32, 64 and 128, the fastest on flip

CHECKPOINT_MAGIC = b"FLIPNET1"


def activation_erf(y, sigma):
    """erf(y / sigma); odd in y, range (-1, 1)."""
    if sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    with np.errstate(over="ignore"):  # an overflow to +-inf saturates to +-1
        return _erf(y / sigma)


def activation_erf_deriv(y, sigma):
    """d/dy erf(y / sigma) = 2 / (sigma * sqrt(pi)) * exp(-(y / sigma)^2), and
    exactly 0 where (y / sigma)^2 >= 708, so exp makes no subnormals."""
    with np.errstate(over="ignore"):  # an overflow to inf saturates, as below
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
        if 0 in self.weights.shape:
            raise ShapeError(f"a layer needs rows and columns, got weights {self.weights.shape}")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} != weight rows {self.weights.shape[0]}"
            )
        check_positive("sigma", self.sigma)
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


def rows_product(A, B):
    """A @ B for A [n, k] whose rows are independent items (queries, rays,
    cells), in blocks of TILE rows: one stacked matmul over the whole
    blocks, a view of A, then the last block zero-padded, each writing
    into the result. numpy makes one BLAS call per block, and BLAS picks
    its kernel and blocking by the operands' shape, so every row's bytes
    depend on neither n nor its position."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    (n, k), m = A.shape, B.shape[1]
    full = n - n % TILE
    out = np.empty((full + (TILE if full < n else 0), m))
    np.matmul(A[:full].reshape(-1, TILE, k), B, out=out[:full].reshape(-1, TILE, m))
    if full < n:
        last = np.zeros((TILE, k))
        last[:n - full] = A[full:]
        np.matmul(last, B, out=out[full:])
    return out[:n]


def cross_entropy(softmax, labels):
    """-log(softmax[r, labels[r]]) for each row r, clamped at 1e-300; a
    single row [class_count] and one label give a scalar."""
    softmax = np.asarray(softmax, dtype=np.float64)
    labels = check_classes("labels", labels, softmax.shape[-1])
    p = np.take_along_axis(softmax, labels[..., None], axis=-1)[..., 0]
    return -np.log(np.maximum(p, 1e-300))


def forward_batch(net, X, masks=None):
    """(logits [n, class_count], tape) for a batch of rows; the tape holds
    each layer's (input, preactivation). masks, one array per hidden layer,
    multiply its activations (training's inverted dropout)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ShapeError(f"expected [n, {net.input_dim}] input, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("input contains non-finite values")
    a, tape = X, []
    for li, layer in enumerate(net.layers):
        y = rows_product(a, layer.weights.T) + layer.bias
        tape.append((a, y))
        a = y
        if li < len(net.layers) - 1:
            a = activation_erf(y, layer.sigma)
            if masks is not None:
                a *= masks[li]
    return a, tape


def backward(net, tape, coeffs, masks=None):
    """The one reverse sweep over forward_batch's tape (and masks): one
    [n, n_out] array of d(coeffs . z)/d(preactivation) per layer, in layer
    order. coeffs is [class_count] for every row or [n, class_count]."""
    n = tape[0][1].shape[0]
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape not in ((net.class_count,), (n, net.class_count)):
        raise ShapeError(f"coeffs must have shape ({net.class_count},) or "
                         f"({n}, {net.class_count}), got {coeffs.shape}")
    terms = [np.broadcast_to(coeffs, (n, net.class_count))]
    for li in range(len(net.layers) - 2, -1, -1):
        g = rows_product(terms[-1], net.layers[li + 1].weights)
        if masks is not None:
            g *= masks[li]
        g *= activation_erf_deriv(tape[li][1], net.layers[li].sigma)
        terms.append(g)
    return terms[::-1]


def vjp(net, tape, coeffs):
    """Input gradient [n, input_dim] of coeffs . z: backward's first-layer
    term times the first weight matrix."""
    return rows_product(backward(net, tape, coeffs)[0], net.layers[0].weights)


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
