"""Softmax profiles along lines between points.

Samples are spaced by a certified local bound on the logits' slope
along the segment, so between consecutive samples the logits provably
change by at most score_tol. Boundary crossings (argmax changes) are
refined by the ray search in flips.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .flips import flip_along_direction
from .network import activation_erf_deriv, forward_batch, softmax_rows, spectral_norm

SAMPLE_CAP = 1_000_000
CELLS = 64  # equal alpha cells, each with its own slope bound
CHUNK_ROWS = 2048  # rows per forward_batch call; caps the memory of a pass
ALPHA_RESOLUTION = 1e-12  # relative; an included alpha replaces grid alphas this close


@dataclass
class LineSegment:
    x1: np.ndarray
    x2: np.ndarray
    alpha_min: float = 0.0
    alpha_max: float = 1.0

    def __post_init__(self):
        self.x1 = np.asarray(self.x1, dtype=np.float64)
        self.x2 = np.asarray(self.x2, dtype=np.float64)
        if self.x1.shape != self.x2.shape:
            raise InvalidInputError("segment endpoints must have the same shape")
        if np.array_equal(self.x1, self.x2):
            raise InvalidInputError("segment endpoints must differ")
        if not self.alpha_min < self.alpha_max:
            raise InvalidInputError("alpha_min must be < alpha_max")

    def at(self, alpha):
        return (1.0 - alpha) * self.x1 + alpha * self.x2

    @property
    def length(self):
        return float(np.linalg.norm(self.x2 - self.x1))


@dataclass
class PathProfile:
    alphas: np.ndarray
    softmax_scores: np.ndarray  # [samples, class_count]
    logits: np.ndarray  # [samples, class_count]
    crossings: list = field(default_factory=list)
    step_tol: float = 0.01
    capped: bool = False  # sample cap hit; spacing guarantee void


def _refine_crossing(net, seg, a_lo, a_hi, ci, cj):
    """Alpha of the logit tie z_ci = z_cj between two bracketing alphas."""
    x_lo = seg.at(a_lo)
    step = seg.at(a_hi) - x_lo
    length = float(np.linalg.norm(step))
    if length == 0.0:
        # Both alphas round to the same point, so the tie is there; the
        # argmaxes differ only through the rounding of two passes.
        return a_lo
    tie = flip_along_direction(net, x_lo, step, (ci, cj), t_max=length)
    return a_lo + (a_hi - a_lo) * (tie.distance / length)


def _cell_slopes(net, seg, edges):
    """Upper bounds on ||dz/dalpha||_2 on each cell [edges[c], edges[c + 1]].

    Layer-1 preactivations are affine in alpha, so on a cell each hidden
    unit's erf slope is largest at the point of its preactivation range
    nearest zero (the local bound of Hein & Andriushchenko, 2017). Later
    hidden layers use the global erf slope 2 / (sigma sqrt(pi)); the last
    layer takes the smaller of its spectral-norm and |W| bounds. No cell
    bound exceeds lipschitz_bound(net) * ||x2 - x1||.
    """
    first = net.layers[0]
    slope = first.weights @ (seg.x2 - seg.x1)
    if len(net.layers) == 1:
        return np.full(len(edges) - 1, np.linalg.norm(slope))
    offset = first.weights @ seg.x1 + first.bias
    lo = offset + edges[:-1, None] * slope
    hi = offset + edges[1:, None] * slope
    nearest = np.where(np.signbit(lo) != np.signbit(hi), 0.0,
                       np.minimum(np.abs(lo), np.abs(hi)))
    # v bounds |d(activation)/d alpha| per unit, norm bounds its 2-norm
    v = activation_erf_deriv(nearest, first.sigma) * np.abs(slope)
    norm = np.linalg.norm(v, axis=1)
    for layer in net.layers[1:-1]:
        gain = activation_erf_deriv(0.0, layer.sigma)
        v = gain * (v @ np.abs(layer.weights).T)
        norm = gain * spectral_norm(layer.weights) * norm
    last = net.layers[-1].weights
    return np.minimum(spectral_norm(last) * norm, np.linalg.norm(v @ np.abs(last).T, axis=1))


def _sample_alphas(net, seg, score_tol):
    """Sample alphas whose steps each integrate the slope bound to <= score_tol.

    Returns (alphas, capped). Past SAMPLE_CAP samples the grid is
    uniform and capped is True.
    """
    edges = np.linspace(seg.alpha_min, seg.alpha_max, CELLS + 1)
    F = np.concatenate([[0.0], np.cumsum(_cell_slopes(net, seg, edges) * np.diff(edges))])
    count = max(np.ceil(F[-1] / score_tol) + 1, 2)
    if count > SAMPLE_CAP:
        return np.linspace(seg.alpha_min, seg.alpha_max, SAMPLE_CAP), True
    alphas = np.interp(np.linspace(0.0, F[-1], int(count)), F, edges)
    # F is flat where a cell's bound is zero, and there interp may pick
    # any alpha of the flat stretch for the first or last level
    alphas[[0, -1]] = edges[[0, -1]]
    return alphas, False


def _insert_alpha(alphas, alpha):
    """Sorted alphas with alpha added, in place of those within ALPHA_RESOLUTION.

    An included alpha is often a flip point, so a grid alpha a few ulps
    from it sits on the same logit tie; the passes over the two round
    the tie to different argmaxes, which would read as an extra pair of
    crossings.
    """
    kept = alphas[np.abs(alphas - alpha) > ALPHA_RESOLUTION * max(1.0, abs(alpha))]
    return np.insert(kept, np.searchsorted(kept, alpha), alpha)


def sample_line(net, seg, score_tol=0.01, include=()):
    """Sample softmax along the segment with certified spacing.

    Guarantee: unless capped, the logits of consecutive samples differ by
    at most score_tol in 2-norm. Alpha is split into CELLS equal cells,
    each with an upper bound on the logits' slope (_cell_slopes);
    samples sit at equal steps of the bound's integral, so steps are
    short where the network can change fast and long elsewhere, and the
    alphas are not uniform. Past SAMPLE_CAP samples the grid is uniform
    and the profile is marked capped. Extra alphas in `include` are
    inserted into the grid, in place of any grid alpha within
    ALPHA_RESOLUTION of them. Samples are evaluated CHUNK_ROWS at a time.
    Crossings are refined argmax changes between consecutive samples.
    """
    if not 0.0 < score_tol < np.inf:
        raise InvalidParameterError(f"score_tol must be positive and finite, got {score_tol}")
    alphas, capped = _sample_alphas(net, seg, score_tol)
    for a in include:
        if seg.alpha_min <= a <= seg.alpha_max:
            alphas = _insert_alpha(alphas, a)
    logits = np.empty((len(alphas), net.class_count))
    for start in range(0, len(alphas), CHUNK_ROWS):
        a = alphas[start:start + CHUNK_ROWS]
        points = (1.0 - a)[:, None] * seg.x1 + a[:, None] * seg.x2
        logits[start:start + len(a)] = forward_batch(net, points)[0]
    # Grid rows at the canonical endpoints are recomputed one-by-one so
    # they match single-point forward() evaluations bit-for-bit (batched
    # BLAS may round differently).
    for t in np.nonzero((alphas == 0.0) | (alphas == 1.0))[0]:
        logits[t] = forward_batch(net, seg.at(alphas[t])[None, :])[0][0]
    scores = softmax_rows(logits)

    tops = np.argmax(logits, axis=1)
    crossings = [
        _refine_crossing(net, seg, alphas[t], alphas[t + 1], tops[t], tops[t + 1])
        for t in np.nonzero(tops[1:] != tops[:-1])[0]
    ]
    return PathProfile(
        alphas=alphas,
        softmax_scores=scores,
        logits=logits,
        crossings=crossings,
        step_tol=score_tol,
        capped=capped,
    )


def count_crossings(net, seg, score_tol=0.01):
    """Refined alphas where the top-two logits tie along the segment."""
    return sample_line(net, seg, score_tol).crossings


def profile_to_flip(net, x, flip, overshoot=2.0, score_tol=0.01):
    """Profile from a query through its flip point (alpha = 1) and beyond."""
    if not flip.converged:
        raise InvalidInputError(f"flip result has status {flip.status!r}")
    seg = LineSegment(np.asarray(x, dtype=np.float64), flip.point, 0.0, overshoot)
    return sample_line(net, seg, score_tol, include=(1.0,))
