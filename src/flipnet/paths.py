"""Softmax profiles along lines between points.

Samples are spaced by a certified local bound on the logits' slope
along the segment: interval bounds on every layer's preactivations and
their slopes, per cell of the segment. Between consecutive samples the
logits provably change by at most score_tol. Boundary crossings (argmax
changes) are refined by the ray search in flips.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .flips import STATUS_BRACKET_FAILED, flip_along_direction
from .network import (activation_erf, activation_erf_deriv, forward_batch, softmax_rows,
                      spectral_norm)

SAMPLE_CAP = 1_000_000
CELLS = 64  # equal alpha cells, each with its own slope bound
CHUNK_ROWS = 2048  # rows per forward_batch call; caps the memory of a pass
ALPHA_RESOLUTION = 1e-12  # relative; an included alpha replaces grid alphas this close
SCORE_TOL = 0.01  # the one crossing resolution; only sample_line takes another
FLIP_OVERSHOOT = 2.0  # profile_to_flip's last alpha; the flip point is at alpha 1


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
        if not (np.isfinite(self.alpha_min) and np.isfinite(self.alpha_max)):
            raise InvalidInputError(
                f"alpha_min and alpha_max must be finite, got {self.alpha_min}, {self.alpha_max}")
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
    if tie.status == STATUS_BRACKET_FAILED:
        # The ends' single-row gaps share a sign, so the batched pass put
        # one end across a tie that sits at that end: keep the end whose
        # single-row gap is smaller.
        gaps = [abs(z[ci] - z[cj]) for z in
                (forward_batch(net, seg.at(a)[None, :])[0][0] for a in (a_lo, a_hi))]
        return a_lo if gaps[0] <= gaps[1] else a_hi
    return a_lo + (a_hi - a_lo) * (tie.distance / length)


def _interval_affine(weights, bias, lo, hi):
    """Interval image of weights @ [lo, hi] + bias: midpoints through W, radii through |W|."""
    mid = (lo + hi) / 2 @ weights.T + bias
    rad = (hi - lo) / 2 @ np.abs(weights).T
    return mid - rad, mid + rad


def _cell_slopes(net, seg, edges):
    """Upper bounds on ||dz/dalpha||_2 on each cell [edges[c], edges[c + 1]].

    Interval bound propagation (Gowal et al., 2018) of the pair (hidden
    preactivation y, dy/dalpha) through every layer, per cell. Layer-1
    preactivations are affine in alpha, so their range on a cell is
    exact and their slope is W1 (x2 - x1). A hidden unit's erf slope on
    [y_lo, y_hi] lies between its values at the ends farthest from and
    nearest to zero (the local bound of Hein & Andriushchenko, 2017);
    that interval times the slope interval bounds the activation's
    slope, and erf of the ends bounds its value. A layer maps interval
    midpoints through W and radii through |W|, so sign cancellation
    between units is kept. The bound is the 2-norm of the logit slopes'
    largest magnitudes, or the spectral-norm chain if smaller. No cell
    bound exceeds lipschitz_bound(net) * ||x2 - x1||.
    """
    first = net.layers[0]
    slope = first.weights @ (seg.x2 - seg.x1)
    if len(net.layers) == 1:
        return np.full(len(edges) - 1, np.linalg.norm(slope))
    offset = first.weights @ seg.x1 + first.bias
    lo = offset + edges[:-1, None] * slope
    hi = offset + edges[1:, None] * slope
    y_lo, y_hi = np.minimum(lo, hi), np.maximum(lo, hi)
    d_lo = d_hi = np.broadcast_to(slope, y_lo.shape)
    norm = None  # spectral-norm chain on the 2-norm of the activations' slopes
    for layer, nxt in zip(net.layers, net.layers[1:]):
        s_max = activation_erf_deriv(np.clip(0.0, y_lo, y_hi), layer.sigma)
        s_min = activation_erf_deriv(np.maximum(-y_lo, y_hi), layer.sigma)
        d_lo = np.where(d_lo < 0, s_max, s_min) * d_lo
        d_hi = np.where(d_hi > 0, s_max, s_min) * d_hi
        if norm is None:
            norm = np.linalg.norm(np.maximum(-d_lo, d_hi), axis=1)
        else:
            norm = activation_erf_deriv(0.0, layer.sigma) * norm
        norm = spectral_norm(nxt.weights) * norm
        d_lo, d_hi = _interval_affine(nxt.weights, 0.0, d_lo, d_hi)
        y_lo, y_hi = _interval_affine(nxt.weights, nxt.bias, activation_erf(y_lo, layer.sigma),
                                      activation_erf(y_hi, layer.sigma))
    return np.minimum(norm, np.linalg.norm(np.maximum(-d_lo, d_hi), axis=1))


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


def sample_line(net, seg, score_tol=SCORE_TOL, include=()):
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
        capped=capped,
    )


def count_crossings(net, seg):
    """Refined alphas where the top-two logits tie along the segment."""
    return sample_line(net, seg).crossings


def profile_to_flip(net, x, flip):
    """Profile from a query through its flip point (alpha = 1) and beyond."""
    if not flip.converged:
        raise InvalidInputError(f"flip result has status {flip.status!r}")
    seg = LineSegment(np.asarray(x, dtype=np.float64), flip.point, 0.0, FLIP_OVERSHOOT)
    return sample_line(net, seg, include=(1.0,))
