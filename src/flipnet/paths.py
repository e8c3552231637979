"""Boundary crossings and softmax profiles along lines between points.

Both rest on interval bounds on the logits' slope per cell of a segment:
count_crossings certifies each cell's crossings, and sample_line spaces
samples so that consecutive logits provably differ by at most score_tol.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from scipy.optimize.elementwise import find_root

from .errors import FlipnetError, InvalidInputError, ShapeError, check_positive
from .network import activation_erf, activation_erf_deriv, forward_batch, rows_product, softmax_rows

SAMPLE_CAP = 1_000_000
CELLS = 64  # equal alpha cells, each with its own slope bound
CHUNK_ROWS = 2048  # rows per forward_batch call; caps the memory of a pass
SEGMENTS = 16  # segments whose cells count_crossings bounds and halves together
MAX_ROUNDS = 60  # bisection rounds before a segment's crossings are undecided
SCORE_TOL = 0.01  # default spacing of a profile's logits
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
        if self.x1.ndim != 1 or self.x2.ndim != 1:
            raise ShapeError(f"segment endpoints must be 1-D, got {self.x1.shape}, {self.x2.shape}")
        if self.x1.shape != self.x2.shape:
            raise InvalidInputError("segment endpoints must have the same shape")
        if not np.isfinite(np.hstack([self.x1, self.x2, self.alpha_min, self.alpha_max])).all():
            raise InvalidInputError("segment endpoints, alpha_min and alpha_max must be finite")
        if np.array_equal(self.x1, self.x2):
            raise InvalidInputError("segment endpoints must differ")
        if not self.alpha_min < self.alpha_max:
            raise InvalidInputError("alpha_min must be < alpha_max")

    def at(self, alpha):
        return (1.0 - alpha) * self.x1 + alpha * self.x2


@dataclass
class PathProfile:
    alphas: np.ndarray
    softmax_scores: np.ndarray  # [samples, class_count]
    logits: np.ndarray  # [samples, class_count]
    crossings: list = field(default_factory=list)
    capped: bool = False  # sample cap hit; spacing guarantee void


def _logits_at(net, x1, x2, alphas):
    """Logits at (1 - alphas) * x1 + alphas * x2, for x1 and x2 one row each or
    one row per alpha, CHUNK_ROWS rows per forward_batch call."""
    x1, x2 = (np.broadcast_to(x, (len(alphas), x.shape[-1])) for x in (x1, x2))
    z = np.empty((len(alphas), net.class_count))
    for r in (slice(c, c + CHUNK_ROWS) for c in range(0, len(alphas), CHUNK_ROWS)):
        z[r] = forward_batch(net, (1.0 - alphas[r, None]) * x1[r] + alphas[r, None] * x2[r])[0]
    return z


def _interval_affine(weights, bias, lo, hi):
    """Interval image of weights @ [lo, hi] + bias, row by row: midpoints through W, radii
    through |W|."""
    mid = rows_product((lo + hi) / 2, weights.T) + bias
    rad = rows_product((hi - lo) / 2, np.abs(weights).T)
    return mid - rad, mid + rad


def _input_slopes(net, x1, step, seg, lo, hi):
    """Intervals [d_lo, d_hi] ([cells, n_in]) on d/dalpha of the last layer's input
    on cells [lo, hi] of the segments from rows x1 along rows step (cell c
    on segment seg[c]).

    Interval bound propagation (Gowal et al., 2018) of (preactivation y,
    dy/dalpha); y is affine in alpha at layer 1. A unit's erf slope on
    [y_lo, y_hi] lies between its values at the ends farthest from and
    nearest to zero (Hein & Andriushchenko, 2017); that range scales the
    slope interval, and erf of the ends bounds the value. A layer maps
    interval midpoints through W and radii through |W|, so opposite
    slopes cancel.
    """
    if len(net.layers) == 1:
        return step[seg], step[seg]
    # a stacked matmul rounds each segment's product as W @ step alone does
    first = net.layers[0]
    slope = np.matmul(first.weights, step[:, :, None])[seg, :, 0]
    offset = np.matmul(first.weights, x1[:, :, None])[seg, :, 0] + first.bias
    y_lo, y_hi = offset + lo[:, None] * slope, offset + hi[:, None] * slope
    y_lo, y_hi = np.minimum(y_lo, y_hi), np.maximum(y_lo, y_hi)
    d_lo = d_hi = slope
    for layer, nxt in zip(net.layers, net.layers[1:]):
        s_max = activation_erf_deriv(np.clip(0.0, y_lo, y_hi), layer.sigma)
        s_min = activation_erf_deriv(np.maximum(-y_lo, y_hi), layer.sigma)
        d_lo = np.where(d_lo < 0, s_max, s_min) * d_lo
        d_hi = np.where(d_hi > 0, s_max, s_min) * d_hi
        if nxt is net.layers[-1]:
            return d_lo, d_hi
        d_lo, d_hi = _interval_affine(nxt.weights, 0.0, d_lo, d_hi)
        y_lo, y_hi = _interval_affine(nxt.weights, nxt.bias, activation_erf(y_lo, layer.sigma),
                                      activation_erf(y_hi, layer.sigma))


def _cell_slopes(net, seg, edges):
    """Upper bounds on ||dz/dalpha||_2 on each cell [edges[c], edges[c + 1]]:
    _input_slopes' intervals through the last layer's |W|."""
    d_lo, d_hi = _input_slopes(net, seg.x1[None], (seg.x2 - seg.x1)[None],
                               np.zeros(len(edges) - 1, int), edges[:-1], edges[1:])
    d_lo, d_hi = _interval_affine(net.layers[-1].weights, 0.0, d_lo, d_hi)
    return np.linalg.norm(np.maximum(-d_lo, d_hi), axis=1)


def bracketed_roots(gap, lo, hi, g_lo, g_hi):
    """Roots of gap(t, rows) (rows `rows` at abscissae t) in the brackets
    [lo, hi], one per row, where gap is g_lo and g_hi of opposite signs,
    by one find_root call (Chandrupatla's method). Solving in s = t /
    max(1, |hi|) lets scalar tolerances give each bracket a width of
    1e-12 * max(1, |hi|). The ends are never re-evaluated: the callers
    hold their values, and two more passes would break a ray search's
    budget of five past its doubling."""
    scale = np.maximum(1.0, np.abs(hi))
    ends = [g_lo, g_hi]  # find_root's first two calls evaluate the ends
    res = find_root(lambda s, rows: ends.pop(0) if ends else gap(s * scale[rows], rows),
                    (lo / scale, hi / scale), args=(np.arange(len(lo)),),
                    tolerances=dict(xatol=1e-12, xrtol=4 * np.finfo(float).eps))
    return res.x * scale


def count_crossings(net, segs):
    """One sorted list per LineSegment of the iterable segs: the alphas where the top class changes.

    The top class is the argmax, lowest index on ties. Interval bisection
    with a monotonicity test (Moore, 1966) from one cell per segment, on
    SEGMENTS segments at a time, taken from segs as needed. On a cell with
    top class c at its left end, gap g_k = z_c - z_k is root-free if
    monotone and >= 0 at the right end, or if its mean-value lower bound
    beats a rounding margin. Such a cell holds a crossing only at its
    right end, where the argmax may not be c; a cell with one other gap,
    falling monotonically below 0, holds one, refined with the others of
    its SEGMENTS segments in one bracketed_roots call; the rest are
    halved. A class repeating an earlier one's output row never leads.
    Raises FlipnetError past CHUNK_ROWS // 2 open cells of a segment in a
    round or MAX_ROUNDS rounds.
    """
    weights = net.layers[-1].weights
    rows = np.column_stack([weights, net.layers[-1].bias]).tolist()
    repeats = [row in rows[:k] for k, row in enumerate(rows)]
    crossings, segs = [], iter(segs)
    while group := list(islice(segs, SEGMENTS)):
        start, found = len(crossings), [[] for _ in group]
        if wrong := [k for k, seg in enumerate(group) if seg.x1.shape != (net.input_dim,)]:
            raise ShapeError(f"segment {start + wrong[0]} is not {net.input_dim} coordinates wide")
        x1, x2 = np.array([seg.x1 for seg in group]), np.array([seg.x2 for seg in group])
        lo, hi = np.array([[seg.alpha_min, seg.alpha_max] for seg in group], dtype=np.float64).T
        sg = np.arange(len(group))  # each cell's segment in the group
        z_lo, z_hi = np.split(_logits_at(net, np.tile(x1, (2, 1)), np.tile(x2, (2, 1)),
                                         np.concatenate([lo, hi])), 2)
        cells = []  # per round, isolated cells' (segment, lo, hi, top, other, g_lo, g_hi)
        for _ in range(MAX_ROUNDS):
            tops, cell = np.argmax(np.where(repeats, -np.inf, z_lo), axis=1), np.arange(len(lo))
            g_lo, g_hi = (end[cell, tops][:, None] - end for end in (z_lo, z_hi))
            # slope of g_k through the row difference W_c - W_k, so equal rows give [0, 0]
            d_lo, d_hi = _input_slopes(net, x1, x2 - x1, sg, lo, hi)
            s_lo, s_hi = np.empty((2, len(lo), net.class_count))
            for k, row in enumerate(weights):
                diff = weights[tops] - row
                s_mid = np.einsum("ij,ij->i", (d_lo + d_hi) / 2, diff)
                s_rad = np.einsum("ij,ij->i", (d_hi - d_lo) / 2, np.abs(diff))
                s_lo[:, k], s_hi[:, k] = s_mid - s_rad, s_mid + s_rad
            # mean-value bound: g >= g_lo - fall * (t - lo) and g >= g_hi - rise * (hi - t)
            fall, rise, w = np.maximum(-s_lo, 0.0), np.maximum(s_hi, 0.0), (hi - lo)[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.clip((g_lo - g_hi + rise * w) / (fall + rise), 0.0, w)
            floor = np.maximum(g_lo - fall * t, g_hi - rise * (w - t))
            z_max = np.maximum(np.abs(z_lo).max(axis=1), np.abs(z_hi).max(axis=1))[:, None]
            open_ = ~((s_lo >= 0) | ((s_hi <= 0) & (g_hi >= 0))
                      | (floor > 1e-12 * (z_max + np.maximum(fall, rise) * w)))
            open_[:, repeats] = False
            one = (open_.sum(axis=1) == 1) & np.any(open_ & (g_hi < 0) & (s_hi <= 0), axis=1)
            i = np.nonzero(one)[0]
            k = np.argmax(open_[i], axis=1)
            cells.append((sg[i], lo[i], hi[i], tops[i], k, g_lo[i, k], g_hi[i, k]))
            done = ~open_.any(axis=1)
            ends = done & (np.argmax(np.where(repeats, -np.inf, z_hi), axis=1) != tops)
            for s, alpha in zip(sg[ends].tolist(), hi[ends].tolist()):
                found[s].append(alpha)
            split = ~done & ~one
            sg, lo, hi, z_lo, z_hi = sg[split], lo[split], hi[split], z_lo[split], z_hi[split]
            if not len(lo) or np.bincount(sg).max() > CHUNK_ROWS // 2:
                break
            mid = (lo + hi) / 2
            z_mid = _logits_at(net, x1[sg], x2[sg], mid)
            sg, lo, hi = np.tile(sg, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi])
            z_lo, z_hi = np.concatenate([z_lo, z_mid]), np.concatenate([z_mid, z_hi])
        if len(lo):
            raise FlipnetError(f"crossings of segment {start + sg[0]} undecided on alpha cells "
                               f"from {np.sort(lo[sg == sg[0]])[:5].tolist()}")
        on, a, b, c, k, g_a, g_b = map(np.concatenate, zip(*cells))

        def gap(alpha, rows):
            z, r = _logits_at(net, x1[on[rows]], x2[on[rows]], alpha), np.arange(len(rows))
            return z[r, c[rows]] - z[r, k[rows]]
        for s, alpha in zip(on.tolist(), bracketed_roots(gap, a, b, g_a, g_b).tolist()):
            found[s].append(alpha)
        crossings += [sorted(alphas) for alphas in found]
    return crossings


def sample_line(net, seg, score_tol=SCORE_TOL, include=()):
    """Sample softmax along the segment with certified spacing; crossings are count_crossings'.

    Guarantee: unless capped, the logits of consecutive samples differ by
    at most score_tol in 2-norm. Alpha is split into CELLS equal cells,
    each with an upper bound on the logits' slope (_cell_slopes);
    samples sit at equal steps of the bound's integral, so the alphas
    are not uniform. Past SAMPLE_CAP samples the grid is uniform and
    the profile is capped. Alphas in `include` are added.
    """
    check_positive("score_tol", score_tol)
    crossings = count_crossings(net, [seg])[0]  # and checks the segment's width first
    edges = np.linspace(seg.alpha_min, seg.alpha_max, CELLS + 1)
    F = np.concatenate([[0.0], np.cumsum(_cell_slopes(net, seg, edges) * np.diff(edges))])
    count = max(np.ceil(F[-1] / score_tol) + 1, 2)
    capped = bool(count > SAMPLE_CAP)
    if capped:
        alphas = np.linspace(seg.alpha_min, seg.alpha_max, SAMPLE_CAP)
    else:
        alphas = np.interp(np.linspace(0.0, F[-1], int(count)), F, edges)
        # F is flat where a cell's bound is zero, and there interp may
        # pick any alpha of the stretch for the first or last level
        alphas[[0, -1]] = edges[[0, -1]]
    alphas = np.union1d(alphas, [a for a in include if seg.alpha_min <= a <= seg.alpha_max])
    logits = _logits_at(net, seg.x1, seg.x2, alphas)
    return PathProfile(alphas=alphas, softmax_scores=softmax_rows(logits), logits=logits,
                       crossings=crossings, capped=capped)


def profile_to_flip(net, x, flip):
    """Profile from a query through its flip point (alpha = 1) and beyond."""
    if not flip.converged:
        raise InvalidInputError(f"flip result has status {flip.status!r}")
    seg = LineSegment(np.asarray(x, dtype=np.float64), flip.point, 0.0, FLIP_OVERSHOOT)
    return sample_line(net, seg, include=(1.0,))
