"""Softmax profiles along lines between points.

The step size comes from the network's Lipschitz bound, so between
consecutive samples the logits provably change by at most score_tol.
Boundary crossings (argmax changes) are refined by the ray search in
flips.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .flips import flip_along_direction
from .network import forward_batch, lipschitz_bound, softmax_rows

SAMPLE_CAP = 1_000_000


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
    tie = flip_along_direction(net, x_lo, step, (ci, cj), t_max=length)
    return a_lo + (a_hi - a_lo) * (tie.distance / length)


def sample_line(net, seg, score_tol=0.01, include=()):
    """Sample softmax along the segment with Lipschitz-bounded spacing.

    Step chosen so lipschitz_bound * delta_alpha * ||x2 - x1|| <= score_tol,
    capped at 1e6 samples (capped flag set). Crossings are refined argmax
    changes between consecutive samples. Extra alphas in `include` are
    inserted into the grid.
    """
    span = seg.alpha_max - seg.alpha_min
    bound = lipschitz_bound(net)
    capped = False
    if bound * seg.length == 0.0:
        n = 2
    else:
        n = int(np.ceil(span * bound * seg.length / score_tol)) + 1
        n = max(n, 2)
        if n > SAMPLE_CAP:
            n = SAMPLE_CAP
            capped = True
    alphas = np.linspace(seg.alpha_min, seg.alpha_max, n)
    extra = [a for a in include if seg.alpha_min <= a <= seg.alpha_max]
    if extra:
        alphas = np.unique(np.concatenate([alphas, np.asarray(extra, dtype=np.float64)]))
    points = (1.0 - alphas)[:, None] * seg.x1 + alphas[:, None] * seg.x2
    logits, _ = forward_batch(net, points)
    # Grid rows at the canonical endpoints are recomputed one-by-one so
    # they match single-point forward() evaluations bit-for-bit (batched
    # BLAS may round differently).
    for a in (0.0, 1.0):
        hits = np.nonzero(alphas == a)[0]
        for t in hits:
            logits[t], _ = forward_batch(net, points[t][None, :])
    scores = softmax_rows(logits)

    crossings = []
    tops = np.argmax(logits, axis=1)
    for t in range(len(alphas) - 1):
        if tops[t] != tops[t + 1]:
            crossings.append(
                _refine_crossing(net, seg, alphas[t], alphas[t + 1], tops[t], tops[t + 1])
            )
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
