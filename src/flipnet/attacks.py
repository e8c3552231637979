"""Constrained-loss adversarial attack and comparison against flip points.

The literature-baseline attack minimizes the cross-entropy loss for the
adversarial label subject to an L2 distance constraint, realized as
projected gradient descent on the epsilon-ball.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .flips import angle_degrees
from .network import forward, forward_batch, softmax_rows, vjp
from .paths import LineSegment, count_crossings


@dataclass
class AttackConfig:
    epsilon: float
    steps: int = 500
    step_size: float = None  # default epsilon / 50
    restarts: int = 0  # extra PGD runs from random points in the ball
    seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidParameterError("epsilon must be positive")
        if self.steps < 1:
            raise InvalidParameterError("steps must be >= 1")
        if self.restarts < 0:
            raise InvalidParameterError("restarts must be >= 0")
        if self.step_size is None:
            self.step_size = self.epsilon / 50.0


@dataclass
class AttackResult:
    point: np.ndarray
    distance: float
    predicted_class: int
    succeeded: bool
    final_loss: float
    iterates: np.ndarray = None  # [steps, dim] when recording was requested


@dataclass
class AdversarialComparison:
    flip_distance: float
    attack_distance: float
    segment_first_crossing_distance: float  # nan when the attack failed
    angle_deg: float


def _loss_and_grad(net, p, target):
    """Target-label cross-entropy at p and its input gradient, in one pass."""
    z, preacts = forward_batch(net, p[None, :])
    softmax = softmax_rows(z[0])
    loss = -math.log(max(softmax[target], 1e-300))
    # d(-log softmax_t)/d logits = softmax - onehot; pull back to input
    softmax[target] -= 1.0
    return loss, vjp(net, preacts, softmax)[0]


def _project_ball(x, p, epsilon):
    """Nearest point to p in the closed L2 ball of radius epsilon around x.

    The result satisfies np.linalg.norm(result - x) <= epsilon as
    computed in floating point: when rounding leaves the scaled point
    just outside, the scale shrinks until it is inside.
    """
    delta = p - x
    dn = np.linalg.norm(delta)
    if dn <= epsilon:
        return p
    scale = epsilon / dn
    shrink = np.finfo(np.float64).eps
    q = x + delta * scale
    while np.linalg.norm(q - x) > epsilon:
        scale *= 1.0 - shrink
        shrink = min(2.0 * shrink, 1.0)
        q = x + delta * scale
    return q


def constrained_loss_attack(net, x, target, cfg, record_iterates=False):
    """PGD on the target-label loss inside the L2 ball of radius epsilon.

    One run starts at the query; cfg.restarts adds runs from random
    points inside the ball. Returns the best iterate by loss across
    runs; success means its argmax equals the target. Failure is a
    valid outcome (infeasible constraint). With record_iterates the
    post-projection iterate sequence is kept on the result for
    feasibility auditing.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 0 <= target < net.class_count:
        raise InvalidParameterError(
            f"target {target} out of range [0, {net.class_count})"
        )
    rng = np.random.default_rng(cfg.seed)
    starts = [x.copy()]
    for _ in range(cfg.restarts):
        u = rng.standard_normal(x.shape)
        r = cfg.epsilon * rng.random() ** (1.0 / len(x))
        starts.append(_project_ball(x, x + r * u / np.linalg.norm(u), cfg.epsilon))

    best_p, best_loss = None, math.inf
    trace = [] if record_iterates else None
    for p in starts:
        if trace is not None:
            trace.append(p)
        # each iterate is evaluated once; its gradient drives the next step
        for step in range(cfg.steps + 1):
            loss, grad = _loss_and_grad(net, p, target)
            if loss < best_loss:
                best_loss, best_p = loss, p
            if step == cfg.steps:
                break
            p = _project_ball(x, p - cfg.step_size * grad, cfg.epsilon)
            if trace is not None:
                trace.append(p)
    pred = int(np.argmax(forward(net, best_p).logits))
    return AttackResult(
        point=best_p,
        distance=float(np.linalg.norm(best_p - x)),
        predicted_class=pred,
        succeeded=(pred == target),
        final_loss=float(best_loss),
        iterates=np.array(trace) if trace is not None else None,
    )


def compare_attack_vs_flip(net, x, attack, flip, score_tol=0.01):
    """Distances and angle of the attack point vs the closest flip point.

    For a successful attack, the first crossing on the segment x ->
    attack point gives the boundary distance the attack implicitly
    passed through.
    """
    x = np.asarray(x, dtype=np.float64)
    first_crossing = float("nan")
    if attack.succeeded and attack.distance > 0:
        seg = LineSegment(x, attack.point, 0.0, 1.0)
        crossings = count_crossings(net, seg, score_tol)
        if crossings:
            first_crossing = min(crossings) * attack.distance
    angle = angle_degrees(flip.point - x, attack.point - x)
    return AdversarialComparison(
        flip_distance=flip.distance,
        attack_distance=attack.distance,
        segment_first_crossing_distance=first_crossing,
        angle_deg=angle,
    )


def flip_distance_histogram(results, bin_width):
    """Fixed-width histogram of converged flip distances, bins from 0.

    Returns a list of (bin_low, bin_high, count); total count preserved.
    """
    if bin_width <= 0:
        raise InvalidParameterError("bin_width must be positive")
    distances = [r.distance for r in results]
    if not distances:
        return []
    n_bins = int(math.floor(max(distances) / bin_width)) + 1
    counts = [0] * n_bins
    for d in distances:
        counts[min(int(d // bin_width), n_bins - 1)] += 1
    return [
        (k * bin_width, (k + 1) * bin_width, counts[k]) for k in range(n_bins)
    ]
