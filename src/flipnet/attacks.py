"""Constrained-loss adversarial attack and comparison against flip points.

The literature-baseline attack minimizes the cross-entropy loss for the
adversarial label subject to an L2 distance constraint, realized as
projected gradient descent on the epsilon-ball. constrained_loss_attacks
runs many attacks as the rows of one iterate array: every (query, radius,
restart) run is a row, and each step is one forward pass and one reverse
sweep for all rows, in chunks of at most CHUNK_ROWS rows. A row's last
bits can depend on which rows share its chunk.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, ShapeError, check_count
from .flips import angle_degrees
from .network import cross_entropy, forward_batch, row_norms, softmax_rows, vjp
from .paths import LineSegment, count_crossings

CHUNK_ROWS = 2048  # PGD rows per forward_batch call; caps the memory of a step


@dataclass
class AttackConfig:
    epsilon: float
    steps: int = 500
    restarts: int = 0  # extra PGD runs from random points in the ball
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise InvalidParameterError(f"epsilon must be positive and finite, got {self.epsilon}")
        check_count("steps", self.steps, 1)
        check_count("restarts", self.restarts, 0)
        check_count("seed", self.seed, 0)


@dataclass
class AttackResult:
    point: np.ndarray
    distance: float
    predicted_class: int
    succeeded: bool
    final_loss: float
    iterates: np.ndarray = None  # [(1 + restarts) * (steps + 1), dim] when recorded


@dataclass
class AdversarialComparison:
    flip_distance: float
    attack_distance: float
    segment_first_crossing_distance: float  # nan when the attack failed
    angle_deg: float


def _project_ball(x, P, epsilon):
    """Nearest point to each row of P in the closed L2 ball of radius
    epsilon around the matching row of x.

    P is [n, d] with x [n, d] or [d] and epsilon a scalar or [n]. Each
    result row satisfies np.linalg.norm(row - x) <= epsilon as computed
    in floating point: when rounding leaves a scaled row just outside,
    its scale shrinks until it is inside.
    """
    P = np.asarray(P, dtype=np.float64)
    X = np.broadcast_to(x, P.shape)
    eps = np.broadcast_to(np.asarray(epsilon, dtype=np.float64), P.shape[:1])
    delta = P - X
    dn = row_norms(delta)
    rows = np.flatnonzero(dn > eps)
    if not rows.size:
        return P
    Q = P.copy()
    scale = eps[rows] / dn[rows]
    shrink = np.finfo(np.float64).eps
    while rows.size:
        Q[rows] = X[rows] + delta[rows] * scale[:, None]
        outside = row_norms(Q[rows] - X[rows]) > eps[rows]
        rows, scale = rows[outside], scale[outside] * (1.0 - shrink)
        shrink = min(2.0 * shrink, 1.0)
    return Q


def _starts(x, cfg):
    """[1 + cfg.restarts, d]: the query, then cfg.restarts points drawn
    uniformly in the ball and projected into it in one call."""
    rng = np.random.default_rng(cfg.seed)
    P = np.empty((cfg.restarts, len(x)))
    for p in P:
        u = rng.standard_normal(x.shape)
        r = cfg.epsilon * rng.random() ** (1.0 / len(x))
        p[:] = x + r * u / np.linalg.norm(u)
    return np.vstack([x, _project_ball(x, P, cfg.epsilon)])


def _pgd_rows(net, X, P, targets, epsilon, steps, trace):
    """PGD from the rows of P, each in its own ball (row of X, epsilon).

    Returns each row's best iterate by target-label loss (strict < in
    step order), that loss and the logits there. It costs steps + 1
    forward passes and steps reverse sweeps however many rows there
    are: the last iterate needs only its loss. With trace a list, each
    post-projection iterate array is appended to it.
    """
    ar = np.arange(len(P))
    step_length = epsilon[:, None] / 50.0
    best_P = np.empty_like(P)
    best_loss = np.full(len(P), math.inf)
    best_Z = np.empty((len(P), net.class_count))
    for step in range(steps + 1):
        if trace is not None:
            trace.append(P)
        Z, tape = forward_batch(net, P)
        softmax = softmax_rows(Z)
        loss = cross_entropy(softmax, targets)
        better = loss < best_loss
        best_loss[better] = loss[better]
        best_P[better] = P[better]
        best_Z[better] = Z[better]
        if step == steps:
            break
        # d(-log softmax_t)/d logits = softmax - onehot; pull back to input
        softmax[ar, targets] -= 1.0
        P = _project_ball(X, P - step_length * vjp(net, tape, softmax), epsilon)
    return best_P, best_loss, best_Z


def constrained_loss_attacks(net, X, targets, cfgs, record_iterates=False):
    """PGD on target-label losses inside L2 balls, for many attacks at once.

    Attack i runs from row X[i] towards class targets[i] with cfgs[i]:
    one run from the query and cfgs[i].restarts runs from random points
    in the ball, with gradient steps of epsilon / 50. Every run is one
    row of an iterate array, and a step is one forward pass and one
    reverse sweep over all rows (CHUNK_ROWS at a time, grouped by step
    count). Each attack returns the best iterate by loss over its runs
    (the first of equal losses); success means its argmax equals the
    target. Failure is a valid outcome (infeasible constraint). With
    record_iterates each result keeps its runs' post-projection
    iterates, run after run, for feasibility auditing.
    """
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets)
    if X.ndim != 2 or targets.shape != (len(X),) or len(cfgs) != len(X):
        raise ShapeError(f"expected X [n, d] with n targets and configs, got {X.shape}, "
                         f"{targets.shape} and {len(cfgs)}")
    if targets.size and targets.dtype.kind not in "iu":
        raise InvalidParameterError(f"targets must be integer class ids, got {targets}")
    for target in targets:
        if not 0 <= target < net.class_count:
            raise InvalidParameterError(
                f"target {target} out of range [0, {net.class_count})"
            )
    if not len(X):
        return []
    # rows first[i]:first[i + 1] are attack i's runs, its query first
    first = np.cumsum([0] + [1 + cfg.restarts for cfg in cfgs])
    owner = np.repeat(np.arange(len(X)), np.diff(first))
    starts = np.concatenate([_starts(x, cfg) for x, cfg in zip(X, cfgs)])
    eps = np.array([cfgs[i].epsilon for i in owner], dtype=np.float64)
    steps = np.array([cfgs[i].steps for i in owner])
    best_P = np.empty_like(starts)
    best_loss = np.empty(len(starts))
    best_Z = np.empty((len(starts), net.class_count))
    traces = [None] * len(starts)
    for n_steps in np.unique(steps):
        group = np.flatnonzero(steps == n_steps)
        for lo in range(0, len(group), CHUNK_ROWS):
            rows = group[lo:lo + CHUNK_ROWS]
            trace = [] if record_iterates else None
            best_P[rows], best_loss[rows], best_Z[rows] = _pgd_rows(
                net, X[owner[rows]], starts[rows], targets[owner[rows]], eps[rows],
                int(n_steps), trace)
            if record_iterates:
                for row, row_trace in zip(rows, np.stack(trace, axis=1)):
                    traces[row] = row_trace
    results = []
    for i, (x, target) in enumerate(zip(X, targets)):
        best = first[i] + int(np.argmin(best_loss[first[i]:first[i + 1]]))
        pred = int(np.argmax(best_Z[best]))
        results.append(AttackResult(
            point=best_P[best],
            distance=float(np.linalg.norm(best_P[best] - x)),
            predicted_class=pred,
            succeeded=bool(pred == target),
            final_loss=float(best_loss[best]),
            iterates=(np.concatenate(traces[first[i]:first[i + 1]])
                      if record_iterates else None),
        ))
    return results


def constrained_loss_attack(net, x, target, cfg, record_iterates=False):
    """constrained_loss_attacks for one query: PGD on the target-label
    loss inside the L2 ball of radius cfg.epsilon around x."""
    x = np.asarray(x, dtype=np.float64)
    return constrained_loss_attacks(net, x[None, :], [target], [cfg], record_iterates)[0]


def compare_attack_vs_flip(net, x, attack, flip):
    """Distances and angle of the attack point vs the closest flip point.

    For a successful attack, the first crossing on the segment x ->
    attack point gives the boundary distance the attack implicitly
    passed through.
    """
    x = np.asarray(x, dtype=np.float64)
    first_crossing = float("nan")
    if attack.succeeded and attack.distance > 0:
        crossings = count_crossings(net, [LineSegment(x, attack.point)])[0]
        if crossings:
            first_crossing = min(crossings) * attack.distance
    angle = angle_degrees(flip.point - x, attack.point - x)
    return AdversarialComparison(
        flip_distance=flip.distance,
        attack_distance=attack.distance,
        segment_first_crossing_distance=first_crossing,
        angle_deg=angle,
    )

