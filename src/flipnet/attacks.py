"""Constrained-loss adversarial attack and comparison against flip points.

The literature-baseline attack minimizes the cross-entropy loss for the
adversarial label subject to an L2 distance constraint, realized as
projected gradient descent on the epsilon-ball. constrained_loss_attacks
runs many attacks as the rows of one iterate array: every (query, radius,
restart) run is a row, and each step is one forward pass and one reverse
sweep for all rows, in chunks of at most CHUNK_ROWS rows. The network's
products run in fixed-shape tiles, so a row's bytes do not depend on
which rows share its chunk (within one host and BLAS build).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, check_classes, check_count, check_positive
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
        check_positive("epsilon", self.epsilon)
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


def _pgd_rows(net, X, P, targets, epsilon, steps):
    """PGD from the rows of P, each in its own ball (row of X, epsilon).

    Row r takes steps[r] steps: the loop runs to the largest count and a
    row's best iterate by target-label loss (strict < in step order),
    that loss and the logits there stop changing after its own count.
    It costs max(steps) + 1 forward passes and max(steps) reverse sweeps
    however many rows there are: the last iterate needs only its loss.
    """
    ar = np.arange(len(P))
    step_length = epsilon[:, None] / 50.0
    best_P = np.empty_like(P)
    best_loss = np.full(len(P), math.inf)
    best_Z = np.empty((len(P), net.class_count))
    last = steps.max()
    for step in range(last + 1):
        Z, tape = forward_batch(net, P)
        softmax = softmax_rows(Z)
        loss = cross_entropy(softmax, targets)
        better = (loss < best_loss) & (step <= steps)
        best_loss[better] = loss[better]
        best_P[better] = P[better]
        best_Z[better] = Z[better]
        if step == last:
            break
        # d(-log softmax_t)/d logits = softmax - onehot; pull back to input
        softmax[ar, targets] -= 1.0
        P = _project_ball(X, P - step_length * vjp(net, tape, softmax), epsilon)
    return best_P, best_loss, best_Z


def constrained_loss_attacks(net, X, targets, cfgs):
    """PGD on target-label losses inside L2 balls, for many attacks at once.

    Attack i runs from row X[i] towards class targets[i] with cfgs[i]:
    one run from the query and cfgs[i].restarts runs from random points
    in the ball, with gradient steps of epsilon / 50 and cfgs[i].steps
    steps, so a call's attacks may differ in step count. Every run is
    one row of an iterate array, and a step is one forward pass and one
    reverse sweep over all rows, CHUNK_ROWS consecutive rows at a time.
    Each attack returns the best iterate by loss over its runs (the
    first of equal losses); success means its argmax equals the target.
    Failure is a valid outcome (infeasible constraint).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or np.shape(targets) != (len(X),) or len(cfgs) != len(X):
        raise ShapeError(f"expected X [n, d] with n targets and configs, got {X.shape}, "
                         f"{np.shape(targets)} and {len(cfgs)}")
    targets = check_classes("targets", targets, net.class_count)
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
    for lo in range(0, len(starts), CHUNK_ROWS):
        rows = slice(lo, lo + CHUNK_ROWS)
        best_P[rows], best_loss[rows], best_Z[rows] = _pgd_rows(
            net, X[owner[rows]], starts[rows], targets[owner[rows]], eps[rows], steps[rows])
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
        ))
    return results


def constrained_loss_attack(net, x, target, cfg):
    """constrained_loss_attacks for one query: PGD on the target-label
    loss inside the L2 ball of radius cfg.epsilon around x."""
    x = np.asarray(x, dtype=np.float64)
    return constrained_loss_attacks(net, x[None, :], [target], [cfg])[0]


def compare_attack_vs_flip(net, X, attacks, flips):
    """Distances and angle of each attack point vs its query's closest flip
    point: one AdversarialComparison per row of X with its attack and flip.

    For a successful attack, the first crossing on the segment x ->
    attack point gives the boundary distance the attack implicitly
    passed through; one count_crossings call finds them all.
    """
    X = np.asarray(X, dtype=np.float64)
    if not len(X) == len(attacks) == len(flips):
        raise ShapeError(f"expected one attack and one flip per query, got {len(X)} queries, "
                         f"{len(attacks)} attacks and {len(flips)} flips")
    hit = [q for q, attack in enumerate(attacks) if attack.succeeded and attack.distance > 0]
    found = dict(zip(hit, count_crossings(
        net, (LineSegment(X[q], attacks[q].point) for q in hit))))
    return [AdversarialComparison(
        flip_distance=flip.distance,
        attack_distance=attack.distance,
        segment_first_crossing_distance=(min(found[q]) * attack.distance if found.get(q)
                                         else float("nan")),
        angle_deg=angle_degrees(flip.point - x, attack.point - x),
    ) for q, (x, attack, flip) in enumerate(zip(X, attacks, flips))]
