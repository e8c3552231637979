"""Flip-point computation.

A flip point for a class pair (i, j) is an input where the two logits
tie (equivalently the two softmax scores) and no other logit exceeds
them. The closest flip point is found by an augmented Lagrangian on the
logit-equality constraint with a quadratic penalty on violated
dominance inequalities, inner solves by L-BFGS, multi-start from
perturbed seeds, and a final polish: the ray search towards the
solver's point (a doubling bracket, then Brent's method), then a
tangent step. The first-order Taylor baseline and its comparison
metrics live here too.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import DegenerateGradientError, InvalidParameterError
from .features import haar3d_inverse, scatter_selector
from .network import forward_batch, softmax_rows, vjp

STATUS_CONVERGED = "converged"
STATUS_LOCAL = "local-stationary"
STATUS_BRACKET_FAILED = "bracket-failed"


@dataclass
class FlipResult:
    point: np.ndarray
    distance: float
    class_pair: tuple
    equality_residual: float  # |softmax_i - softmax_j| at the point
    dominance_margin: float  # softmax_i - max of the other softmax scores
    status: str

    @property
    def converged(self):
        return self.status == STATUS_CONVERGED


def rank(result):
    """Sort key of flip candidates: converged before not converged, then
    the nearer point; unconverged results rank by equality residual."""
    if result.converged:
        return (0, result.distance)
    return (1, result.equality_residual)


@dataclass
class TaylorEstimate:
    distance: float
    direction: np.ndarray  # unit vector


@dataclass
class ComparisonMetrics:
    beta: float  # closest-flip distance / Taylor distance
    directional_ratio: float  # distance along Taylor direction / closest distance
    angle_deg: float
    flip: FlipResult = None
    taylor: TaylorEstimate = None
    directional: FlipResult = None


MAX_OUTER = 100
OUTER_TOL = 1e-8  # on the logit-equality residual
PENALTY_INIT = 10.0
PENALTY_GROWTH = 10.0
INNER_MAXITER = 500
PIXEL_TOL = 1e-6  # a legitimate image's pixels lie in [0, 1] to within this


@dataclass
class SolveOptions:
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0:
            raise InvalidParameterError(f"restarts must be >= 0, got {self.restarts}")


def _check_pair(net, pair):
    """The class pair as two distinct class ids of net, else InvalidParameterError."""
    i, j = pair
    if i == j or not (0 <= i < net.class_count and 0 <= j < net.class_count):
        raise InvalidParameterError(f"invalid class pair {pair}")
    return i, j


def _pair_coeffs(class_count, i, j):
    c = np.zeros(class_count)
    c[i] = 1.0
    c[j] = -1.0
    return c


def _residuals(z, i, j):
    """Softmax-space equality residual and dominance margin, from logits z."""
    s = softmax_rows(z)
    eq = abs(s[i] - s[j])
    others = np.delete(s, [i, j])
    margin = s[i] - others.max() if others.size else math.inf
    return eq, margin


def _logits(net, p):
    return forward_batch(net, p[None, :])[0][0]


def _gap_and_grad(net, p, i, j):
    """Logit gap z_i - z_j at p and its input gradient: one forward pass, one VJP."""
    z, preacts = forward_batch(net, p[None, :])
    return z[0, i] - z[0, j], vjp(net, preacts, _pair_coeffs(net.class_count, i, j))[0]


def _make_result(x, p, pair, z):
    """FlipResult at p, from the logits z at p."""
    i, j = pair
    eq, margin = _residuals(z, i, j)
    ok = eq <= 1e-6 and margin >= -1e-8
    return FlipResult(
        point=p,
        distance=float(np.linalg.norm(p - x)),
        class_pair=(i, j),
        equality_residual=float(eq),
        dominance_margin=float(margin),
        status=STATUS_CONVERGED if ok else STATUS_LOCAL,
    )


def _tangent_polish(net, x, p, i, j, iters=30):
    """Gauss-Newton refinement of the foot of the perpendicular from x.

    Repeatedly projects x onto the linearization of the boundary at the
    current iterate; exact in one step for linear models, and removes
    the inner solver's tangential drift otherwise.
    """
    q = np.asarray(p, dtype=np.float64).copy()
    for _ in range(iters):
        g, grad = _gap_and_grad(net, q, i, j)
        denom = float(grad @ grad)
        if denom <= 1e-300:
            break
        q_new = x - ((g + grad @ (x - q)) / denom) * grad
        if not np.all(np.isfinite(q_new)):
            break
        step = np.linalg.norm(q_new - q)
        q = q_new
        if step <= 1e-14 * max(1.0, np.linalg.norm(q)):
            break
    return q


def _augmented_lagrangian_solve(net, x, start, pair):
    """One multi-start branch: outer AL loop with L-BFGS inner solves."""
    i, j = pair
    c_eq = _pair_coeffs(net.class_count, i, j)
    lam = 0.0
    mu = PENALTY_INIT
    p = np.asarray(start, dtype=np.float64).copy()

    def violations(z):
        """z_k - z_i where positive, for each class k outside the pair."""
        v = np.maximum(z - z[i], 0.0)
        v[j] = 0.0
        return v

    def objective(q):
        z, preacts = forward_batch(net, q[None, :])
        z = z[0]
        h = z[i] - z[j]
        v = violations(z)
        val = float(np.dot(q - x, q - x)) + lam * h + 0.5 * mu * h * h
        val += 0.5 * mu * float(v @ v)
        # one sweep for the equality term and every violated dominance
        # term: sum_k mu * v_k * (e_k - e_i)
        coeffs = (lam + mu * h) * c_eq + mu * v
        coeffs[i] -= mu * v.sum()
        return val, 2.0 * (q - x) + vjp(net, preacts, coeffs)[0]

    z = _logits(net, p)
    prev_h = abs(z[i] - z[j])
    for _ in range(MAX_OUTER):
        res = minimize(
            objective, p, jac=True, method="L-BFGS-B",
            options={"maxiter": INNER_MAXITER, "ftol": 1e-14, "gtol": 1e-12},
        )
        p = res.x
        z = _logits(net, p)
        h = z[i] - z[j]
        if abs(h) <= OUTER_TOL and violations(z).max() <= OUTER_TOL:
            break
        lam += mu * h
        if abs(h) > 0.25 * prev_h:
            mu *= PENALTY_GROWTH
        prev_h = abs(h)

    # Polish: the first crossing on the ray x -> p is on the boundary and
    # no farther from x than p itself. The iterate can sit marginally on
    # the query side of the boundary, so the search runs a little past p.
    result = _make_result(x, p, pair, z)
    if result.distance > 0.0:
        crossing = flip_along_direction(net, x, p - x, pair, t_max=1.1 * result.distance)
        if (crossing.status != STATUS_BRACKET_FAILED
                and crossing.dominance_margin >= -1e-8
                and crossing.equality_residual <= max(result.equality_residual, 1e-6)):
            result = crossing
    # Remove tangential drift left by the inner solver; keep the
    # polished point only when it is no farther, stays feasible and
    # stays on the boundary to rounding.
    polished = _tangent_polish(net, x, result.point, i, j)
    z_t = _logits(net, polished)
    eq_t, margin_t = _residuals(z_t, i, j)
    if (margin_t >= -1e-8 and eq_t <= max(result.equality_residual, 1e-12)
            and np.linalg.norm(polished - x) <= result.distance + 1e-12):
        result = _make_result(x, polished, pair, z_t)
    return result


def closest_flip(net, x, pair, opts=None):
    """Closest point where logits i and j tie and neither is dominated.

    Started at the query itself; optional multi-start from Gaussian
    perturbations at radii {0.01, 0.1} * ||x||. Keeps the first result
    that ranks lowest by `rank`: the nearest converged one, else the
    non-converged iterate with the smallest equality residual.
    """
    opts = opts or SolveOptions()
    x = np.asarray(x, dtype=np.float64)
    i, j = _check_pair(net, pair)

    # A query already on the boundary is its own flip point.
    z = _logits(net, x)
    eq, margin = _residuals(z, i, j)
    if eq == 0.0 and margin >= 0.0:
        return _make_result(x, x.copy(), (i, j), z)

    rng = np.random.default_rng(opts.seed)
    seeds = [x]
    radii = [0.01, 0.1]
    scale = max(np.linalg.norm(x), 1.0)
    for r in range(opts.restarts):
        radius = radii[(r // 2) % len(radii)] * scale
        seeds.append(x + radius * rng.standard_normal(x.shape))

    return min((_augmented_lagrangian_solve(net, x, s, pair) for s in seeds), key=rank)


def flip_along_direction(net, x, direction, pair, t_max=None):
    """First boundary crossing along a ray, by doubling bracket + Brent's method.

    The solver's polish calls it too. Doubling starts at min(1e-4, t_max)
    and never probes past t_max; Brent's method (scipy's brentq) shrinks
    the bracket to 1e-12 * max(1, t). With no sign change up to t_max
    (default 1e6 * max(1, ||x||); a given t_max must be positive and
    finite) the result is the point at t_max, with status bracket-failed.
    """
    x = np.asarray(x, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        raise InvalidParameterError("direction must be nonzero")
    d = direction / norm
    i, j = _check_pair(net, pair)
    if t_max is None:
        t_max = 1e6 * max(1.0, float(np.linalg.norm(x)))
    elif not 0 < t_max < math.inf:
        raise InvalidParameterError(f"t_max must be positive and finite, got {t_max}")

    # brentq re-evaluates the bracket's ends, and its root is one of its
    # probes: each t costs one forward pass
    @functools.cache
    def logits(t):
        return _logits(net, x + t * d)

    def gap(t):
        z = logits(t)
        return z[i] - z[j]

    g0 = gap(0.0)
    if g0 == 0.0:
        return _make_result(x, x.copy(), pair, logits(0.0))

    # Doubling: t_lo is the farthest probe on the query's side, t_hi the
    # next one; neither passes t_max.
    t_lo, t_hi = 0.0, min(1e-4, t_max)
    while np.sign(gap(t_hi)) == np.sign(g0):
        t_lo = t_hi
        if t_hi >= t_max:
            p = x + t_lo * d
            eq, margin = _residuals(logits(t_lo), i, j)
            return FlipResult(
                p, float(t_lo), (i, j), float(eq), float(margin), STATUS_BRACKET_FAILED
            )
        t_hi = min(2.0 * t_hi, t_max)

    # One width serves every caller: the solver's polish needs the
    # crossing to about 1e-12 relative to anchor its tangent step.
    t_star = brentq(gap, t_lo, t_hi, xtol=1e-12 * max(1.0, t_hi),
                    rtol=4 * np.finfo(float).eps)
    return _make_result(x, x + t_star * d, pair, logits(t_star))


def taylor_estimate(net, x, pair):
    """First-order distance |g| / ||grad g|| and steepest direction to the
    linearized boundary, for g = z_i - z_j."""
    x = np.asarray(x, dtype=np.float64)
    g, grad = _gap_and_grad(net, x, *_check_pair(net, pair))
    gnorm = np.linalg.norm(grad)
    if gnorm < 1e-14:
        raise DegenerateGradientError("logit-difference gradient is (near) zero")
    sign = 1.0 if g >= 0 else -1.0
    return TaylorEstimate(distance=float(abs(g) / gnorm), direction=-sign * grad / gnorm)


def angle_degrees(u, v):
    """Angle between two vectors, in [0, 180] degrees.

    Uses atan2 of the perpendicular/parallel decomposition, which stays
    accurate for nearly parallel vectors where arccos loses precision.
    """
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return float("nan")
    u1 = np.asarray(u, dtype=np.float64) / nu
    v1 = np.asarray(v, dtype=np.float64) / nv
    c = float(np.dot(u1, v1))
    perp = np.linalg.norm(u1 - c * v1)
    return float(np.degrees(np.arctan2(perp, c)))


def compare(net, x, pair, opts=None):
    """Closest flip vs Taylor baseline vs directional search.

    If the directional point ranks ahead of the solver's result (by
    `rank`), the solver is re-seeded from it and the first of the three
    that ranks lowest is kept, so directional_ratio >= 1 whenever both
    converged. On a logit plateau, where the Taylor estimate is
    undefined, the solver runs once and beta, directional_ratio and
    angle_deg are NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    try:
        tay = taylor_estimate(net, x, pair)
    except DegenerateGradientError:
        nan = float("nan")
        return ComparisonMetrics(
            beta=nan, directional_ratio=nan, angle_deg=nan,
            flip=closest_flip(net, x, pair, opts),
            taylor=TaylorEstimate(distance=nan, direction=None),
        )
    flip = closest_flip(net, x, pair, opts)
    directional = flip_along_direction(net, x, tay.direction, pair)
    if rank(directional) < rank(flip):
        reseeded = _augmented_lagrangian_solve(net, x, directional.point, pair)
        flip = min((flip, reseeded, directional), key=rank)

    beta = flip.distance / tay.distance if tay.distance > 0 else float("nan")
    if directional.converged and flip.converged and flip.distance > 0:
        directional_ratio = directional.distance / flip.distance
    else:
        directional_ratio = float("nan")
    if flip.converged and flip.distance > 0:
        angle = angle_degrees(tay.direction, flip.point - x)
    else:
        angle = float("nan")
    return ComparisonMetrics(
        beta=float(beta),
        directional_ratio=float(directional_ratio),
        angle_deg=float(angle),
        flip=flip,
        taylor=tay,
        directional=directional,
    )


def check_legitimate_image(points, sel, base_coeffs):
    """Is the pixel-space reconstruction of each feature point within [0, 1] (to PIXEL_TOL)?

    points [..., k] and base_coeffs [..., 4096] have equal leading
    shapes; a single point is a stack of one. Each point's feature
    values replace the selected coefficients of its query image's
    coefficient row, unselected coefficients keep the query's values,
    and all rows are inverted in one call. Returns (legitimate,
    max_violation), arrays of the leading shape.
    """
    pixels = haar3d_inverse(scatter_selector(points, sel, base_coeffs))
    violation = np.maximum(np.max(np.maximum(-pixels, pixels - 1.0), axis=(-3, -2, -1)), 0.0)
    return violation <= PIXEL_TOL, violation
