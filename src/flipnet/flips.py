"""Flip-point computation.

A flip point for a class pair (i, j) is an input where the two logits
tie (equivalently the two softmax scores) and no other logit exceeds
them. The closest flip point is searched from multiple starts, each a
row of one iterate array, so each evaluation is one forward pass and
one VJP over all rows still running. Every row first runs a
Gauss-Newton projection onto the boundary's linearization, which often
converges because the boundary is flat in most directions (Fawzi et
al., arXiv 1705.09552). It finishes the rows that settle on contracting
steps at a feasible KKT point: contraction there bounds each principal
curvature of the boundary by 1 / distance, so the point is a strict
local minimum. The other rows run an augmented Lagrangian on the
logit-equality constraint with a quadratic penalty on violated
dominance inequalities, inner solves by L-BFGS. Every row then gets a
polish: the ray search towards its point (a doubling bracket, then
Chandrupatla's method), then the projection again. The first-order
Taylor baseline and its comparison metrics live here too.
"""

import math
from dataclasses import dataclass

import numpy as np
# minimize is unused here: perfbench/spans.py wraps this name until benchmark v2
from scipy.optimize import minimize  # noqa: F401

from .errors import (DegenerateGradientError, InvalidInputError, InvalidParameterError, ShapeError,
                     check_classes, check_count, check_positive)
from .features import haar3d_inverse, scatter_selector
from .network import forward_batch, row_norms, softmax_rows, vjp
from .paths import bracketed_roots

STATUS_CONVERGED = "converged"
STATUS_LOCAL = "local-stationary"
STATUS_BRACKET_FAILED = "bracket-failed"
EQUALITY_TOL = 1e-6  # largest equality residual of a converged point
DOMINANCE_TOL = 1e-8  # largest excess of another softmax score over the pair's at a feasible point


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
    return (0, result.distance) if result.converged else (1, result.equality_residual)


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
INNER_FTOL = 1e-14  # relative decrease of the objective that ends an inner solve
INNER_GTOL = 1e-12  # largest gradient component that ends an inner solve
# curvature pairs kept (L-BFGS-B's default), and the backtracking line
# search's sufficient-decrease tolerance, evaluations per search and
# largest first step
MEMORY = 10
LS_FTOL = 1e-3
LS_EVALS = 20
STEP_MAX = 1e10
CHUNK_ROWS = 2048  # solver rows per iterate array; caps the memory of a solve
PIXEL_TOL = 1e-6  # a legitimate image's pixels lie in [0, 1] to within this


@dataclass
class SolverStats:
    """Work of the batched solver, summed over the calls it is passed to."""

    evaluations: int = 0  # batched evaluations: projection passes and AL objective evaluations
    rows: int = 0  # rows evaluated, summed over those evaluations
    projected: int = 0  # rows the projection finished, so the AL never ran them

    def count(self, rows):
        self.evaluations, self.rows = self.evaluations + 1, self.rows + rows


@dataclass
class SolveOptions:
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        check_count("restarts", self.restarts, 0)
        check_count("seed", self.seed, 0)


def _residuals(Z, I, J):
    """Softmax-space equality residuals |s_i - s_j| and dominance margins
    s_i - max of the other scores (inf for two classes) of the logit rows
    Z, for pairs (I, J): one softmax over all rows."""
    S = softmax_rows(Z)
    r = np.arange(len(S))
    others = S.copy()
    others[r, I] = others[r, J] = -math.inf
    return np.abs(S[r, I] - S[r, J]), S[r, I] - others.max(axis=1)


def _queries(net, X, pairs):
    """(X, I, J): X as a float [n, d] array with one class pair per row, each
    pair two class ids, else ShapeError; the pairs as int64 arrays I, J of
    two distinct classes of net per row, else InvalidParameterError."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(pairs) != len(X):
        raise ShapeError(f"expected X [n, d] with n class pairs, got {X.shape} and "
                         f"{len(pairs)} pairs")
    try:
        ids = check_classes("class pairs", pairs, net.class_count).reshape(len(pairs), 2)
    except ValueError:
        raise ShapeError(f"expected each of the {len(pairs)} class pairs to be two "
                         "class ids") from None
    same = ids[:, 0] == ids[:, 1]
    if same.any():
        raise InvalidParameterError(f"class pair {tuple(ids[same][0].tolist())} "
                                    "must be two distinct classes")
    return X, *ids.T


def _gaps_and_grads(net, P, I, J):
    """Logits at the rows of P, their gaps z_i - z_j and the gaps' input
    gradients: one forward pass, one VJP."""
    z, tape = forward_batch(net, P)
    r = np.arange(len(P))
    coeffs = np.zeros((len(P), net.class_count))
    coeffs[r, I], coeffs[r, J] = 1.0, -1.0
    return z, z[r, I] - z[r, J], vjp(net, tape, coeffs)


def _make_results(X, P, I, J, Z, failed=False, T=0.0):
    """FlipResults at the rows of P (logits Z) for queries X and pairs (I, J):
    bracket-failed at distance T where the mask `failed` is set, else
    converged where the equality residual is at most EQUALITY_TOL and the
    dominance margin at least -DOMINANCE_TOL."""
    eq, margin = _residuals(Z, I, J)
    converged = (eq <= EQUALITY_TOL) & (margin >= -DOMINANCE_TOL)
    status = np.select([failed, converged], [STATUS_BRACKET_FAILED, STATUS_CONVERGED], STATUS_LOCAL)
    distance = np.where(failed, T, row_norms(P - X))
    return [FlipResult(*result) for result in zip(P, distance.tolist(), zip(I.tolist(), J.tolist()),
                                                  eq.tolist(), margin.tolist(), status.tolist())]


def _project(net, X, P, I, J, stats=None, iters=30):
    """Gauss-Newton projection of the rows of X onto their boundaries from
    the rows of P (Nocedal and Wright, ch. 10 and 18): (Q, Z, finished),
    the last iterates, their logits and the rows it solves.

    Each step projects x onto the boundary's linearization at the iterate,
    one forward pass and one VJP over the rows still moving; one more over
    all rows evaluates the last iterates. A row stops when its step
    settles (<= 1e-14 max(1, |q|)), when it cannot move, or when its step
    grows after its second one. It is finished when it settled on a step
    shorter than its last, on the boundary (equality residual <= 1e-12),
    feasible, and at a KKT point (x - q parallel to the gap's gradient to
    1e-10). Exact in one step for linear models.
    """
    Q, live = P.copy(), np.arange(len(P))
    last, contracted = np.zeros(len(P)), np.zeros(len(P), dtype=bool)
    for k in range(iters):
        if not live.size:
            break
        q, x_ = Q[live], X[live]
        _, g, grad = _gaps_and_grads(net, q, I[live], J[live])
        if stats is not None:
            stats.count(live.size)
        denom = np.einsum("rd,rd->r", grad, grad)
        with np.errstate(all="ignore"):
            q_new = x_ - ((g + np.einsum("rd,rd->r", grad, x_ - q)) / denom)[:, None] * grad
        moves = (denom > 1e-300) & np.all(np.isfinite(q_new), axis=1)
        Q[live[moves]] = q_new[moves]
        step = np.linalg.norm(q_new - q, axis=1)
        settled = step <= 1e-14 * np.maximum(1.0, np.linalg.norm(q_new, axis=1))
        contracted[live] = settled & (step < last[live])
        grew = (step > last[live]) & (k >= 2)
        last[live] = step
        live = live[moves & ~settled & ~grew]
    Z, _, grad = _gaps_and_grads(net, Q, I, J)
    if stats is not None:
        stats.count(len(Q))
    eq, margin = _residuals(Z, I, J)
    d = X - Q
    with np.errstate(all="ignore"):
        along = np.einsum("rd,rd->r", d, grad) / np.einsum("rd,rd->r", grad, grad)
        off = d - along[:, None] * grad
    kkt = row_norms(off) <= 1e-10 * row_norms(d)
    return Q, Z, contracted & (eq <= 1e-12) & (margin >= -DOMINANCE_TOL) & kkt


def _gaps_and_violations(z, i, j):
    """At logit rows z for pairs (i, j): the gaps h = z_i - z_j, and v =
    z_l - z_i where positive for each class l outside the pair, else 0."""
    r = np.arange(len(z))
    v = np.maximum(z - z[r, i][:, None], 0.0)
    v[r, j] = 0.0
    return z[r, i] - z[r, j], v


def _al_objective(net, rows):
    """Logits, augmented-Lagrangian objective and its gradient at the
    trial points of the solver rows: one forward pass, one VJP."""
    T, i, j, lam, mu = rows.t, rows.i, rows.j, rows.lam, rows.mu
    z, tape = forward_batch(net, T)
    r = np.arange(len(T))
    h, v = _gaps_and_violations(z, i, j)
    dx = T - rows.x
    f = (dx * dx).sum(axis=1) + lam * h + 0.5 * mu * h * h
    f += 0.5 * mu * (v * v).sum(axis=1)
    # one sweep for the equality term and every violated dominance
    # term: sum_l mu * v_l * (e_l - e_i)
    coeffs = mu[:, None] * v
    coeffs[r, i] += lam + mu * h - mu * v.sum(axis=1)
    coeffs[r, j] -= lam + mu * h
    return z, f, 2.0 * dx + vjp(net, tape, coeffs)


class _Rows:
    """State of the rows of one batched solve; every attribute is an
    array whose first axis is the row."""

    def __init__(self, **arrays):
        vars(self).update(arrays)

    def keep(self, mask):
        for name, value in vars(self).items():
            setattr(self, name, value[mask])


def _backtrack(rows, f):
    """One backtracking step of every row in a search (rows.line), with f
    each row's objective at its trial step rows.stp.

    A row accepts its step when f <= f0 + LS_FTOL stp g0, for f0 = rows.f
    and g0 = rows.g0 the objective and slope at step 0. Every other row
    in a search cuts its step to the minimizer of the quadratic through
    (0, f0, g0) and (stp, f), kept in [0.1, 0.5] stp, or to 0.5 stp where
    that minimizer is not finite (Nocedal and Wright, section 3.5).
    Returns the rows that accept.
    """
    stp, f0, g0 = rows.stp, rows.f, rows.g0
    accept = rows.line & (f <= f0 + LS_FTOL * stp * g0)
    with np.errstate(all="ignore"):
        q = -0.5 * g0 * stp * stp / (f - f0 - g0 * stp)
    q = np.where(np.isfinite(q), np.clip(q, 0.1 * stp, 0.5 * stp), 0.5 * stp)
    rows.stp = np.where(rows.line & ~accept, q, stp)
    return accept


def _directions(rows, turn, new, s, y):
    """Store the curvature pair (s, y) of each row of `new`, over its
    oldest pair once MEMORY are kept; return -H g for the rows `turn`.

    H is the inverse L-BFGS Hessian of a row's kept pairs with initial
    scaling gamma = s.y / y.y of its newest pair, in the compact form of
    Byrd, Nocedal and Schnabel (1994): H g = gamma g + S a - gamma Y b,
    with b = R^-1 S'g, a = R^-T (D b + gamma (Y'Y b - Y'g)), R the upper
    triangle of S'Y and D its diagonal. rows.scale keeps each row's last
    gamma (1 before its first pair): a row with no pairs gets -scale g.

    rows.W keeps each row's s vectors in its first MEMORY slots and its
    y vectors in the others, in turn. rows.D, rows.YY (y_k . y_l) and
    rows.Rinv (R^-1) are kept oldest pair first: a new pair adds one
    column to R^-1, and dropping the oldest pair keeps R^-1's trailing
    block. One product of W with (g, y, s) gives every inner product the
    update and a direction need, and one more sums H g.
    """
    m = MEMORY
    if not turn.size:
        return np.zeros((0, rows.g.shape[1]))
    vectors = np.zeros(rows.g.shape + (3,))
    vectors[:, :, 0] = rows.g
    if new.size:
        slot = rows.next[new]
        rows.W[new, slot] = s
        rows.W[new, m + slot] = y
        rows.next[new] = (slot + 1) % m
        full = new[rows.count[new] == m]
        rows.D[full, :-1] = rows.D[full, 1:]
        rows.YY[full, :-1, :-1] = rows.YY[full, 1:, 1:]
        rows.Rinv[full, :-1, :-1] = rows.Rinv[full, 1:, 1:]
        rows.count[new] = np.minimum(rows.count[new] + 1, m)
        vectors[new, :, 1] = y
        vectors[new, :, 2] = s
    prods = np.matmul(rows.W, vectors)  # [row, slot, (g, y, s)]
    # slot of the k-th oldest kept pair
    r = np.arange(len(rows.g))[:, None]
    order = ((rows.next - rows.count)[:, None] + np.arange(m)) % m
    sp, yp = prods[r, order], prods[r, m + order]
    kept = np.arange(m) < rows.count[:, None]
    newest = np.maximum(rows.count - 1, 0)
    if new.size:
        k, pos = np.arange(new.size), newest[new]
        rows.YY[new, :, pos] = rows.YY[new, pos, :] = yp[new, :, 1]
        rows.D[new, pos] = sy = sp[new, pos, 1]
        # R's new column is (S'y, s.y): R^-1 gains (-R^-1 S'y / s.y, 1 / s.y)
        older = np.where(np.arange(m) < pos[:, None], sp[new, :, 1], 0.0)
        column = -np.matmul(rows.Rinv[new], older[:, :, None])[:, :, 0] / sy[:, None]
        column[k, pos] = 1.0 / sy
        rows.Rinv[new, :, pos] = column

    gamma = np.divide(rows.D[r[:, 0], newest], rows.YY[r[:, 0], newest, newest],
                      out=rows.scale, where=rows.count > 0)
    sg = np.where(kept, sp[:, :, 0], 0.0)[:, :, None]
    yg = np.where(kept, yp[:, :, 0], 0.0)[:, :, None]
    b = np.matmul(rows.Rinv, sg)
    a = np.matmul(np.swapaxes(rows.Rinv, 1, 2),
                  rows.D[:, :, None] * b + gamma[:, None, None] * (np.matmul(rows.YY, b) - yg))
    coeffs = np.zeros((len(r), 2 * m))
    coeffs[r, order] = np.where(kept, a[:, :, 0], 0.0)
    coeffs[r, m + order] = -gamma[:, None] * b[:, :, 0]
    hg = gamma[:, None] * rows.g + np.matmul(coeffs[:, None, :], rows.W)[:, 0]
    return -hg[turn]


def _al_iterate(net, X, starts, I, J, stats=None):
    """Augmented-Lagrangian iterates of the rows (x, start, pair): the
    last iterate of each row and its logits.

    Each row runs the outer loop of one multi-start branch: L-BFGS inner
    solves (L-BFGS-B's direction and stopping tests, with no bounds, and
    a backtracking line search) of the objective with its own multiplier
    lam and penalty mu, then the multiplier update. Rows are not in
    lockstep: each round evaluates every running row's trial point in one
    _al_objective call, and a row that ends an inner solve takes its
    outer update while the others go on.
    """
    n, dim = starts.shape
    zeros, falses = np.zeros(n), np.zeros(n, dtype=bool)
    rows = _Rows(
        id=np.arange(n), x=np.array(X, dtype=np.float64), i=np.asarray(I), j=np.asarray(J),
        lam=zeros.copy(), mu=np.full(n, PENALTY_INIT), prev_h=zeros.copy(),
        outer=np.zeros(n, dtype=np.int64),
        # the iterate, its objective, gradient and logits
        p=np.array(starts, dtype=np.float64), f=zeros.copy(), g=np.zeros((n, dim)),
        z=np.zeros((n, net.class_count)),
        # the point evaluated next; line is False on an inner solve's first evaluation
        t=np.array(starts, dtype=np.float64), line=falses.copy(), it=np.zeros(n, dtype=np.int64),
        # curvature pairs, see _directions
        W=np.zeros((n, 2 * MEMORY, dim)), D=np.zeros((n, MEMORY)),
        YY=np.zeros((n, MEMORY, MEMORY)), Rinv=np.zeros((n, MEMORY, MEMORY)),
        count=np.zeros(n, dtype=np.int64), next=np.zeros(n, dtype=np.int64),
        scale=np.ones(n),
        # the search direction, the slope along it at step 0, the trial
        # step and the line search's evaluations
        d=np.zeros((n, dim)), g0=zeros.copy(), stp=zeros.copy(), nls=np.zeros(n, dtype=np.int64),
    )
    P, Z = np.empty((n, dim)), np.empty((n, net.class_count))
    eps = np.finfo(float).eps
    while rows.id.size:
        z, f, g = _al_objective(net, rows)
        if stats is not None:
            stats.count(rows.id.size)
        gd = (g * rows.d).sum(axis=1)
        stp = rows.stp  # the trial step; _backtrack sets the next one
        accept = _backtrack(rows, f)
        failed = rows.line & ~accept & (rows.nls >= LS_EVALS)
        rows.nls += 1
        first = ~rows.line
        fresh = (first & (rows.outer == 0)).nonzero()[0]
        rows.prev_h[fresh] = np.abs(z[fresh, rows.i[fresh]] - z[fresh, rows.j[fresh]])

        # curvature pair of an accepted step, kept when s.y is positive
        pair = accept & ((gd - rows.g0) * stp > eps * (-rows.g0 * stp))
        s_new = stp[pair, None] * rows.d[pair]
        y_new = g[pair] - rows.g[pair]
        f_old = rows.f
        moved = first | accept
        rows.f = np.where(moved, f, f_old)
        rows.p[moved], rows.g[moved], rows.z[moved] = rows.t[moved], g[moved], z[moved]
        rows.it += accept

        # the inner solve's stopping tests
        ended = moved & (np.abs(rows.g).max(axis=1) <= INNER_GTOL)
        ended |= accept & ((rows.it >= INNER_MAXITER)
                           | (f_old - f <= INNER_FTOL * np.maximum(
                               np.maximum(np.abs(f_old), np.abs(f)), 1.0)))
        # a failed line search restarts once from scaled steepest descent
        ended |= failed & (rows.count == 0)
        rows.count[failed] = 0
        keep = ~ended[pair]
        turn = ((moved | failed) & ~ended).nonzero()[0]
        d = _directions(rows, turn, pair.nonzero()[0][keep], s_new[keep], y_new[keep])
        g0 = (rows.g[turn] * d).sum(axis=1)
        uphill = ~(g0 < 0.0)
        if uphill.any():
            retry = uphill & (rows.count[turn] > 0)
            rows.count[turn[retry]] = 0
            d[retry] = -rows.g[turn[retry]]
            g0[retry] = -(d[retry] * d[retry]).sum(axis=1)
            ended[turn[uphill & ~retry]] = True
            d, g0, turn = d[~uphill | retry], g0[~uphill | retry], turn[~uphill | retry]
        # a new line search from step 1, or from a step of length 1 on a
        # row's first iteration; backtracking cannot lengthen a step, so a
        # later inner solve starts from -scale g with step 1 instead
        rows.d[turn], rows.g0[turn] = d, g0
        first_iter = (rows.it[turn] == 0) & (rows.outer[turn] == 0)
        rows.stp[turn] = np.where(
            first_iter, np.minimum(1.0 / np.sqrt((d * d).sum(axis=1)), STEP_MAX), 1.0)
        rows.line[turn] = True
        rows.nls[turn] = 1
        rows.t = rows.p + rows.stp[:, None] * rows.d

        # outer update of the rows whose inner solve ended
        e = ended.nonzero()[0]
        if e.size:
            h, v = _gaps_and_violations(rows.z[e], rows.i[e], rows.j[e])
            tied = (np.abs(h) <= OUTER_TOL) & (v.max(axis=1) <= OUTER_TOL)
            rows.lam[e] += np.where(tied, 0.0, rows.mu[e] * h)
            rows.mu[e] *= np.where(~tied & (np.abs(h) > 0.25 * rows.prev_h[e]), PENALTY_GROWTH, 1.0)
            rows.prev_h[e] = np.abs(h)
            rows.outer[e] += 1
            done = tied | (rows.outer[e] >= MAX_OUTER)
            again = e[~done]
            rows.line[again] = False
            rows.it[again] = rows.count[again] = 0
            rows.t[again] = rows.p[again]
            if done.any():
                P[rows.id[e[done]]], Z[rows.id[e[done]]] = rows.p[e[done]], rows.z[e[done]]
                rows.keep(np.isin(np.arange(rows.id.size), e[done], invert=True))
    return P, Z


def _polish(net, X, P, Z, I, J):
    """FlipResults of the solver rows' last iterates P (logits Z, both
    updated here) for pairs (I, J).

    The first crossing on the ray x -> p is on the boundary and no
    farther from x than p itself; the iterate can sit marginally on the
    query side of the boundary, so the search runs a little past p. It
    is kept when it stays feasible and its equality residual is at most
    p's or EQUALITY_TOL. The projection (30 steps at most) then removes
    the inner solver's tangential drift; its point is kept only when it is
    no farther, stays feasible and stays on the boundary to rounding.
    """
    distance, eq = row_norms(P - X), _residuals(Z, I, J)[0]
    rays = np.flatnonzero(distance > 0.0)
    x, d = X[rays], P[rays] - X[rays]
    d /= np.linalg.norm(d, axis=1)[:, None]
    t, z, failed = _first_crossings(net, x, d, I[rays], J[rays], 1.1 * distance[rays])
    eq_c, margin_c = _residuals(z, I[rays], J[rays])
    take = ~failed & (margin_c >= -DOMINANCE_TOL) & (eq_c <= np.maximum(eq[rays], EQUALITY_TOL))
    k = rays[take]
    P[k], Z[k], eq[k] = x[take] + t[take, None] * d[take], z[take], eq_c[take]
    distance[k] = row_norms(P[k] - X[k])

    Q, Z_q, _ = _project(net, X, P, I, J)
    eq_q, margin_q = _residuals(Z_q, I, J)
    take = ((margin_q >= -DOMINANCE_TOL) & (eq_q <= np.maximum(eq, 1e-12))
            & (row_norms(Q - X) <= distance + 1e-12))
    P[take], Z[take] = Q[take], Z_q[take]
    return _make_results(X, P, I, J, Z)


def _augmented_lagrangian_solve(net, X, starts, pairs, stats=None):
    """Polished flip candidates of the solver rows (x, start, pair): the
    projection first, the AL on the rows it does not finish, CHUNK_ROWS
    rows per iterate array; X and starts are [n, d] arrays, pairs n pairs."""
    I, J = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    results = []
    for lo in range(0, len(starts), CHUNK_ROWS):
        c = slice(lo, lo + CHUNK_ROWS)
        x, s, i, j = X[c], starts[c], I[c], J[c]
        P, Z, done = _project(net, x, s, i, j, stats, iters=100)
        P[~done], Z[~done] = _al_iterate(net, x[~done], s[~done], i[~done], j[~done], stats)
        if stats is not None:
            stats.projected += int(done.sum())
        results += _polish(net, x, P, Z, i, j)
    return results


def closest_flips(net, X, pairs, opts=None, stats=None):
    """Closest point where logits i and j tie and neither is dominated,
    for each row of X with its pair, in one batched solve.

    Each query is started at itself and, with opts.restarts, from
    Gaussian perturbations at radii {0.01, 0.1} * max(1, ||x||); every
    (query, start) pair is a row of the solver, a query already on the
    boundary included. A row is solved by the projection (see _project)
    when it settles within 100 steps on a step shorter than its last, on
    the boundary to 1e-12, feasible and at a KKT point; a row whose step
    grows after its second one, or that settles without moving, runs the
    augmented Lagrangian from its own start. Each query keeps the first
    of its results that ranks lowest by `rank`: the nearest converged
    one, else the non-converged iterate with the smallest equality
    residual. stats, a SolverStats, accumulates the solver's work.
    """
    opts = opts or SolveOptions()
    X, I, J = _queries(net, X, pairs)

    # every query draws the same perturbations, from a generator seeded alike
    noise = np.random.default_rng(opts.seed).standard_normal((opts.restarts, X.shape[1]))
    radii = np.array([0.01, 0.1])[np.arange(opts.restarts) // 2 % 2, None]
    scale = np.maximum(row_norms(X), 1.0)[:, None, None]
    starts = np.concatenate([X[:, None], X[:, None] + (scale * radii) * noise], axis=1)

    m, rows = 1 + opts.restarts, np.repeat(np.arange(len(X)), 1 + opts.restarts)
    solved = _augmented_lagrangian_solve(net, X[rows], starts.reshape(-1, X.shape[1]),
                                         np.column_stack([I, J])[rows], stats)
    return [min(solved[k:k + m], key=rank) for k in range(0, len(solved), m)]


def closest_flip(net, x, pair, opts=None):
    """closest_flips for one query x and its pair."""
    return closest_flips(net, [x], [pair], opts)[0]


def _first_crossings(net, X, D, I, J, t_max):
    """flip_along_directions' rays as arrays (T, Z, failed), for unit D and pairs (I, J)."""

    def logits_and_gaps(T, rows):
        z, r = forward_batch(net, X[rows] + T[:, None] * D[rows])[0], np.arange(len(rows))
        return z, z[r, I[rows]] - z[r, J[rows]]

    # Doubling: T is each row's farthest probe on the query's side (logits
    # Z, gap G there), t_hi its next one; neither passes t_max.
    T = np.zeros(len(X))
    Z, G = logits_and_gaps(T, np.arange(len(X)))
    g0, g_hi, t_hi = G.copy(), np.zeros(len(X)), np.minimum(1e-4, t_max)
    live = np.flatnonzero(g0)  # a query on the boundary is its own crossing
    while live.size:
        z, g = logits_and_gaps(t_hi[live], live)
        same = np.sign(g) == np.sign(g0[live])
        g_hi[live[~same]] = g[~same]
        live = live[same]
        T[live], Z[live], G[live] = t_hi[live], z[same], g[same]
        live = live[t_hi[live] < t_max[live]]
        t_hi[live] = np.minimum(2.0 * t_hi[live], t_max[live])

    # a row that failed to bracket has its last probe at t_max
    failed, b = T == t_max, np.flatnonzero((T < t_max) & (g0 != 0.0))
    T[b] = bracketed_roots(lambda t, rows: logits_and_gaps(t, b[rows])[1],
                           T[b], t_hi[b], G[b], g_hi[b])
    Z[b] = logits_and_gaps(T[b], b)[0]
    return T, Z, failed


def flip_along_directions(net, X, D, pairs, t_max=None):
    """First boundary crossing on each ray: from a row of X along the
    matching nonzero row of D, for its pair. Doubling starts at
    min(1e-4, t_max) and never passes t_max (positive and finite; one, or
    one per row; default 1e6 * max(1, ||x||)), with one forward pass a
    round; one paths.bracketed_roots call then shrinks every bracket to
    1e-12 * max(1, t). A row with no sign change by t_max gets the point
    there, with status bracket-failed and distance t_max."""
    X, I, J = _queries(net, X, pairs)
    D = np.asarray(D, dtype=np.float64)
    if D.shape != X.shape:
        raise ShapeError(f"expected one direction per query, got {D.shape} for {X.shape}")
    if not np.all(np.isfinite(D)):
        raise InvalidInputError("directions must be finite")
    norm = np.linalg.norm(D, axis=1)
    if not norm.all():
        raise InvalidParameterError("direction must be nonzero")
    D = D / norm[:, None]
    t_max = np.asarray(1e6 * np.maximum(1.0, np.linalg.norm(X, axis=1)) if t_max is None
                       else t_max, dtype=np.float64)
    if t_max.shape not in ((), (len(X),)):
        raise ShapeError(f"expected one t_max or {len(X)}, got shape {t_max.shape}")
    t_max = np.broadcast_to(t_max, len(X))
    check_positive("t_max", t_max)
    T, Z, failed = _first_crossings(net, X, D, I, J, t_max)
    return _make_results(X, X + T[:, None] * D, I, J, Z, failed, T)


def flip_along_direction(net, x, direction, pair, t_max=None):
    """flip_along_directions for one ray, from x along direction."""
    return flip_along_directions(net, [x], [direction], [pair], t_max)[0]


def _taylor_estimates(net, X, I, J):
    """TaylorEstimate of each row of X for its pair (I, J), from one
    forward pass and one VJP; None where the gradient is (near) zero."""
    _, gaps, grads = _gaps_and_grads(net, X, I, J)
    gnorm = np.linalg.norm(grads, axis=1)
    ok = gnorm >= 1e-14
    sign = np.where(gaps[ok] >= 0, 1.0, -1.0)[:, None]
    found = map(TaylorEstimate, (np.abs(gaps[ok]) / gnorm[ok]).tolist(),
                -sign * grads[ok] / gnorm[ok, None])
    return [next(found) if k else None for k in ok]


def taylor_estimate(net, x, pair):
    """First-order distance |g| / ||grad g|| and steepest direction to the
    linearized boundary, for g = z_i - z_j."""
    tay = _taylor_estimates(net, *_queries(net, [x], [pair]))[0]
    if tay is None:
        raise DegenerateGradientError("logit-difference gradient is (near) zero")
    return tay


def angle_degrees(u, v):
    """Angle between two vectors, in [0, 180] degrees.

    Uses atan2 of the perpendicular/parallel decomposition, which stays
    accurate for nearly parallel vectors where arccos loses precision.
    """
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return float("nan")
    u1, v1 = np.asarray(u, dtype=np.float64) / nu, np.asarray(v, dtype=np.float64) / nv
    c = float(np.dot(u1, v1))
    perp = np.linalg.norm(u1 - c * v1)
    return float(np.degrees(np.arctan2(perp, c)))


def _metrics(x, flip, tay, directional):
    """ComparisonMetrics of a query from its three results; NaN metrics
    when it has no Taylor estimate."""
    nan = math.nan
    if tay is None:
        return ComparisonMetrics(nan, nan, nan, flip, TaylorEstimate(nan, None))
    ok = flip.converged and flip.distance > 0
    ratio = directional.distance / flip.distance if ok and directional.converged else nan
    return ComparisonMetrics(
        beta=flip.distance / tay.distance if tay.distance > 0 else nan, directional_ratio=ratio,
        angle_deg=angle_degrees(tay.direction, flip.point - x) if ok else nan,
        flip=flip, taylor=tay, directional=directional)


def comparisons(net, X, pairs, opts=None, stats=None):
    """Closest flip vs Taylor baseline vs directional search, for each row
    of X with its pair, batched.

    One forward pass and one VJP give every Taylor estimate, and
    closest_flips solves every (query, start) in one call. A query whose
    directional point ranks ahead of its solver result (by `rank`) is
    re-seeded from it, all such queries in one more batched solve, and
    keeps the first of the three that ranks lowest, so directional_ratio
    >= 1 whenever both converged. On a logit plateau, where the Taylor
    estimate is undefined, the solver runs once and beta,
    directional_ratio and angle_deg are NaN. stats, a SolverStats,
    accumulates the work of both solves.
    """
    X, I, J = _queries(net, X, pairs)
    tays, pairs = _taylor_estimates(net, X, I, J), np.column_stack([I, J])
    solved = closest_flips(net, X, pairs, opts, stats)
    rays = [q for q, tay in enumerate(tays) if tay is not None]
    found = iter(flip_along_directions(
        net, X[rays], np.reshape([tays[q].direction for q in rays], (len(rays), X.shape[1])),
        pairs[rays]))
    directionals = [None if tay is None else next(found) for tay in tays]
    reseed = [q for q, (flip, directional) in enumerate(zip(solved, directionals))
              if directional is not None and rank(directional) < rank(flip)]
    starts = np.reshape([directionals[q].point for q in reseed], (len(reseed), X.shape[1]))
    reseeded = _augmented_lagrangian_solve(net, X[reseed], starts, pairs[reseed], stats)
    for q, result in zip(reseed, reseeded):
        solved[q] = min((solved[q], result, directionals[q]), key=rank)
    return [_metrics(*args) for args in zip(X, solved, tays, directionals)]


def compare(net, x, pair, opts=None):
    """comparisons for one query x and its pair."""
    return comparisons(net, [x], [pair], opts)[0]


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
