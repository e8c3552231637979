import numpy as np
import pytest
from scipy.special import erf, erfinv

from flipnet import (
    AttackConfig,
    Layer,
    Network,
    SolveOptions,
    check_legitimate_image,
    closest_flip,
    compare,
    constrained_loss_attacks,
    flip_along_direction,
    forward,
    haar3d_forward,
    taylor_estimate,
)
from flipnet import flips
from flipnet.errors import DegenerateGradientError, InvalidParameterError, ShapeError
from flipnet.features import COEFF_COUNT, CoefficientSelector
from flipnet.flips import STATUS_BRACKET_FAILED, angle_degrees
from flipnet.network import logits_batch, softmax_rows
from conftest import grid_oracle_distance, make_linear_net, make_random_net


def hyperplane_projection(W, b, x):
    """Analytic flip point of a linear 2-class model."""
    w = W[0] - W[1]
    c = b[0] - b[1]
    t = (w @ x + c) / (w @ w)
    return x - t * w, abs(w @ x + c) / np.linalg.norm(w)


FAST = SolveOptions(restarts=0)


def dominant_pair_boundary_oracle(net, x, pair, lo=-2.0, hi=2.0, step=1e-2):
    """Closest point of {z_i = z_j >= every other logit} by grid search.

    Bisects every grid edge where z_i - z_j changes sign, keeps the
    crossings where no third logit is larger, then repeats twice on a
    grid 100 times finer around the nearest one.
    """
    i, j = pair
    others = [k for k in range(net.class_count) if k not in pair]

    def gap(P):
        z = logits_batch(net, P)
        return z[:, i] - z[:, j]

    def nearest_crossing(x_lo, y_lo, width, h):
        axis = np.arange(0.0, width + h / 2, h)
        G = np.stack(np.meshgrid(x_lo + axis, y_lo + axis, indexing="ij"), axis=-1)
        sign = np.sign(gap(G.reshape(-1, 2))).reshape(G.shape[:2])
        rows = sign[:-1] != sign[1:]
        cols = sign[:, :-1] != sign[:, 1:]
        A = np.concatenate([G[:-1][rows], G[:, :-1][cols]])
        B = np.concatenate([G[1:][rows], G[:, 1:][cols]])
        ga = gap(A)
        for _ in range(60):
            M = 0.5 * (A + B)
            gm = gap(M)
            same = np.sign(gm) == np.sign(ga)
            A = np.where(same[:, None], M, A)
            B = np.where(same[:, None], B, M)
            ga = np.where(same, gm, ga)
        P = 0.5 * (A + B)
        z = logits_batch(net, P)
        P = P[z[:, i] >= z[:, others].max(axis=1)]
        if len(P) == 0:
            return np.inf, None
        d = np.linalg.norm(P - x, axis=1)
        return d.min(), P[np.argmin(d)]

    best, p = nearest_crossing(lo, lo, hi - lo, step)
    for _ in range(2):
        if p is None:
            break
        d, q = nearest_crossing(p[0] - 5 * step, p[1] - 5 * step, 10 * step, step / 100)
        step /= 100
        if d < best:
            best, p = d, q
    return best


class PassCounter:
    """Counts forward_batch and vjp calls made through the flips module,
    and the rows of the forward passes."""

    def __init__(self, monkeypatch):
        self.forward = self.vjp = self.rows = 0
        forward_batch, vjp = flips.forward_batch, flips.vjp

        def counted_forward(*args):
            self.forward += 1
            self.rows += len(args[1])
            return forward_batch(*args)

        def counted_vjp(*args):
            self.vjp += 1
            return vjp(*args)

        monkeypatch.setattr(flips, "forward_batch", counted_forward)
        monkeypatch.setattr(flips, "vjp", counted_vjp)


class TestClosestFlip:
    def test_linear_analytic(self, rng):
        for _ in range(20):
            net = make_linear_net(rng, 6)
            x = rng.standard_normal(6)
            point, dist = hyperplane_projection(net.layers[0].weights, net.layers[0].bias, x)
            res = closest_flip(net, x, (0, 1), FAST)
            assert res.converged
            assert res.distance == pytest.approx(dist, rel=1e-8)
            np.testing.assert_allclose(res.point, point, atol=1e-6 * max(1, dist))

    def test_feasible_start_is_optimal(self):
        # symmetric logits at x=0: already on the boundary
        net = Network([Layer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2), 1.0)])
        res = closest_flip(net, np.zeros(2), (0, 1), FAST)
        assert res.converged
        assert res.distance == 0.0
        np.testing.assert_array_equal(res.point, np.zeros(2))

    def test_toy_erf_net_grid_oracle(self, rng):
        net = make_random_net(rng, [2, 6, 2], scale=1.2)
        x = rng.uniform(-1, 1, 2)
        res = closest_flip(net, x, (0, 1), SolveOptions(restarts=2))
        oracle = grid_oracle_distance(net, x, (0, 1))
        assert res.converged
        assert abs(res.distance - oracle) <= 2e-3

    def test_converged_residuals(self, rng):
        net = make_random_net(rng, [3, 8, 3], scale=0.8)
        for _ in range(5):
            x = rng.standard_normal(3)
            res = closest_flip(net, x, (0, 1), SolveOptions(restarts=2))
            if res.converged:
                assert res.equality_residual <= 1e-6
                assert res.dominance_margin >= -1e-8

    def test_converged_points_tie_to_1e10(self):
        # the solver's ray-search polish puts every converged point on
        # the boundary to rounding; without it the ties are near 1e-8
        rng = np.random.default_rng(7)
        checked = 0
        for dims in ([3, 6, 2], [4, 8, 2], [4, 8, 3]):
            for _ in range(3):
                net = make_random_net(rng, dims)
                for _ in range(3):
                    x = rng.standard_normal(dims[0])
                    res = closest_flip(net, x, (0, 1), SolveOptions(restarts=2))
                    if not res.converged:
                        continue
                    z = logits_batch(net, res.point[None, :])[0]
                    assert abs(z[0] - z[1]) <= 1e-10 * max(1.0, np.max(np.abs(z)))
                    checked += 1
        assert checked >= 20

    def test_distance_matches_point(self, rng):
        net = make_linear_net(rng, 4)
        x = rng.standard_normal(4)
        res = closest_flip(net, x, (0, 1), FAST)
        assert res.distance == np.linalg.norm(res.point - x)

    def test_pair_symmetry(self, rng):
        net = make_random_net(rng, [2, 5, 2], scale=1.0)
        x = rng.uniform(-1, 1, 2)
        a = closest_flip(net, x, (0, 1), SolveOptions(restarts=2))
        b = closest_flip(net, x, (1, 0), SolveOptions(restarts=2))
        assert a.converged and b.converged
        assert a.distance == pytest.approx(b.distance, abs=1e-8 * max(1, a.distance))

    def test_translation_consistency(self, rng):
        W = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        x = rng.standard_normal(3)
        shift = rng.standard_normal(3)
        net1 = Network([Layer(W, b, 1.0)])
        # absorbing the shift into the bias translates the whole problem
        net2 = Network([Layer(W, b - W @ shift, 1.0)])
        r1 = closest_flip(net1, x, (0, 1), FAST)
        r2 = closest_flip(net2, x + shift, (0, 1), FAST)
        np.testing.assert_allclose(r2.point - shift, r1.point, atol=1e-8)

    def test_negative_restarts(self):
        with pytest.raises(InvalidParameterError):
            SolveOptions(restarts=-1)

    def test_invalid_pair(self, rng):
        net = make_linear_net(rng, 3)
        with pytest.raises(InvalidParameterError):
            closest_flip(net, np.zeros(3), (0, 0))
        with pytest.raises(InvalidParameterError):
            closest_flip(net, np.zeros(3), (0, 5))

    def test_three_class_dominance(self, rng):
        net = make_linear_net(rng, 4, class_count=3)
        x = rng.standard_normal(4)
        res = closest_flip(net, x, (0, 1), SolveOptions(restarts=2))
        if res.converged:
            assert res.dominance_margin >= -1e-8

    def test_active_dominance_constraint_grid_oracle(self):
        # a 3-class erf net whose nearest (1, 0) tie lies where class 2
        # is larger, so the closest flip sits on the triple point
        rng = np.random.default_rng(1)
        for _ in range(11):
            net = make_random_net(rng, [2, 6, 3], scale=1.2)
            x = rng.uniform(-1, 1, 2)
        pair = (1, 0)
        oracle = dominant_pair_boundary_oracle(net, x, pair)
        assert grid_oracle_distance(net, x, pair) < oracle - 0.1  # constraint active
        res = closest_flip(net, x, pair, SolveOptions(restarts=4, seed=0))
        assert res.converged
        assert abs(res.distance - oracle) <= 2e-3
        assert res.dominance_margin >= -1e-8
        z = logits_batch(net, res.point[None, :])[0]
        assert abs(z[2] - z[1]) <= 1e-6

    def test_one_pass_per_objective_evaluation(self, rng, monkeypatch):
        # each solver round evaluates every running (query, start) row
        # with one forward pass and one VJP, and makes no other pass
        counter = PassCounter(monkeypatch)
        passes = []
        iterate = flips._al_iterate

        def counted(*args):
            before = (counter.forward, counter.vjp, counter.rows)
            out = iterate(*args)
            passes.append((counter.forward - before[0], counter.vjp - before[1],
                           counter.rows - before[2]))
            return out

        monkeypatch.setattr(flips, "_al_iterate", counted)
        net = make_random_net(rng, [3, 6, 4])
        stats = flips.SolverStats()
        flips.closest_flips(net, rng.standard_normal((3, 3)), [(0, 1), (1, 0), (2, 1)],
                            SolveOptions(restarts=1), stats)
        assert passes == [(stats.evaluations, stats.evaluations, stats.rows)]
        # the first round evaluates all 3 x 2 rows at their starts
        assert stats.evaluations > 1 and stats.rows > 6

    def test_one_pass_per_tangent_polish_iteration(self, rng, monkeypatch):
        net = make_random_net(rng, [3, 6, 2])
        x = rng.standard_normal((1, 3))
        p = x + rng.standard_normal((1, 3))
        counter = PassCounter(monkeypatch)
        for iters in (1, 2, 3):
            counter.forward = counter.vjp = 0
            flips._tangent_polish(net, x, p, np.array([0]), np.array([1]), iters=iters)
            assert (counter.forward, counter.vjp) == (iters, iters)


    def test_residuals_match_one_row_reference(self, rng):
        Z = rng.standard_normal((60, 4)) * rng.uniform(0.1, 30.0, (60, 1))
        I = rng.integers(0, 4, 60)
        J = (I + rng.integers(1, 4, 60)) % 4
        eq, margin = flips._residuals(Z, I, J)
        for z, i, j, e, m in zip(Z, I, J, eq, margin):
            s = softmax_rows(z)
            assert (e, m) == (abs(s[i] - s[j]), s[i] - np.delete(s, [i, j]).max())
        # with two classes no third score can dominate
        assert np.all(flips._residuals(Z[:, :2], I % 2, 1 - I % 2)[1] == np.inf)

    def test_polish_keeps_crossing_when_tangent_point_fails(self, rng, monkeypatch):
        # the tangent polish's point replaces the ray crossing only when it
        # is on the boundary to rounding and no farther from the query
        net = make_linear_net(rng, 4)
        X = rng.standard_normal((5, 4))
        w = net.layers[0].weights[0] - net.layers[0].weights[1]
        u = rng.standard_normal(4)
        u -= (u @ w) / (w @ w) * w  # along the boundary hyperplane

        def solve(stub):
            monkeypatch.setattr(flips, "_tangent_polish", stub)
            return flips.closest_flips(net, X, [(0, 1)] * 5, SolveOptions(restarts=1))

        unchanged = solve(lambda net, x, p, i, j: np.array(p))
        for stub in (lambda net, x, p, i, j: p + 0.1 * (x - p),  # nearer, off the boundary
                     lambda net, x, p, i, j: p + 0.1 * u / np.linalg.norm(u)):  # on it, farther
            for got, want in zip(solve(stub), unchanged):
                assert want.converged
                np.testing.assert_array_equal(got.point, want.point)
                assert (got.distance, got.class_pair, got.equality_residual, got.dominance_margin,
                        got.status) == (want.distance, want.class_pair, want.equality_residual,
                                        want.dominance_margin, want.status)


class TestBatchedSolve:
    """Many queries in one call: each row's answer is its own query's."""

    def test_linear_queries_with_mixed_pairs(self, rng):
        net = make_linear_net(rng, 8)
        X = rng.standard_normal((200, 8))
        pairs = [(0, 1) if q % 3 else (1, 0) for q in range(200)]
        results = flips.closest_flips(net, X, pairs, SolveOptions(restarts=1))
        assert len(results) == 200
        W, b = net.layers[0].weights, net.layers[0].bias
        for x, pair, res in zip(X, pairs, results):
            point, dist = hyperplane_projection(W, b, x)
            assert res.converged and res.class_pair == pair
            assert res.distance == pytest.approx(dist, rel=1e-8)
            np.testing.assert_allclose(res.point, point, atol=1e-6 * max(1, dist))
        # the solver's own iterates, before any polish, are each row's
        # own projection: the polish cannot hide a row solved for another
        I, J = np.array(pairs).T
        P, _ = flips._al_iterate(net, X, X + 0.1, I, J)
        for x, p in zip(X, P):
            np.testing.assert_allclose(p, hyperplane_projection(W, b, x)[0], atol=1e-6)

    def test_toy_erf_net_grid_oracle(self):
        rng = np.random.default_rng(5)
        net = make_random_net(rng, [2, 6, 2], scale=1.2)
        X = rng.uniform(-1, 1, (4, 2))
        results = flips.closest_flips(net, X, [(0, 1)] * 4, SolveOptions(restarts=2))
        for x, res in zip(X, results):
            oracle = grid_oracle_distance(net, x, (0, 1))
            assert np.isfinite(oracle)
            assert res.converged
            assert abs(res.distance - oracle) <= 2e-3

    def test_compare_row_agrees_with_one_query_call(self, rng):
        net = make_random_net(rng, [4, 10, 3], scale=1.0)
        X = rng.standard_normal((12, 4))
        pairs = [(q % 3, (q + 1) % 3) for q in range(12)]
        opts = SolveOptions(restarts=2, seed=3)
        stats = flips.SolverStats()
        batch = flips.comparisons(net, X, pairs, opts, stats)
        assert stats.evaluations > 0 and stats.rows >= stats.evaluations
        for x, pair, m in zip(X, pairs, batch):
            one = compare(net, x, pair, opts)
            assert one.flip.status == m.flip.status
            assert one.flip.class_pair == m.flip.class_pair == pair
            assert one.flip.distance == pytest.approx(m.flip.distance, rel=1e-9, abs=0)
            assert (np.isnan(one.beta) and np.isnan(m.beta)
                    or one.beta == pytest.approx(m.beta, rel=1e-9, abs=0))

    def test_rows_split_into_chunks(self, rng, monkeypatch):
        # rows past CHUNK_ROWS go to further iterate arrays; each row's
        # answer is the same to rounding
        net = make_random_net(rng, [3, 8, 2], scale=1.0)
        X = rng.standard_normal((5, 3))
        opts = SolveOptions(restarts=2)
        whole = flips.closest_flips(net, X, [(0, 1)] * 5, opts)
        monkeypatch.setattr(flips, "CHUNK_ROWS", 4)
        stats = flips.SolverStats()
        chunked = flips.closest_flips(net, X, [(0, 1)] * 5, opts, stats)
        assert stats.rows >= 15
        for a, b in zip(whole, chunked):
            assert a.status == b.status
            assert a.distance == pytest.approx(b.distance, rel=1e-9, abs=0)

    def test_backtrack_accepts_or_cuts_each_row_in_a_search(self):
        # rows: Armijo holds; the quadratic's minimizer (0.25) lies in
        # [0.1, 0.5] stp; it lies below 0.1 stp and is clipped; the
        # quadratic's denominator f - f0 - g0 stp is 0; the last row is
        # not in a search and keeps its step whatever f is
        rows = flips._Rows(line=np.array([True, True, True, True, False]), stp=np.ones(5),
                           f=np.zeros(5), g0=np.array([-1.0, -1.0, -1.0, 1.0, -1.0]))
        f = np.array([-0.5, 1.0, 100.0, 1.0, 1.0])
        accept = flips._backtrack(rows, f)
        assert accept.tolist() == [True, False, False, False, False]
        assert rows.stp.tolist() == [1.0, 0.25, 0.1, 0.5, 1.0]
        # the cut is relative to the trial step
        rows = flips._Rows(line=np.array([True]), stp=np.array([4.0]), f=np.zeros(1),
                           g0=np.array([-1.0]))
        assert not flips._backtrack(rows, np.array([4.0]))[0]
        assert rows.stp.tolist() == [1.0]

    def test_linear_models_take_few_evaluations(self):
        # the solver's work on criterion 2's first 200 linear models: a
        # line search that cannot lengthen a step from a later inner
        # solve's 1/||g|| start took about 30 evaluations a query here
        rng = np.random.default_rng(202)
        stats = flips.SolverStats()
        for _ in range(200):
            dim = int(rng.integers(2, 51))
            net = make_linear_net(rng, dim)
            flips.closest_flips(net, [rng.standard_normal(dim)], [(0, 1)],
                                SolveOptions(restarts=0), stats)
        assert stats.evaluations / 200 <= 15

    def test_empty_batch(self, rng):
        net = make_linear_net(rng, 3)
        assert flips.closest_flips(net, np.zeros((0, 3)), []) == []
        assert flips.comparisons(net, np.zeros((0, 3)), []) == []
        assert flips.flip_along_directions(net, np.zeros((0, 3)), np.zeros((0, 3)), []) == []

    @pytest.mark.parametrize("entry", ["closest_flips", "comparisons", "flip_along_directions"])
    def test_rejects_mismatched_shapes(self, rng, entry):
        # each query needs its own pair (and direction): a short or long
        # pair list would leave queries unsolved or solve phantom ones
        net = make_linear_net(rng, 3)

        def call(X, pairs, D=None):
            if entry == "flip_along_directions":
                D = np.ones(np.shape(X)) if D is None else D
                return flips.flip_along_directions(net, X, D, pairs)
            return getattr(flips, entry)(net, X, pairs, FAST)

        X = rng.standard_normal((3, 3))
        # ragged pairs and three-class tuples are malformed too
        for bad_X, pairs in [(X, [(0, 1)]), (X, [(0, 1)] * 5), (X[0], [(0, 1)] * 3),
                             (X[None], [(0, 1)] * 3), (X[:2], [(0, 1), (1,)]),
                             (X[:2], [(0, 1, 0), (1, 0, 1)])]:
            with pytest.raises(ShapeError):
                call(bad_X, pairs)
        if entry == "flip_along_directions":
            with pytest.raises(ShapeError):
                call(X, [(0, 1)] * 3, np.ones((2, 3)))


class TestFlipAlongDirection:
    def test_linear_matches_projection(self, rng):
        net = make_linear_net(rng, 5)
        x = rng.standard_normal(5)
        w = net.layers[0].weights[0] - net.layers[0].weights[1]
        c = net.layers[0].bias[0] - net.layers[0].bias[1]
        g = w @ x + c
        point, dist = hyperplane_projection(net.layers[0].weights, net.layers[0].bias, x)
        res = flip_along_direction(net, x, -np.sign(g) * w, (0, 1))
        assert res.converged
        np.testing.assert_allclose(res.point, point, atol=1e-8 * max(1, dist))

    def test_no_box_bracket_failed(self, rng):
        net = make_linear_net(rng, 3)
        x = rng.standard_normal(3)
        w = net.layers[0].weights[0] - net.layers[0].weights[1]
        g = w @ x + (net.layers[0].bias[0] - net.layers[0].bias[1])
        res = flip_along_direction(net, x, np.sign(g) * w, (0, 1), t_max=100.0)
        assert res.status == STATUS_BRACKET_FAILED

    @pytest.mark.parametrize("t_max", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_bad_t_max(self, rng, t_max):
        net = make_linear_net(rng, 3)
        with pytest.raises(InvalidParameterError, match="t_max"):
            flip_along_direction(net, rng.standard_normal(3), np.ones(3), (0, 1), t_max=t_max)

    @pytest.mark.parametrize("t_max", [[1.0, 2.0], [1.0], np.ones((3, 1)), np.ones((1, 3))])
    def test_rejects_t_max_of_wrong_shape(self, rng, t_max):
        # one t_max for every ray, or one per ray; nothing else broadcasts
        net = make_linear_net(rng, 3)
        X, D = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        with pytest.raises(ShapeError, match="t_max"):
            flips.flip_along_directions(net, X, D, [(0, 1)] * 3, t_max=t_max)

    def test_never_probes_past_t_max(self, rng, monkeypatch):
        # the boundary is 5e-5 away, nearer than the first doubling step
        net = make_linear_net(rng, 3)
        w = net.layers[0].weights[0] - net.layers[0].weights[1]
        c = net.layers[0].bias[0] - net.layers[0].bias[1]
        x0 = rng.standard_normal(3)
        x = x0 - ((w @ x0 + c) / (w @ w)) * w + 5e-5 * w / np.linalg.norm(w)
        probed = []
        forward_batch = flips.forward_batch

        def recording(net_, P):
            probed.extend(np.linalg.norm(P - x, axis=1))
            return forward_batch(net_, P)

        monkeypatch.setattr(flips, "forward_batch", recording)
        res = flip_along_direction(net, x, -w, (0, 1), t_max=2e-5)
        assert res.status == STATUS_BRACKET_FAILED
        assert res.distance <= 2e-5
        assert max(probed) <= 2e-5 * (1 + 1e-12)
        res = flip_along_direction(net, x, -w, (0, 1), t_max=1e-4)
        assert res.converged
        assert res.distance == pytest.approx(5e-5, rel=1e-8)

    def test_crossing_within_1e12_of_closed_form(self, rng):
        # linear gap w.p + c and one-erf-unit gap c*erf((w.p + b)/sigma) + c0,
        # both crossed at a closed-form t on an oblique ray / the normal ray
        for t_target in (0.3, 7.0):
            for _ in range(5):
                net = make_linear_net(rng, 5)
                w = net.layers[0].weights[0] - net.layers[0].weights[1]
                c = net.layers[0].bias[0] - net.layers[0].bias[1]
                u = rng.standard_normal(5)
                u = np.sign(w @ u) * u / np.linalg.norm(u)
                p0, _ = hyperplane_projection(net.layers[0].weights, net.layers[0].bias,
                                              rng.standard_normal(5))
                x = p0 - t_target * u
                t_star = -(w @ x + c) / (w @ u)
                res = flip_along_direction(net, x, u, (0, 1))
                assert res.converged
                assert abs(res.distance - t_star) <= 1e-12 * max(1.0, t_star)

                w = rng.standard_normal(4)
                b = rng.standard_normal()
                sigma = rng.uniform(0.5, 2.0)
                c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
                c0 = c * rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.9)
                net = Network([
                    Layer(w[None, :], np.array([b]), sigma),
                    Layer(np.array([[c / 2], [-c / 2]]), np.array([c0 / 2, -c0 / 2]), 1.0),
                ])
                u_star = erfinv(-c0 / c)
                side = rng.choice([-1.0, 1.0])
                x0 = rng.standard_normal(4)
                u0 = u_star + side * t_target * np.linalg.norm(w) / sigma
                x = x0 + ((sigma * u0 - b - w @ x0) / (w @ w)) * w
                t_star = sigma * abs((w @ x + b) / sigma - u_star) / np.linalg.norm(w)
                res = flip_along_direction(net, x, -side * w, (0, 1))
                assert res.converged
                assert abs(res.distance - t_star) <= 1e-12 * max(1.0, t_star)

    def test_passes_past_doubling_at_most_five(self, rng, monkeypatch):
        # a linear gap is solved by the first interpolation step, so the
        # search needs few passes beyond its doubling probes
        counter = PassCounter(monkeypatch)
        for t_star in (3e-3, 0.3, 7.0, 450.0):
            net = make_linear_net(rng, 5)
            w = net.layers[0].weights[0] - net.layers[0].weights[1]
            p0, _ = hyperplane_projection(net.layers[0].weights, net.layers[0].bias,
                                          rng.standard_normal(5))
            x = p0 + t_star * w / np.linalg.norm(w)
            probes, t = 1, 1e-4
            while t < t_star:
                t *= 2.0
                probes += 1
            counter.forward = 0
            res = flip_along_direction(net, x, -w, (0, 1))
            assert res.converged
            assert counter.forward <= probes + 5

    def test_batch_matches_one_ray(self, rng, monkeypatch):
        # every row of a stack of rays with mixed t_max is solved as its
        # one-ray call solves it, and no row is probed past its own t_max
        linear = make_linear_net(rng, 5)
        linear.layers[0].bias[1] = linear.layers[0].bias[0]  # the origin is on the boundary
        w = linear.layers[0].weights[0] - linear.layers[0].weights[1]
        e0 = np.sign(w[0]) * np.eye(5)[0]
        # row 0 starts on the boundary; row 1's doubling probe at 8e-4 lands on it
        X, D, t_max = [np.zeros(5), -8e-4 * e0], [rng.standard_normal(5), e0], [1.0, 1.0]
        for _ in range(4):
            x = rng.standard_normal(5)
            side = np.sign(w @ x)
            # towards the boundary, with t_max past it or short of it, and away from it
            X += [x, x, x]
            D += [-side * w + 0.3 * rng.standard_normal(5), -side * w, side * w]
            t_max += [50.0, 1e-3 * rng.random(), 10.0]
        # one erf unit: z_0 - z_1 = c * erf((w.p + b) / sigma) + c0
        w1, b1, sigma, c, c0 = rng.standard_normal(4), 0.3, 0.8, 1.5, 0.6
        erf_net = Network([Layer(w1[None, :], np.array([b1]), sigma),
                           Layer(np.array([[c / 2], [-c / 2]]), np.array([c0 / 2, -c0 / 2]), 1.0)])
        forward_batch, batches = flips.forward_batch, []
        for net, X, D, t_max in [
                (linear, np.array(X), np.array(D), np.array(t_max)),
                (erf_net, rng.standard_normal((8, 4)), rng.standard_normal((8, 4)),
                 np.array([1e-5, 2.0, 30.0, 1e3] * 2))]:
            probed = []

            def recording(net_, P):
                probed.append(np.array(P))
                return forward_batch(net_, P)

            monkeypatch.setattr(flips, "forward_batch", recording)
            batch = flips.flip_along_directions(net, X, D, [(0, 1)] * len(X), t_max)
            monkeypatch.setattr(flips, "forward_batch", forward_batch)
            batches.append(batch)
            # each probe lies on a ray, no farther along it than its t_max
            U = D / np.linalg.norm(D, axis=1)[:, None]
            for p in np.concatenate(probed):
                t = np.einsum("rd,rd->r", p - X, U)
                on_ray = np.linalg.norm(p - X - t[:, None] * U, axis=1) <= 1e-12
                assert np.any(on_ray & (t >= -1e-12) & (t <= t_max * (1 + 1e-12)))
            for x, d, limit, res in zip(X, D, t_max, batch):
                one = flip_along_direction(net, x, d, (0, 1), t_max=limit)
                assert res.status == one.status
                assert abs(res.distance - one.distance) <= 1e-12 * max(1.0, one.distance)
                if res.status == STATUS_BRACKET_FAILED:
                    assert res.distance == one.distance == limit
            statuses = {res.status for res in batch}
            assert statuses == {STATUS_BRACKET_FAILED, flips.STATUS_CONVERGED}
        on_boundary, probe_on_boundary = batches[0][:2]
        assert on_boundary.converged and on_boundary.distance == 0.0
        assert probe_on_boundary.converged and probe_on_boundary.distance == 8e-4

    def test_bisection_residual(self, rng):
        net = make_random_net(rng, [2, 6, 2], scale=1.0)
        x = rng.uniform(-1, 1, 2)
        res = flip_along_direction(net, x, rng.standard_normal(2), (0, 1), t_max=50.0)
        if res.converged:
            ev = forward(net, res.point)
            assert abs(ev.softmax[0] - ev.softmax[1]) <= 1e-6

    def test_zero_direction(self, rng):
        net = make_linear_net(rng, 3)
        with pytest.raises(InvalidParameterError):
            flip_along_direction(net, np.zeros(3), np.zeros(3), (0, 1))


class TestClassPair:
    ENTRY_POINTS = {
        "closest_flip": lambda net, x, pair: closest_flip(net, x, pair, FAST),
        "compare": lambda net, x, pair: compare(net, x, pair, FAST),
        "taylor_estimate": taylor_estimate,
        "flip_along_direction": lambda net, x, pair: flip_along_direction(net, x, x, pair),
    }

    @pytest.mark.parametrize("pair", [(1, 1), (0, 5), (-1, 0)])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_every_entry_point_rejects_bad_pair(self, entry, pair):
        # the README quick-start net
        rng = np.random.default_rng(0)
        net = Network([
            Layer(rng.standard_normal((6, 2)), rng.standard_normal(6), 1.0),
            Layer(rng.standard_normal((2, 6)), rng.standard_normal(2), 1.0),
        ])
        with pytest.raises(InvalidParameterError):
            self.ENTRY_POINTS[entry](net, np.array([0.3, -0.5]), pair)


    NON_INTEGER_ENTRY_POINTS = {
        "closest_flips": lambda net, X, pair: flips.closest_flips(net, X, [pair], FAST),
        "comparisons": lambda net, X, pair: flips.comparisons(net, X, [pair], FAST),
        "flip_along_directions": lambda net, X, pair: flips.flip_along_directions(
            net, X, X, [pair]),
        "taylor_estimate": lambda net, X, pair: taylor_estimate(net, X[0], pair),
        "constrained_loss_attacks": lambda net, X, pair: constrained_loss_attacks(
            net, X, [pair[0]], [AttackConfig(0.1, steps=2)]),
    }

    @pytest.mark.parametrize("pair", [(0.5, 1), (np.float64(1.0), 0), (1.5, 0)])
    @pytest.mark.parametrize("entry", sorted(NON_INTEGER_ENTRY_POINTS))
    def test_every_entry_point_rejects_non_integer_class_id(self, rng, entry, pair):
        # truncated, each pair would name two valid classes and be solved
        net = make_linear_net(rng, 3)
        with pytest.raises(InvalidParameterError):
            self.NON_INTEGER_ENTRY_POINTS[entry](net, rng.standard_normal((1, 3)), pair)


class TestTaylorEstimate:
    def test_linear_exact(self, rng):
        net = make_linear_net(rng, 6)
        x = rng.standard_normal(6)
        _, dist = hyperplane_projection(net.layers[0].weights, net.layers[0].bias, x)
        est = taylor_estimate(net, x, (0, 1))
        assert est.distance == pytest.approx(dist, rel=1e-12)
        assert np.linalg.norm(est.direction) == pytest.approx(1.0, abs=1e-12)

    def test_on_boundary_zero_distance(self):
        net = Network([Layer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2), 1.0)])
        est = taylor_estimate(net, np.array([0.0, 3.0]), (0, 1))
        assert est.distance == 0.0

    def test_erf_net_chain_rule(self, rng):
        net = make_random_net(rng, [2, 5, 2], scale=0.9)
        x = rng.standard_normal(2)
        est = taylor_estimate(net, x, (0, 1))
        # finite-difference oracle for |g| / ||grad g||
        h = 1e-6

        def g(p):
            z = forward(net, p).logits
            return z[0] - z[1]

        grad = np.array([
            (g(x + h * np.eye(2)[k]) - g(x - h * np.eye(2)[k])) / (2 * h) for k in range(2)
        ])
        assert est.distance == pytest.approx(abs(g(x)) / np.linalg.norm(grad), rel=1e-6)

    def test_degenerate_gradient(self):
        net = Network([Layer(np.zeros((2, 3)), np.zeros(2), 1.0)])
        with pytest.raises(DegenerateGradientError):
            taylor_estimate(net, np.zeros(3), (0, 1))


class TestCompare:
    def test_linear_all_exact(self, rng):
        net = make_linear_net(rng, 5)
        x = rng.standard_normal(5)
        m = compare(net, x, (0, 1), FAST)
        assert m.beta == pytest.approx(1.0, abs=1e-8)
        assert m.directional_ratio == pytest.approx(1.0, abs=1e-8)
        assert m.angle_deg == pytest.approx(0.0, abs=1e-6)

    def test_angle_helper(self):
        assert angle_degrees(np.array([1.0, 0]), np.array([2.0, 0])) == pytest.approx(0.0)
        assert angle_degrees(np.array([1.0, 0]), np.array([-1.0, 0])) == pytest.approx(180.0)
        assert angle_degrees(np.array([1.0, 0]), np.array([0, 5.0])) == pytest.approx(90.0)

    def test_metrics_recomputable_from_parts(self, rng):
        net = make_random_net(rng, [2, 6, 2], scale=1.0)
        x = rng.uniform(-1, 1, 2)
        m = compare(net, x, (0, 1), SolveOptions(restarts=1))
        if m.flip.converged:
            assert m.beta == m.flip.distance / m.taylor.distance
            if m.directional.converged:
                assert m.directional_ratio == m.directional.distance / m.flip.distance
                assert m.directional_ratio >= 1.0 - 1e-9

    def test_single_erf_unit_closed_form(self, rng):
        # g = z_0 - z_1 = c*erf(u) + c0 with u = (w.x + b)/sigma, so the
        # boundary is the hyperplane u = u* = erfinv(-c0/c): the flip
        # distance is sigma*|u - u*|/||w|| and
        # beta = |u - u*| erf'(u) / |erf(u) - erf(u*)|.
        # By the mean value theorem beta <= 1 when |u| >= |u*| and
        # beta >= 1 when u lies strictly between 0 and u*.
        saturated = unsaturated = 0
        for _ in range(60):
            dim = int(rng.integers(2, 6))
            w = rng.standard_normal(dim)
            b = rng.standard_normal()
            sigma = rng.uniform(0.5, 2.0)
            c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            c0 = c * rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.95)
            u_star = erfinv(-c0 / c)
            u = u_star * rng.uniform(-1.8, 1.8)  # |u| <= 2.5
            # stay clear of the boundary and of the |u| = |u*| switch
            if abs(u - u_star) < 0.05 or abs(abs(u) - abs(u_star)) < 0.05:
                continue
            net = Network([
                Layer(w[None, :], np.array([b]), sigma),
                Layer(np.array([[c / 2], [-c / 2]]), np.array([c0 / 2, -c0 / 2]), 1.0),
            ])
            x0 = rng.standard_normal(dim)
            x = x0 + ((sigma * u - b - w @ x0) / (w @ w)) * w
            u = (w @ x + b) / sigma
            dist = sigma * abs(u - u_star) / np.linalg.norm(w)
            beta = (abs(u - u_star) * 2 / np.sqrt(np.pi) * np.exp(-u * u)
                    / abs(erf(u) - erf(u_star)))

            res = closest_flip(net, x, (0, 1), FAST)
            assert res.converged
            assert res.distance == pytest.approx(dist, rel=1e-8)
            m = compare(net, x, (0, 1), FAST)
            assert m.beta == pytest.approx(beta, rel=1e-8)
            if abs(u) > abs(u_star):
                assert m.beta < 1.0
                saturated += 1
            elif 0.0 < u / u_star < 1.0:
                assert m.beta > 1.0
                unsaturated += 1
        assert saturated >= 5 and unsaturated >= 5

    def test_keeps_first_ranked_candidate(self, rng, monkeypatch):
        # the solver's results and the directional point are crafted;
        # each case is (solver, re-seeded solve, directional point)
        net = make_linear_net(rng, 2)
        x = rng.standard_normal(2)
        conv, local = flips.STATUS_CONVERGED, flips.STATUS_LOCAL

        def result(status, distance, residual=0.0):
            return flips.FlipResult(x + distance, distance, (0, 1), residual, 0.0, status)

        def run(solver, reseeded, directional):
            solves = iter([solver, reseeded])
            # one candidate per solver row: the first solve has the
            # query's one start, a re-seeded solve one row, else none
            monkeypatch.setattr(flips, "_augmented_lagrangian_solve",
                                lambda net, X, starts, pairs, stats=None:
                                [next(solves) for _ in starts])
            monkeypatch.setattr(flips, "flip_along_directions", lambda *args: [directional])
            chosen = compare(net, x, (0, 1), FAST).flip
            return chosen, next(solves, None) is None  # was the solver re-seeded?

        # none converged: the smallest equality residual wins
        cases = result(local, 1.0, 1e-1), result(local, 3.0, 1e-3), result(local, 2.0, 1e-2)
        assert run(*cases) == (cases[1], True)
        # a converged point beats a nearer unconverged one
        cases = result(local, 1.0, 1e-1), result(conv, 3.0), result(conv, 2.0)
        assert run(*cases) == (cases[2], True)
        cases = result(conv, 5.0), result(conv, 1.0), result(local, 1.0, 1e-12)
        assert run(*cases) == (cases[0], False)
        # on a distance tie the solver's result is kept
        cases = result(conv, 2.0), result(conv, 1.0), result(conv, 2.0)
        assert run(*cases) == (cases[0], False)
        cases = result(local, 1.0, 1e-1), result(conv, 2.0), result(conv, 2.0)
        assert run(*cases) == (cases[1], True)

    def test_closest_flip_keeps_first_ranked_start(self, rng, monkeypatch):
        net = make_linear_net(rng, 2)
        x = rng.standard_normal(2)
        conv, local = flips.STATUS_CONVERGED, flips.STATUS_LOCAL
        solves = [flips.FlipResult(x + d, d, (0, 1), r, 0.0, s) for s, d, r in
                  [(local, 1.0, 1e-1), (local, 0.5, 1e-3), (conv, 3.0, 0.0), (conv, 2.0, 0.0),
                   (conv, 2.0, 0.0)]]
        # the solver returns one candidate per row, the query's 5 starts in order
        monkeypatch.setattr(flips, "_augmented_lagrangian_solve", lambda *args: solves)
        assert closest_flip(net, x, (0, 1), SolveOptions(restarts=4)) is solves[3]
        # two queries: each keeps the first-ranked of its own rows
        batch = solves + solves[::-1]
        monkeypatch.setattr(flips, "_augmented_lagrangian_solve", lambda *args: batch)
        chosen = flips.closest_flips(net, np.stack([x, x + 1.0]), [(0, 1)] * 2,
                                     SolveOptions(restarts=4))
        assert chosen[0] is solves[3] and chosen[1] is solves[4]

    def test_directional_never_beats_closest(self, rng):
        for _ in range(10):
            net = make_random_net(rng, [2, 5, 2], scale=1.1)
            x = rng.uniform(-1.5, 1.5, 2)
            m = compare(net, x, (0, 1), SolveOptions(restarts=1))
            if m.flip.converged and m.directional.converged:
                assert m.flip.distance <= m.directional.distance + 1e-9


class TestLegitimateImage:
    def test_query_itself_is_legitimate(self, rng):
        img = rng.uniform(0.1, 0.9, (32, 32, 3))
        coeffs = haar3d_forward(img)
        sel = CoefficientSelector(np.arange(50))
        ok, viol = check_legitimate_image(coeffs[sel.indices], sel, coeffs)
        assert ok
        assert viol == 0.0

    def test_blown_up_point_is_not(self, rng):
        img = rng.uniform(0.1, 0.9, (32, 32, 3))
        coeffs = haar3d_forward(img)
        sel = CoefficientSelector(np.arange(50))
        ok, viol = check_legitimate_image(coeffs[sel.indices] * 1e6, sel, coeffs)
        assert not ok
        assert viol > 1.0

    def test_against_direct_reconstruction(self, rng):
        # independent pixel-space check: scatter + inverse by hand
        from flipnet.features import haar3d_inverse, scatter_selector

        img = rng.uniform(0.3, 0.7, (32, 32, 3))
        coeffs = haar3d_forward(img)
        sel = CoefficientSelector(np.array([0, 3, 17, 256]))
        point = coeffs[sel.indices] + rng.normal(0, 0.01, 4)
        ok, viol = check_legitimate_image(point, sel, coeffs)
        pixels = haar3d_inverse(scatter_selector(point, sel, coeffs))
        expected = max(float(np.max(-pixels)), float(np.max(pixels - 1.0)), 0.0)
        assert viol == expected
        assert ok == (expected <= 1e-6)

    def test_stack_equals_single_points(self, rng):
        # one call over a stack gives each point its own check, bit for bit
        imgs = rng.uniform(0.2, 0.8, (6, 32, 32, 3))
        coeffs = haar3d_forward(imgs)
        sel = CoefficientSelector(np.array([0, 3, 17, 256, 1000]))
        points = coeffs[:, sel.indices] * rng.choice([1.0, 1e3], (6, 1))
        ok, viol = check_legitimate_image(points, sel, coeffs)
        assert ok.shape == viol.shape == (6,)
        for q in range(6):
            ok_q, viol_q = check_legitimate_image(points[q], sel, coeffs[q])
            assert ok[q] == ok_q and viol[q] == viol_q
        assert ok.any() and not ok.all()
        ok, viol = check_legitimate_image(points[:0], sel, coeffs[:0])
        assert ok.shape == viol.shape == (0,)
