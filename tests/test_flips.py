import numpy as np
import pytest
from scipy.special import erf, erfinv

from flipnet import (
    Layer,
    Network,
    SolveOptions,
    check_legitimate_image,
    closest_flip,
    compare,
    flip_along_direction,
    forward,
    haar3d_forward,
    taylor_estimate,
)
from flipnet import flips
from flipnet.errors import DegenerateGradientError, InvalidParameterError
from flipnet.features import COEFF_COUNT, CoefficientSelector
from flipnet.flips import STATUS_BOX_EXIT, STATUS_BRACKET_FAILED, angle_degrees
from flipnet.network import logits_batch
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
    """Counts forward_batch and vjp calls made through the flips module."""

    def __init__(self, monkeypatch):
        self.forward = self.vjp = 0
        forward_batch, vjp = flips.forward_batch, flips.vjp

        def counted_forward(*args):
            self.forward += 1
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
        counter = PassCounter(monkeypatch)
        per_eval = []
        minimize = flips.minimize

        def counting_minimize(fun, x0, **kwargs):
            def counted(q):
                before = (counter.forward, counter.vjp)
                out = fun(q)
                per_eval.append((counter.forward - before[0], counter.vjp - before[1]))
                return out
            return minimize(counted, x0, **kwargs)

        monkeypatch.setattr(flips, "minimize", counting_minimize)
        net = make_random_net(rng, [3, 6, 4])
        closest_flip(net, rng.standard_normal(3), (0, 1), SolveOptions(restarts=1))
        assert per_eval and set(per_eval) == {(1, 1)}

    def test_one_pass_per_tangent_polish_iteration(self, rng, monkeypatch):
        net = make_random_net(rng, [3, 6, 2])
        x = rng.standard_normal(3)
        p = x + rng.standard_normal(3)
        counter = PassCounter(monkeypatch)
        for iters in (1, 2, 3):
            counter.forward = counter.vjp = 0
            flips._tangent_polish(net, x, p, 0, 1, iters=iters)
            assert (counter.forward, counter.vjp) == (iters, iters)


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

    def test_away_from_boundary_box_exit(self, rng):
        net = make_linear_net(rng, 3)
        x = rng.standard_normal(3)
        w = net.layers[0].weights[0] - net.layers[0].weights[1]
        c = net.layers[0].bias[0] - net.layers[0].bias[1]
        g = w @ x + c
        box = (x - 10.0, x + 10.0)
        res = flip_along_direction(net, x, np.sign(g) * w, (0, 1), box=box)
        assert res.status == STATUS_BOX_EXIT

    def test_no_box_bracket_failed(self, rng):
        net = make_linear_net(rng, 3)
        x = rng.standard_normal(3)
        w = net.layers[0].weights[0] - net.layers[0].weights[1]
        g = w @ x + (net.layers[0].bias[0] - net.layers[0].bias[1])
        res = flip_along_direction(net, x, np.sign(g) * w, (0, 1), t_max=100.0)
        assert res.status == STATUS_BRACKET_FAILED

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
