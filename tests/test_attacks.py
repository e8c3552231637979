import math

import numpy as np
import pytest

from flipnet import (
    AttackConfig,
    LineSegment,
    SolveOptions,
    closest_flip,
    compare_attack_vs_flip,
    constrained_loss_attack,
    constrained_loss_attacks,
    count_crossings,
    forward,
)
from flipnet import attacks, network
from flipnet.attacks import _project_ball
from flipnet.errors import InvalidParameterError
from conftest import make_linear_net, make_random_net


def _current_class(net, x):
    return int(np.argmax(forward(net, x).logits))


def _reference_project_ball(x, p, epsilon):
    """The one-row projection of the single-row PGD loop."""
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


def _reference_attack(net, x, target, cfg):
    """The single-row PGD loop: one forward pass and one reverse sweep per
    iterate, runs one after another. Returns (point, final loss, succeeded,
    the start of each run)."""
    step_length = cfg.epsilon / 50.0
    rng = np.random.default_rng(cfg.seed)
    starts = [x.copy()]
    for _ in range(cfg.restarts):
        u = rng.standard_normal(x.shape)
        r = cfg.epsilon * rng.random() ** (1.0 / len(x))
        starts.append(_reference_project_ball(x, x + r * u / np.linalg.norm(u), cfg.epsilon))
    best_p, best_loss = None, math.inf
    for p in starts:
        for step in range(cfg.steps + 1):
            z, tape = network.forward_batch(net, p[None, :])
            softmax = network.softmax_rows(z[0])
            loss = -math.log(max(softmax[target], 1e-300))
            if loss < best_loss:
                best_loss, best_p = loss, p
            if step == cfg.steps:
                break
            softmax[target] -= 1.0
            grad = network.vjp(net, tape, softmax)[0]
            p = _reference_project_ball(x, p - step_length * grad, cfg.epsilon)
    pred = int(np.argmax(forward(net, best_p).logits))
    return best_p, best_loss, pred == target, starts


class TestConstrainedLossAttack:
    def test_ball_feasibility(self, rng):
        net = make_random_net(rng, [3, 6, 2], scale=1.0)
        x = rng.standard_normal(3)
        target = 1 - _current_class(net, x)
        for eps in [0.05, 0.5, 3.0]:
            res = constrained_loss_attack(net, x, target, AttackConfig(epsilon=eps, steps=100))
            assert res.distance <= eps + 1e-9

    def test_small_ball_fails(self, rng):
        net = make_random_net(rng, [2, 6, 2], scale=1.0)
        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            pred = _current_class(net, x)
            flip = closest_flip(net, x, (pred, 1 - pred), SolveOptions(restarts=2))
            if not flip.converged or flip.distance < 1e-3:
                continue
            cfg = AttackConfig(epsilon=0.5 * flip.distance, steps=200)
            res = constrained_loss_attack(net, x, 1 - pred, cfg)
            assert not res.succeeded

    def test_large_ball_succeeds_linear(self, rng):
        net = make_linear_net(rng, 4)
        x = rng.standard_normal(4)
        pred = _current_class(net, x)
        flip = closest_flip(net, x, (pred, 1 - pred), SolveOptions(restarts=0))
        cfg = AttackConfig(epsilon=4.0 * flip.distance, steps=500)
        res = constrained_loss_attack(net, x, 1 - pred, cfg)
        assert res.succeeded
        assert res.distance >= flip.distance - 1e-9

    def test_loss_never_worse_than_start(self, rng):
        net = make_random_net(rng, [3, 5, 2], scale=1.0)
        x = rng.standard_normal(3)
        target = 1 - _current_class(net, x)
        start_loss = -np.log(max(forward(net, x).softmax[target], 1e-300))
        res = constrained_loss_attack(net, x, target, AttackConfig(epsilon=0.3, steps=50))
        assert res.final_loss <= start_loss + 1e-12

    def test_crossing_necessity(self, rng):
        net = make_random_net(rng, [2, 6, 2], scale=1.0)
        successes = 0
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            pred = _current_class(net, x)
            res = constrained_loss_attack(net, x, 1 - pred, AttackConfig(epsilon=2.0, steps=200))
            if res.succeeded and res.distance > 0:
                successes += 1
                seg = LineSegment(x, res.point)
                assert len(count_crossings(net, [seg])[0]) >= 1
        assert successes > 0

    def test_target_out_of_range(self, rng):
        net = make_random_net(rng, [3, 4, 2])
        x = rng.standard_normal(3)
        for target in (-1, 2):
            with pytest.raises(InvalidParameterError):
                constrained_loss_attack(net, x, target, AttackConfig(epsilon=0.1, steps=1))

    def test_one_forward_pass_per_iterate(self, rng, monkeypatch):
        net = make_random_net(rng, [3, 6, 2])
        x = rng.standard_normal(3)
        calls = {"forward_batch": 0, "vjp": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        fwd = counted("forward_batch", network.forward_batch)
        monkeypatch.setattr(network, "forward_batch", fwd)
        monkeypatch.setattr(attacks, "forward_batch", fwd)
        monkeypatch.setattr(attacks, "vjp", counted("vjp", attacks.vjp))
        steps = 40
        for restarts in (0, 2):
            calls.update(forward_batch=0, vjp=0)
            constrained_loss_attack(net, x, 0, AttackConfig(epsilon=0.5, steps=steps,
                                                            restarts=restarts))
            # restarts are rows of one pass; the last iterate needs no gradient
            # and the prediction reads the logits kept with the best iterate
            assert calls["forward_batch"] == steps + 1
            assert calls["vjp"] == steps

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            AttackConfig(epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            AttackConfig(epsilon=1.0, steps=0)

    @pytest.mark.parametrize("epsilon", [np.inf, -np.inf, np.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(InvalidParameterError, match="finite"):
            AttackConfig(epsilon=epsilon)


class TestBatchedAttacks:
    RADII = (0.05, 0.5, 3.0)

    def _runs(self, rng, restarts, steps):
        """A random net with 1-2 hidden layers, 4 queries x RADII as one batch."""
        dims = [int(rng.integers(2, 6))]
        dims += [int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 3)))] + [2]
        net = make_random_net(rng, dims, scale=1.0)
        X = rng.standard_normal((4, dims[0]))
        queries = np.repeat(X, len(self.RADII), axis=0)
        targets = [1 - _current_class(net, x) for x in queries]
        cfgs = [AttackConfig(epsilon=eps, steps=steps, restarts=restarts, seed=int(q))
                for q in range(len(X)) for eps in self.RADII]
        return net, queries, targets, cfgs

    def test_batch_equals_single_row_loop(self):
        rng = np.random.default_rng(2024)
        flag_mismatches = 0
        for _ in range(60):
            net, queries, targets, cfgs = self._runs(rng, restarts=0, steps=200)
            results = constrained_loss_attacks(net, queries, targets, cfgs,
                                               record_iterates=True)
            for x, target, cfg, res in zip(queries, targets, cfgs, results):
                point, loss, succeeded, _ = _reference_attack(net, x, target, cfg)
                flag_mismatches += res.succeeded != succeeded
                assert res.final_loss == pytest.approx(loss, rel=1e-10, abs=0)
                assert np.linalg.norm(res.point - point) <= 1e-6 * cfg.epsilon
                assert res.distance == np.linalg.norm(res.point - x) <= cfg.epsilon
                assert res.iterates.shape == (cfg.steps + 1, len(x))
                assert all(np.linalg.norm(it - x) <= cfg.epsilon for it in res.iterates)
        assert flag_mismatches == 0

    def test_restart_starts_are_the_single_row_draws(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            net, queries, targets, cfgs = self._runs(rng, restarts=2, steps=30)
            results = constrained_loss_attacks(net, queries, targets, cfgs,
                                               record_iterates=True)
            for x, target, cfg, res in zip(queries, targets, cfgs, results):
                point, loss, succeeded, starts = _reference_attack(net, x, target, cfg)
                runs = res.iterates.reshape(1 + cfg.restarts, cfg.steps + 1, len(x))
                for run, start in zip(runs, starts):
                    assert np.array_equal(run[0], start)
                    assert all(np.linalg.norm(it - x) <= cfg.epsilon for it in run)
                assert res.succeeded == succeeded
                assert res.final_loss == pytest.approx(loss, rel=1e-10, abs=0)

    def test_chunks_and_step_groups_match_single_calls(self, monkeypatch):
        rng = np.random.default_rng(5)
        net, queries, targets, cfgs = self._runs(rng, restarts=1, steps=20)
        for cfg in cfgs[::2]:
            cfg.steps = 25
        monkeypatch.setattr(attacks, "CHUNK_ROWS", 5)
        batched = constrained_loss_attacks(net, queries, targets, cfgs)
        single = [constrained_loss_attack(net, x, t, cfg)
                  for x, t, cfg in zip(queries, targets, cfgs)]
        for a, b in zip(batched, single):
            assert a.succeeded == b.succeeded
            assert a.final_loss == pytest.approx(b.final_loss, rel=1e-10, abs=0)
            assert np.linalg.norm(a.point - b.point) <= 1e-9


class TestProjectBall:
    def test_result_inside_ball_exactly(self):
        rng = np.random.default_rng(7)
        naive_outside = reported_case = 0
        for _ in range(4000):
            dim = int(rng.integers(1, 300))
            x = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
            epsilon = 0.1 if rng.random() < 0.5 else 10.0 ** rng.uniform(-6, 3)
            p = x + rng.standard_normal(dim) * epsilon * rng.uniform(1.0, 100.0)
            q = _project_ball(x, p[None, :], epsilon)[0]
            dist = np.linalg.norm(q - x)
            assert dist <= epsilon
            # no farther inside than rounding at the scale of x requires
            assert dist >= epsilon * (1 - 1e-12) - 4 * np.finfo(float).eps * np.linalg.norm(x)
            delta = p - x
            naive = x + delta * (epsilon / np.linalg.norm(delta))
            naive_dist = np.linalg.norm(naive - x)
            naive_outside += naive_dist > epsilon
            reported_case += epsilon == 0.1 and naive_dist == 0.10000000000000003
        # the plain rescaling rounds outside the ball on some of these
        # draws, including the attack_distance 0.10000000000000003 seen
        # at epsilon 0.1
        assert naive_outside > 0 and reported_case > 0


    def test_rows_equal_single_row_reference(self):
        # one call over many rows gives each row the single-row projection,
        # bit for bit, with rows inside their balls returned unchanged
        rng = np.random.default_rng(11)
        for dim in (1, 3, 200, 513):
            X = rng.standard_normal((40, dim)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
            eps = 10.0 ** rng.uniform(-6, 3, 40)
            P = X + rng.standard_normal((40, dim)) * eps[:, None] * rng.uniform(0.1, 10.0, (40, 1))
            Q = _project_ball(X, P, eps)
            for x, p, e, q in zip(X, P, eps, Q):
                assert np.array_equal(q, _reference_project_ball(x, p, e))


class TestCompareAttackVsFlip:
    def test_attack_point_equals_flip_point(self, rng):
        net = make_linear_net(rng, 4)
        x = rng.standard_normal(4)
        pred = _current_class(net, x)
        flip = closest_flip(net, x, (pred, 1 - pred), SolveOptions(restarts=0))
        fake_attack = type("A", (), {})()
        fake_attack.point = flip.point
        fake_attack.distance = flip.distance
        fake_attack.succeeded = True
        comp = compare_attack_vs_flip(net, x, fake_attack, flip)
        # arccos conditioning near 1 limits the achievable zero
        assert comp.angle_deg == pytest.approx(0.0, abs=1e-4)
        assert comp.attack_distance == comp.flip_distance

    def test_linear_first_crossing_is_flip_distance(self, rng):
        net = make_linear_net(rng, 4)
        x = rng.standard_normal(4)
        pred = _current_class(net, x)
        flip = closest_flip(net, x, (pred, 1 - pred), SolveOptions(restarts=0))
        res = constrained_loss_attack(
            net, x, 1 - pred, AttackConfig(epsilon=4.0 * flip.distance, steps=500)
        )
        assert res.succeeded
        comp = compare_attack_vs_flip(net, x, res, flip)
        assert comp.segment_first_crossing_distance == pytest.approx(flip.distance, abs=1e-6)
        assert comp.segment_first_crossing_distance <= comp.attack_distance + 1e-9

    def test_failed_attack_has_no_crossing_field(self, rng):
        net = make_random_net(rng, [2, 5, 2], scale=1.0)
        x = rng.uniform(-1, 1, 2)
        pred = _current_class(net, x)
        flip = closest_flip(net, x, (pred, 1 - pred), SolveOptions(restarts=1))
        fake_attack = type("A", (), {})()
        fake_attack.point = x.copy()
        fake_attack.distance = 0.0
        fake_attack.succeeded = False
        comp = compare_attack_vs_flip(net, x, fake_attack, flip)
        assert np.isnan(comp.segment_first_crossing_distance)
        assert comp.flip_distance == flip.distance

