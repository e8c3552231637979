import numpy as np
import pytest

from flipnet import (
    AttackConfig,
    LineSegment,
    SolveOptions,
    closest_flip,
    compare_attack_vs_flip,
    constrained_loss_attack,
    count_crossings,
    flip_distance_histogram,
    forward,
)
from flipnet import attacks, network
from flipnet.attacks import _project_ball
from flipnet.errors import InvalidParameterError
from flipnet.flips import FlipResult
from conftest import make_linear_net, make_random_net


def _current_class(net, x):
    return int(np.argmax(forward(net, x).logits))


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
                assert len(count_crossings(net, seg)) >= 1
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
        steps, restarts = 40, 2
        constrained_loss_attack(net, x, 0, AttackConfig(epsilon=0.5, steps=steps, restarts=restarts))
        iterates = (steps + 1) * (1 + restarts)
        # one loss-and-gradient pass per iterate, plus the final prediction
        assert calls["vjp"] == iterates
        assert calls["forward_batch"] == iterates + 1

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            AttackConfig(epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            AttackConfig(epsilon=1.0, steps=0)


class TestProjectBall:
    def test_result_inside_ball_exactly(self):
        rng = np.random.default_rng(7)
        naive_outside = reported_case = 0
        for _ in range(4000):
            dim = int(rng.integers(1, 300))
            x = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
            epsilon = 0.1 if rng.random() < 0.5 else 10.0 ** rng.uniform(-6, 3)
            p = x + rng.standard_normal(dim) * epsilon * rng.uniform(1.0, 100.0)
            q = _project_ball(x, p, epsilon)
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


class TestHistogram:
    def _result(self, d):
        return FlipResult(np.zeros(2), d, (0, 1), 0.0, 1.0, "converged")

    def test_single_result(self):
        rows = flip_distance_histogram([self._result(0.35)], 0.1)
        assert sum(c for _, _, c in rows) == 1
        low, high, count = rows[3]
        assert count == 1
        assert low == pytest.approx(0.3) and high == pytest.approx(0.4)

    def test_counts_preserved(self, rng):
        results = [self._result(d) for d in rng.uniform(0, 5, 100)]
        rows = flip_distance_histogram(results, 0.25)
        assert sum(c for _, _, c in rows) == 100

    def test_recount_oracle(self, rng):
        distances = rng.uniform(0, 2, 50)
        results = [self._result(d) for d in distances]
        width = 0.3
        rows = flip_distance_histogram(results, width)
        for low, high, count in rows:
            expected = int(np.sum((distances >= low) & (distances < high)))
            assert count == expected

    def test_empty(self):
        assert flip_distance_histogram([], 0.1) == []

    def test_bad_width(self):
        with pytest.raises(InvalidParameterError):
            flip_distance_histogram([], 0.0)
