"""Every count or seed a caller passes must be an integer: a float or a
bool count would be truncated or taken as 0/1 instead of failing, and a
bad seed would fail late, inside numpy."""

import numpy as np
import pytest

from flipnet import AttackConfig, SolveOptions, TrainConfig, constrained_loss_attack, region_report
from flipnet.errors import InvalidParameterError
from flipnet.features import select_coefficients
from flipnet.training import init_network
from conftest import make_linear_net, make_random_net


def _attack(count, field):
    rng = np.random.default_rng(0)
    net = make_random_net(rng, [3, 4, 2])
    cfg = AttackConfig(0.5, **{field: count})
    return constrained_loss_attack(net, rng.standard_normal(3), 1, cfg)


def _regions(**kwargs):
    rng = np.random.default_rng(1)
    net = make_linear_net(rng, 3)
    X = rng.standard_normal((20, 3))
    labels = np.argmax(X @ net.layers[0].weights.T + net.layers[0].bias, axis=1)
    return region_report(net, X, labels, 1, **kwargs)


ENTRY_POINTS = {
    "AttackConfig.steps": lambda count: _attack(count, "steps"),
    "AttackConfig.restarts": lambda count: _attack(count, "restarts"),
    "AttackConfig.seed": lambda count: _attack(count, "seed"),
    "SolveOptions.restarts": lambda count: SolveOptions(restarts=count),
    "SolveOptions.seed": lambda count: SolveOptions(seed=count),
    "TrainConfig.epochs": lambda count: TrainConfig(epochs=count),
    "TrainConfig.batch_size": lambda count: TrainConfig(batch_size=count),
    "TrainConfig.seed": lambda count: TrainConfig(seed=count),
    "select_coefficients": lambda count: select_coefficients(
        np.random.default_rng(2).standard_normal((5, 4)), count),
    "init_network": lambda count: init_network([3, count, 2]),
    "init_network.seed": lambda count: init_network([3, 4, 2], seed=count),
    "region_report.max_points": lambda count: _regions(max_points=count),
    # a sample of 5 points draws from the seed
    "region_report.seed": lambda count: _regions(max_points=5, seed=count),
}


@pytest.mark.parametrize("count", [2.5, 2.9, 3.0, np.float64(2.0), True, np.True_, "2"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_non_integer_count(entry, count):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        ENTRY_POINTS[entry](count)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_negative_count(entry):
    with pytest.raises(InvalidParameterError, match="must be an integer >= "):
        ENTRY_POINTS[entry](-1)


@pytest.mark.parametrize("count", [2, np.int64(2)])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_takes_an_integer_count(entry, count):
    ENTRY_POINTS[entry](count)
