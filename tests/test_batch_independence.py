"""A row's answer does not depend on its batch.

Each query, attack or segment is solved alone and inside larger batches,
with 1, TILE - 1 and TILE + 1 other rows and the row at the start, in the
middle or at the end, and the answers must be the same bytes. The nets
are curved, with hidden layers of at least TILE units: a random net with
one hidden layer, a random net with two, and a small net trained long.
On the same nets, a row that the projection finishes has the answer the
augmented Lagrangian reaches from its start: the solver path a row takes
does not change its answer either.
"""

import numpy as np
import pytest

from flipnet import (AttackConfig, LineSegment, SolveOptions, constrained_loss_attacks,
                     count_crossings, flips)
from flipnet.network import TILE, forward_batch
from flipnet.training import TrainConfig, init_network, train
from conftest import make_random_net

SUBJECTS = 3  # rows solved alone and inside every batch
OTHERS = (1, TILE - 1, TILE + 1)


@pytest.fixture(scope="module", params=["random", "deep", "trained"])
def curved(request):
    """(net, pool of SUBJECTS + TILE + 1 input rows)."""
    rng = np.random.default_rng(26)
    pool = rng.standard_normal((SUBJECTS + TILE + 1, 6))
    if request.param == "random":
        return make_random_net(rng, [6, 80, 3], scale=1.0), pool
    if request.param == "deep":
        return make_random_net(rng, [6, 40, 40, 3], scale=1.0), pool
    # two classes split by a wavy surface, fitted for 300 epochs without dropout
    X = rng.standard_normal((512, 6))
    y = (np.sin(2.0 * X[:, 0]) + X[:, 1] * X[:, 2] > 0.3 * X[:, 3]).astype(np.int64)
    net, _ = train(init_network([6, 64, 2], seed=1), X, y,
                   TrainConfig(learning_rate=0.01, dropout_rate=0.0, epochs=300, seed=2))
    return net, pool


def layouts():
    """Each batch as pool indices, the subjects 0, 1 and 2 at its start, middle
    and end among OTHERS other rows, with the subjects' positions in it."""
    for k in OTHERS:
        others = list(range(SUBJECTS, SUBJECTS + k))
        order = [0] + others[:k // 2] + [1] + others[k // 2:] + [2]
        yield order, [order.index(s) for s in range(SUBJECTS)]


def pairs_of(net, X):
    """Each row's predicted class and the next class."""
    pred = np.argmax(forward_batch(net, X)[0], axis=1)
    return np.column_stack([pred, (pred + 1) % net.class_count])


def assert_rows_alone_as_in_batches(solve, key):
    """solve(indices) gives one answer per pool row; key(answer) its bytes."""
    alone = [key(solve([s])[0]) for s in range(SUBJECTS)]
    for order, positions in layouts():
        answers = solve(order)
        assert len(answers) == len(order)
        assert [key(answers[p]) for p in positions] == alone


def floats(*values):
    return np.array(values, dtype=np.float64).tobytes()


def test_closest_flips(curved):
    net, pool = curved
    pairs, opts = pairs_of(net, pool), SolveOptions(restarts=1, seed=4)
    assert_rows_alone_as_in_batches(
        lambda rows: flips.closest_flips(net, pool[rows], pairs[rows], opts),
        lambda r: (r.status, r.point.tobytes(), floats(r.distance, r.equality_residual)))


def test_comparisons(curved):
    net, pool = curved
    pairs, opts = pairs_of(net, pool), SolveOptions(restarts=1, seed=4)
    assert_rows_alone_as_in_batches(
        lambda rows: flips.comparisons(net, pool[rows], pairs[rows], opts),
        lambda m: (m.flip.status, m.flip.point.tobytes(),
                   floats(m.flip.distance, m.taylor.distance, m.beta, m.directional_ratio,
                          m.angle_deg)))


def test_constrained_loss_attacks(curved):
    net, pool = curved
    targets = pairs_of(net, pool)[:, 1]
    cfgs = [AttackConfig(epsilon=[0.3, 1.0, 3.0][q % 3], steps=40, restarts=1, seed=q)
            for q in range(len(pool))]
    assert_rows_alone_as_in_batches(
        lambda rows: constrained_loss_attacks(net, pool[rows], targets[rows],
                                              [cfgs[q] for q in rows]),
        lambda r: (r.succeeded, r.point.tobytes(), floats(r.distance, r.final_loss)))


def test_count_crossings(curved):
    net, pool = curved
    ranges = [(0.0, 1.0), (-0.5, 1.5), (-2.0, 3.0)]
    segs = [LineSegment(x, 2.0 * pool[(5 * q + 1) % len(pool)], *ranges[q % 3])
            for q, x in enumerate(pool)]
    assert_rows_alone_as_in_batches(
        lambda rows: count_crossings(net, [segs[q] for q in rows]), floats)
    assert sum(map(len, count_crossings(net, segs))) > 0


def test_projection_finishes_rows_as_the_al_would(curved, monkeypatch):
    # a row that the projection finishes has the point that _al_iterate
    # and _polish reach from its start, or, where the AL ends at another
    # local minimum, a nearer one; only the other rows, with their own
    # starts, enter the AL. The starts are the solver's own: the queries,
    # and the directional points that comparisons re-seeds from
    net, pool = curved
    pairs = pairs_of(net, pool)
    tays = flips._taylor_estimates(net, pool, *pairs.T)
    aimed = [q for q, t in enumerate(tays) if t is not None]
    rays = flips.flip_along_directions(net, pool[aimed], [tays[q].direction for q in aimed],
                                       pairs[aimed])
    hit = [q for q, r in zip(aimed, rays) if r.converged]
    X, (I, J) = np.concatenate([pool, pool[hit]]), np.concatenate([pairs, pairs[hit]]).T
    starts = np.concatenate([pool, [r.point for r in rays if r.converged]])
    project, iterate, seen = flips._project, flips._al_iterate, {}

    def first_pass(*args, **kwargs):
        out = project(*args, **kwargs)
        seen.setdefault("finished", out[2])  # the polish's projection comes later
        return out

    def al(net_, X_, starts_, *rest):
        seen["al_starts"] = starts_.copy()
        return iterate(net_, X_, starts_, *rest)

    monkeypatch.setattr(flips, "_project", first_pass)
    monkeypatch.setattr(flips, "_al_iterate", al)
    solved = flips._augmented_lagrangian_solve(net, X, starts, np.column_stack([I, J]))
    monkeypatch.undo()
    finished = seen["finished"]
    assert finished.any()
    assert np.array_equal(seen["al_starts"], starts[~finished])
    same = 0
    for k in np.flatnonzero(finished):
        row = slice(k, k + 1)
        P, Z = iterate(net, X[row], starts[row], I[row], J[row])
        want = flips._polish(net, X[row], P, Z, I[row], J[row])[0]
        assert solved[k].status == want.status == flips.STATUS_CONVERGED
        if abs(solved[k].distance - want.distance) <= 1e-12 * want.distance:
            # along the boundary the distance is flat to second order, so
            # the AL's point is known less closely than its distance
            assert (np.linalg.norm(solved[k].point - want.point)
                    <= 1e-10 * np.linalg.norm(want.point))
            same += 1
        else:
            assert solved[k].distance < want.distance
    assert same >= 0.9 * finished.sum()
