import tracemalloc

import numpy as np
import pytest
from scipy.special import erfinv

from flipnet import (
    Layer,
    LineSegment,
    Network,
    SolveOptions,
    closest_flip,
    count_crossings,
    forward,
    profile_to_flip,
    sample_line,
)
from flipnet import paths
from flipnet.errors import FlipnetError, InvalidInputError, InvalidParameterError, ShapeError
from flipnet.network import activation_erf_deriv, lipschitz_bound, logits_batch, spectral_norm
from flipnet.paths import _cell_slopes, _input_slopes, bracketed_roots
from conftest import dense_crossing_count, make_bump_net, make_linear_net, make_random_net


def abs_weight_slopes(net, seg, edges):
    """The looser cell bound that interval propagation refines.

    Each first-layer unit's slope magnitude is its largest erf slope on
    the cell times |W1 (x2 - x1)|; deeper layers push magnitudes through
    |W| and the global erf slope, so signs never cancel. The result is
    the smaller of that and the spectral-norm chain.
    """
    first = net.layers[0]
    slope = first.weights @ (seg.x2 - seg.x1)
    if len(net.layers) == 1:
        return np.full(len(edges) - 1, np.linalg.norm(slope))
    offset = first.weights @ seg.x1 + first.bias
    lo = offset + edges[:-1, None] * slope
    hi = offset + edges[1:, None] * slope
    nearest = np.where(np.signbit(lo) != np.signbit(hi), 0.0,
                       np.minimum(np.abs(lo), np.abs(hi)))
    v = activation_erf_deriv(nearest, first.sigma) * np.abs(slope)
    norm = np.linalg.norm(v, axis=1)
    for layer in net.layers[1:-1]:
        gain = activation_erf_deriv(0.0, layer.sigma)
        v = gain * (v @ np.abs(layer.weights).T)
        norm = gain * spectral_norm(layer.weights) * norm
    last = net.layers[-1].weights
    return np.minimum(spectral_norm(last) * norm, np.linalg.norm(v @ np.abs(last).T, axis=1))


def arc_length_floor(net, seg, tol):
    """Fewest samples any spacing needs: the logits' arc length over tol, plus one."""
    alphas = np.linspace(seg.alpha_min, seg.alpha_max, 200_001)
    z = np.concatenate([logits_batch(net, (1.0 - a)[:, None] * seg.x1 + a[:, None] * seg.x2)
                        for a in np.array_split(alphas, 100)])
    return int(np.ceil(np.linalg.norm(np.diff(z, axis=0), axis=1).sum() / tol)) + 1


class TestSampleLine:
    def test_degenerate_segment_rejected(self, rng):
        x = rng.standard_normal(3)
        with pytest.raises(InvalidInputError):
            LineSegment(x, x.copy())

    @pytest.mark.parametrize("bound", ["alpha_min", "alpha_max"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_alpha_rejected(self, rng, bound, value):
        with pytest.raises(InvalidInputError):
            LineSegment(rng.standard_normal(3), rng.standard_normal(3), **{bound: value})

    def test_zero_net_uniform_no_crossings(self, rng):
        net = Network([Layer(np.zeros((2, 3)), np.zeros(2), 1.0)])
        seg = LineSegment(rng.standard_normal(3), rng.standard_normal(3))
        profile = sample_line(net, seg)
        np.testing.assert_allclose(profile.softmax_scores, 0.5, atol=1e-15)
        assert profile.crossings == []

    def test_linear_single_crossing_location(self, rng):
        net = make_linear_net(rng, 4)
        w = net.layers[0].weights[0] - net.layers[0].weights[1]
        c = net.layers[0].bias[0] - net.layers[0].bias[1]
        # construct endpoints on opposite sides
        x1 = rng.standard_normal(4)
        if w @ x1 + c < 0:
            x1 = -x1 - 2 * c * w / (w @ w)
        x2 = x1 - 2 * (w @ x1 + c) / (w @ w) * w * 1.5
        seg = LineSegment(x1, x2)
        crossings = count_crossings(net, [seg])[0]
        alpha_star = -(w @ x1 + c) / (w @ (x2 - x1))
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(alpha_star, abs=1e-8)

    def test_linear_crossing_on_short_segment(self, rng):
        # a segment shorter than the ray search's first doubling step
        net = make_linear_net(rng, 4)
        w = net.layers[0].weights[0] - net.layers[0].weights[1]
        c = net.layers[0].bias[0] - net.layers[0].bias[1]
        x0 = rng.standard_normal(4)
        on = x0 - ((w @ x0 + c) / (w @ w)) * w
        u = w / np.linalg.norm(w)
        x1, x2 = on + 1.5e-5 * u, on - 3.5e-5 * u
        alpha_star = -(w @ x1 + c) / (w @ (x2 - x1))
        crossings = count_crossings(net, [LineSegment(x1, x2)])[0]
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(alpha_star, abs=1e-8)

    def test_linear_gap_monotone(self, rng):
        net = make_linear_net(rng, 3)
        seg = LineSegment(rng.standard_normal(3), rng.standard_normal(3))
        profile = sample_line(net, seg)
        gaps = profile.logits[:, 0] - profile.logits[:, 1]
        diffs = np.diff(gaps)
        assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

    def test_sampling_soundness(self, rng):
        net = make_random_net(rng, [2, 5, 2], scale=1.0)
        seg = LineSegment(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        tol = 0.01
        profile = sample_line(net, seg, score_tol=tol)
        assert not profile.capped
        dz = np.linalg.norm(np.diff(profile.logits, axis=0), axis=1)
        assert np.all(dz <= tol * (1 + 1e-9))

    def test_endpoint_fidelity(self, rng):
        net = make_random_net(rng, [3, 6, 2], scale=1.0)
        x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
        profile = sample_line(net, LineSegment(x1, x2))
        assert np.array_equal(profile.softmax_scores[0], forward(net, x1).softmax)
        assert np.array_equal(profile.softmax_scores[-1], forward(net, x2).softmax)

    def test_sample_cap(self, rng):
        # gigantic Lipschitz bound forces the cap
        net = make_random_net(rng, [2, 4, 2], scale=200.0, sigma_range=(0.01, 0.02))
        seg = LineSegment(np.zeros(2), np.full(2, 100.0))
        profile = sample_line(net, seg, score_tol=1e-9)
        assert profile.capped
        assert len(profile.alphas) == 1_000_000

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_score_tol_not_positive_finite(self, rng, tol):
        net = make_random_net(rng, [2, 5, 2])
        with pytest.raises(InvalidParameterError):
            sample_line(net, LineSegment(np.zeros(2), np.ones(2)), score_tol=tol)

    def test_deeper_net_step_guarantee(self, rng):
        tol = 0.01
        for _ in range(4):
            net = make_random_net(rng, [2, 6, 6, 2], scale=1.5)
            for _ in range(5):
                x1, x2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
                profile = sample_line(net, LineSegment(x1, x2), score_tol=tol)
                assert not profile.capped
                dz = np.linalg.norm(np.diff(profile.logits, axis=0), axis=1)
                assert np.all(dz <= tol * (1 + 1e-9))
                assert len(profile.crossings) == dense_crossing_count(net, x1, x2)

    @pytest.mark.parametrize("dims", [[3, 2], [3, 6, 2], [3, 6, 5, 2], [3, 6, 5, 4, 2]])
    def test_cell_bounds_cover_finite_differences(self, rng, dims):
        for _ in range(5):
            net = make_random_net(rng, dims, scale=1.5)
            seg = LineSegment(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), -0.5, 1.5)
            edges = np.linspace(seg.alpha_min, seg.alpha_max, 17)
            bounds = _cell_slopes(net, seg, edges)
            length = np.linalg.norm(seg.x2 - seg.x1)
            assert np.all(bounds <= lipschitz_bound(net) * length * (1 + 1e-12))
            for lo, hi, bound in zip(edges[:-1], edges[1:], bounds):
                a = np.linspace(lo, hi, 201)
                z = logits_batch(net, (1.0 - a)[:, None] * seg.x1 + a[:, None] * seg.x2)
                dz = np.linalg.norm(np.diff(z, axis=0), axis=1)
                assert np.all(dz <= bound * np.diff(a) * (1 + 1e-9) + 1e-12)

    @pytest.mark.parametrize("dims", [[3, 6, 2], [3, 6, 5, 2], [3, 6, 5, 4, 2]])
    def test_cell_bounds_at_most_abs_weight_bound(self, rng, dims):
        for _ in range(20):
            net = make_random_net(rng, dims, scale=1.5)
            seg = LineSegment(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), -0.5, 1.5)
            edges = np.linspace(seg.alpha_min, seg.alpha_max, 65)
            looser = abs_weight_slopes(net, seg, edges)
            assert np.all(_cell_slopes(net, seg, edges) <= looser * (1 + 1e-12))

    @pytest.mark.parametrize("dims, scale, sigma_range", [
        ([200, 512, 2], 0.1, (1.0, 1.0)),
        ([3, 6, 5, 2], 1.5, (0.5, 2.0)),
    ])
    def test_samples_near_arc_length_floor(self, dims, scale, sigma_range):
        rng = np.random.default_rng(8)
        net = make_random_net(rng, dims, scale=scale, sigma_range=sigma_range)
        seg = LineSegment(rng.uniform(-2, 2, dims[0]), rng.uniform(-2, 2, dims[0]))
        profile = sample_line(net, seg, score_tol=0.01)
        assert len(profile.alphas) <= 1.5 * arc_length_floor(net, seg, 0.01)

    def test_never_more_samples_than_global_spacing(self, rng):
        for _ in range(20):
            net = make_random_net(rng, [3, 6, 5, 2], scale=1.5)
            seg = LineSegment(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3), 0.0, 2.0)
            include = (1.0, 0.3 + rng.uniform())
            profile = sample_line(net, seg, include=include)
            span = seg.alpha_max - seg.alpha_min
            length = np.linalg.norm(seg.x2 - seg.x1)
            n_global = max(int(np.ceil(span * lipschitz_bound(net) * length / 0.01)) + 1, 2)
            assert len(profile.alphas) <= n_global + len(include)

    def test_peak_memory_bounded_on_long_segment(self):
        rng = np.random.default_rng(8)
        net = make_random_net(rng, [200, 512, 2], scale=0.1, sigma_range=(1.0, 1.0))
        seg = LineSegment(rng.standard_normal(200), rng.standard_normal(200))
        tracemalloc.start()
        try:
            profile = sample_line(net, seg, score_tol=3e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(profile.alphas) >= 100_000 and not profile.capped
        assert peak < 64 * 2**20


class TestCountCrossings:
    def test_rejects_endpoints_not_1d(self, rng):
        # a stack of endpoints used to fail deep inside the bisection
        net = make_linear_net(rng, 3)
        X = rng.standard_normal((2, 3))
        for x1, x2 in [(X, X + 1.0), (X[0], X + 1.0), (np.float64(0.0), np.float64(1.0))]:
            with pytest.raises(ShapeError, match="1-D"):
                count_crossings(net, [LineSegment(x1, x2)])

    def test_same_class_endpoints_linear(self, rng):
        net = make_linear_net(rng, 3)
        w = net.layers[0].weights[0] - net.layers[0].weights[1]
        c = net.layers[0].bias[0] - net.layers[0].bias[1]
        x1 = rng.standard_normal(3)
        g1 = w @ x1 + c
        x2 = x1 + rng.standard_normal(3) * 0.01  # same side for small step
        if np.sign(w @ x2 + c) != np.sign(g1):
            x2 = x1
            x2 = x1 + 1e-6 * np.sign(g1) * w
        assert count_crossings(net, [LineSegment(x1, x2)])[0] == []

    def test_bump_net_two_crossings(self):
        net = make_bump_net(width=1.0, sharpness=0.1)
        x1 = np.array([-3.0, 0.0])
        x2 = np.array([3.0, 0.0])
        crossings = count_crossings(net, [LineSegment(x1, x2)])[0]
        assert len(crossings) == 2
        assert dense_crossing_count(net, x1, x2) == 2

    def test_counts_match_dense_oracle(self, rng):
        net = make_random_net(rng, [2, 6, 2], scale=1.5)
        for _ in range(20):
            x1 = rng.uniform(-2, 2, 2)
            x2 = rng.uniform(-2, 2, 2)
            if np.array_equal(x1, x2):
                continue
            found = count_crossings(net, [LineSegment(x1, x2)])[0]
            assert len(found) == dense_crossing_count(net, x1, x2)

    @pytest.mark.parametrize("peak", [1e-4, 1e-5])
    def test_shallow_slab_both_crossings(self, peak):
        # the gap rises above zero by only `peak` inside the slab, far
        # less than a profile's spacing of the logits
        net = make_bump_net(width=0.1 * erfinv((1 + peak) / 2), sharpness=0.1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x1 = np.array([rng.uniform(-3, -1), rng.uniform(-2, 2)])
            x2 = np.array([rng.uniform(1, 3), rng.uniform(-2, 2)])
            assert len(count_crossings(net, [LineSegment(x1, x2)])[0]) == 2

    @pytest.mark.parametrize("classes", [3, 4])
    def test_multiclass_counts_match_dense_oracle(self, rng, classes):
        for _ in range(3):
            net = make_random_net(rng, [2, 8, classes], scale=1.5)
            for _ in range(25):
                x1, x2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
                found = count_crossings(net, [LineSegment(x1, x2)])[0]
                assert len(found) == dense_crossing_count(net, x1, x2)

    @pytest.mark.parametrize("x1, x2", [(-1.0, 1.0), (1.0, -1.0)],
                             ids=["to-class-0", "to-class-1"])
    def test_exact_tie_at_cell_end_counted_once(self, x1, x2):
        # z_0 - z_1 = 2x is exactly zero at alpha 0.5, an end of two cells
        net = Network([Layer(np.array([[1.0], [-1.0]]), np.zeros(2), 1.0)])
        assert count_crossings(net, [LineSegment([x1], [x2])])[0] == [0.5]

    def test_identical_output_rows_bounded(self, rng):
        # the gap of two identical rows is zero everywhere, and so is its slope
        tracemalloc.start()
        try:
            net = make_random_net(rng, [2, 6, 2], scale=1.5)
            net.layers[-1].weights[1] = net.layers[-1].weights[0]
            net.layers[-1].bias[1] = net.layers[-1].bias[0]
            assert count_crossings(net, [LineSegment(rng.standard_normal(2),
                                                     rng.standard_normal(2))])[0] == []
            net = make_random_net(rng, [2, 6, 3], scale=1.5)
            net.layers[-1].weights[2] = net.layers[-1].weights[1]
            net.layers[-1].bias[2] = net.layers[-1].bias[1]
            for _ in range(10):
                x1, x2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
                found = count_crossings(net, [LineSegment(x1, x2)])[0]
                assert len(found) == dense_crossing_count(net, x1, x2, step=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("limit", ["MAX_ROUNDS", "CHUNK_ROWS"])
    def test_undecided_raises(self, monkeypatch, limit):
        # both crossings of the slab lie in one of the first cells
        monkeypatch.setattr(paths, limit, 1)
        net = make_bump_net(width=0.05, sharpness=0.01)
        with pytest.raises(FlipnetError, match="undecided"):
            count_crossings(net, [LineSegment([-0.1, 0.0], [1.5, 0.0])])

    def test_refined_crossing_residual(self, rng):
        net = make_random_net(rng, [2, 6, 2], scale=1.5)
        hits = 0
        for _ in range(20):
            x1, x2 = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            seg = LineSegment(x1, x2)
            for alpha in count_crossings(net, [seg])[0]:
                z = logits_batch(net, seg.at(alpha)[None, :])[0]
                top = np.argsort(z)[::-1]
                scale = max(1.0, np.max(np.abs(z)))
                assert abs(z[top[0]] - z[top[1]]) <= 1e-8 * scale
                hits += 1
        assert hits > 0

    def test_refinement_is_one_find_root_call(self, monkeypatch):
        # three slabs |x_0 - m| < 0.4, for m in (-3, 0, 3), each crossed twice
        # by the segment; all six isolated crossings are refined together
        net = Network([
            Layer(np.array([[1.0, 0.0]] * 6), np.array([3.4, 2.6, 0.4, -0.4, -2.6, -3.4]), 0.05),
            Layer(np.array([[0.5, -0.5] * 3, [-0.5, 0.5] * 3]), np.array([-0.5, 0.5]), 1.0),
        ])
        calls, find_root = [], paths.find_root

        def counted(f, init, **kwargs):
            calls.append(len(init[0]))
            return find_root(f, init, **kwargs)

        monkeypatch.setattr(paths, "find_root", counted)
        seg = LineSegment([-5.0, 0.3], [5.0, -0.2])
        found = count_crossings(net, [seg])[0]
        assert len(found) == dense_crossing_count(net, seg.x1, seg.x2, step=1e-3) == 6
        assert calls == [6]
        for alpha in found:
            z = logits_batch(net, seg.at(alpha)[None, :])[0]
            assert abs(z[0] - z[1]) <= 1e-8 * max(1.0, np.max(np.abs(z)))


def mixed_stack(rng, net, count):
    """count segments of net's input dimension with mixed alpha ranges."""
    dim, ranges = net.input_dim, [(0.0, 1.0), (-0.5, 1.5), (0.25, 0.75), (-2.0, 3.0)]
    return [LineSegment(rng.uniform(-2, 2, dim), rng.uniform(-2, 2, dim), *ranges[s % 4])
            for s in range(count)]


def tie_net_stack():
    """A 3-class net on x whose top two logits tie exactly at x = 0 and x = 0.5,
    with segments that put those ties on cell ends, and the crossings expected."""
    net = Network([Layer(np.array([[2.0], [-2.0], [4.0]]), np.array([0.0, 0.0, -1.0]), 1.0)])
    cases = [(LineSegment([-1.0], [1.0]), [0.5, 0.75]), (LineSegment([1.0], [-1.0]), [0.25, 0.5]),
             (LineSegment([-1.0], [1.0], -1.0, 2.0), [0.5, 0.75]),
             (LineSegment([-1.0], [0.0]), [1.0]), (LineSegment([0.0], [-1.0]), [0.0])]
    return net, [seg for seg, _ in cases] * 4, [want for _, want in cases]


class TestStackedCrossings:
    @pytest.mark.parametrize("kind", ["2-class", "3-class", "4-class", "identical-rows", "tie"])
    def test_mixed_stack_matches_oracle_and_stack_of_one(self, rng, kind):
        if kind == "tie":
            net, segs, want = tie_net_stack()
        else:
            classes = {"2-class": 2, "3-class": 3, "4-class": 4, "identical-rows": 3}[kind]
            net = make_random_net(rng, [2, 8, classes], scale=1.5)
            if kind == "identical-rows":
                net.layers[-1].weights[2] = net.layers[-1].weights[1]
                net.layers[-1].bias[2] = net.layers[-1].bias[1]
            segs = mixed_stack(rng, net, 2 * paths.SEGMENTS + 5)
        stacked = count_crossings(net, segs)
        assert len(stacked) == len(segs)
        for seg, found in zip(segs, stacked):
            ends = seg.at(seg.alpha_min), seg.at(seg.alpha_max)
            assert len(found) == dense_crossing_count(net, *ends, step=1e-4)
            assert found == sorted(found)
            alone = count_crossings(net, [seg])[0]
            np.testing.assert_allclose(found, alone, rtol=1e-12, atol=0)
        if kind == "tie":
            for found, alphas in zip(stacked, want):
                np.testing.assert_allclose(found, alphas, rtol=0, atol=1e-12)
        assert count_crossings(net, []) == []

    def test_stacked_slopes_equal_each_segments_own(self, rng):
        # on a one-hidden-layer net the input slopes use only W_1 @ step and
        # W_1 @ x1, which the stacked matmul rounds as each segment alone
        net = make_random_net(rng, [5, 7, 2], scale=1.5)
        segs = mixed_stack(rng, net, 6)
        x1 = np.array([s.x1 for s in segs])
        step = np.array([s.x2 - s.x1 for s in segs])
        seg = rng.integers(0, len(segs), 40)
        lo = rng.uniform(-1, 1, 40)
        hi = lo + rng.uniform(0, 1, 40)
        stacked = _input_slopes(net, x1, step, seg, lo, hi)
        for s in range(len(segs)):
            own = _input_slopes(net, x1[s:s + 1], step[s:s + 1], np.zeros(np.sum(seg == s), int),
                                lo[seg == s], hi[seg == s])
            for a, b in zip(stacked, own):
                assert np.array_equal(a[seg == s], b)

    def test_forward_passes_grow_with_stacks_not_segments(self, monkeypatch):
        # copies of one segment across the slab need the same rounds and
        # refinement steps, so each stack of SEGMENTS of them costs the
        # passes of one segment alone, with rows in proportion
        net = make_bump_net(width=0.5, sharpness=0.2)
        seg = LineSegment([-2.0, 0.3], [2.0, -0.1])
        calls, forward_batch = [], paths.forward_batch

        def recorded(net, X):
            calls.append(len(X))
            return forward_batch(net, X)

        monkeypatch.setattr(paths, "forward_batch", recorded)

        def passes(count):
            calls.clear()
            found = count_crossings(net, [seg] * count)
            assert all(len(alphas) == 2 for alphas in found)
            return len(calls), sum(calls)

        one = passes(1)
        assert one[0] > 2
        for count in (paths.SEGMENTS, paths.SEGMENTS + 1, 2 * paths.SEGMENTS, 5 * paths.SEGMENTS):
            stacks = -(-count // paths.SEGMENTS)
            assert passes(count) == (stacks * one[0], count * one[1])

    def test_many_segments_memory_bounded(self):
        rng = np.random.default_rng(3)
        net = make_random_net(rng, [20, 512, 2], scale=0.1, sigma_range=(1.0, 1.0))
        segs = [LineSegment(rng.standard_normal(20), rng.standard_normal(20))
                for _ in range(2000)]
        tracemalloc.start()
        try:
            found = count_crossings(net, segs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 2000 and sum(map(len, found)) > 0
        assert peak < 16 * 2**20


class TestBracketedRoots:
    def test_find_root_evaluates_lower_then_upper_end_first(self, monkeypatch):
        # bracketed_roots hands find_root's first two calls the end values
        calls, find_root = [], paths.find_root

        def recorded(f, init, args=(), **kwargs):
            def g(x, *a):
                calls.append((np.array(x), *(np.array(v) for v in a)))
                return f(x, *a)
            return find_root(g, init, args=args, **kwargs)

        monkeypatch.setattr(paths, "find_root", recorded)
        lo, hi = np.array([-1.0, 0.25, 2.0]), np.array([2.0, 3.0, 5.0])
        roots = np.array([0.5, 1.0, 4.0])
        found = bracketed_roots(lambda t, rows: roots[rows] - t, lo, hi, roots - lo, roots - hi)
        np.testing.assert_allclose(found, roots, rtol=1e-12)
        scale = np.maximum(1.0, np.abs(hi))
        for (x, rows), end in zip(calls[:2], (lo, hi)):
            np.testing.assert_array_equal(x, end / scale)
            np.testing.assert_array_equal(rows, np.arange(3))


class TestProfileToFlip:
    def test_flip_point_row(self, rng):
        net = make_random_net(rng, [2, 6, 2], scale=1.0)
        x = rng.uniform(-1, 1, 2)
        flip = closest_flip(net, x, (0, 1), SolveOptions(restarts=1))
        assert flip.converged
        profile = profile_to_flip(net, x, flip)
        k = int(np.nonzero(profile.alphas == 1.0)[0][0])
        s = profile.softmax_scores[k]
        assert abs(s[0] - s[1]) <= 2e-6

    def test_query_row_bit_exact(self, rng):
        net = make_random_net(rng, [2, 5, 2], scale=1.0)
        x = rng.uniform(-1, 1, 2)
        flip = closest_flip(net, x, (0, 1), SolveOptions(restarts=1))
        profile = profile_to_flip(net, x, flip)
        assert np.array_equal(profile.softmax_scores[0], forward(net, x).softmax)

    def test_linear_logit_gap_linear_in_alpha(self, rng):
        net = make_linear_net(rng, 4)
        x = rng.standard_normal(4)
        flip = closest_flip(net, x, (0, 1), SolveOptions(restarts=0))
        profile = profile_to_flip(net, x, flip)
        gaps = profile.logits[:, 0] - profile.logits[:, 1]
        fitted = np.polyval(np.polyfit(profile.alphas, gaps, 1), profile.alphas)
        assert np.max(np.abs(gaps - fitted)) <= 1e-9 * max(1.0, np.max(np.abs(gaps)))

    @pytest.mark.parametrize("seeds", [[12345], range(200)], ids=["rng-fixture", "seeds-0-199"])
    def test_one_crossing_at_linear_flip(self, seeds):
        # the included alpha 1.0 is the flip point; a grid alpha a few
        # ulps away must not add a pair of crossings at the same tie
        for seed in seeds:
            rng = np.random.default_rng(seed)
            net = make_linear_net(rng, 4)
            x = rng.standard_normal(4)
            flip = closest_flip(net, x, (0, 1), SolveOptions(restarts=0))
            crossings = profile_to_flip(net, x, flip).crossings
            assert len(crossings) == 1, (seed, crossings)
            assert abs(crossings[0] - 1.0) <= 1e-9, (seed, crossings)

    def test_requires_converged(self, rng):
        net = make_linear_net(rng, 3)
        x = rng.standard_normal(3)
        flip = closest_flip(net, x, (0, 1), SolveOptions(restarts=0))
        flip.status = "local-stationary"
        with pytest.raises(InvalidInputError):
            profile_to_flip(net, x, flip)
