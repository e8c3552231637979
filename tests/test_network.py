import math
import struct

import numpy as np
import pytest

from flipnet import (
    Layer,
    Network,
    activation_erf,
    forward,
    forward_batch,
    grad_scalar_wrt_input,
    lipschitz_bound,
    load_checkpoint,
    save_checkpoint,
    spectral_norm,
    vjp,
)
from flipnet.errors import FormatError, InvalidInputError, InvalidParameterError, ShapeError
from flipnet.network import (CHECKPOINT_MAGIC, TILE, activation_erf_deriv, backward, row_norms,
                             rows_product)
from conftest import make_random_net


def erf_series(x, terms=25):
    """Independent oracle: Maclaurin series of erf."""
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


class TestActivation:
    def test_zero(self):
        assert activation_erf(0.0, 1.0) == 0.0

    def test_series_oracle(self):
        assert activation_erf(1.0, 1.0) == pytest.approx(erf_series(1.0), abs=1e-12)
        assert erf_series(1.0) == pytest.approx(0.8427007929, abs=1e-9)
        for y, s in [(0.3, 0.7), (1.5, 2.0), (-0.8, 0.5)]:
            assert activation_erf(y, s) == pytest.approx(erf_series(y / s), abs=1e-12)

    def test_odd_symmetry(self, rng):
        for _ in range(20):
            y, s = rng.normal(), rng.uniform(0.2, 3.0)
            assert activation_erf(-y, s) == -activation_erf(y, s)

    def test_invalid_sigma(self):
        with pytest.raises(InvalidParameterError):
            activation_erf(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            activation_erf(1.0, -1.0)


    def test_deriv_is_zero_on_saturated_units(self):
        # past (y / sigma)^2 = 708, exp(-u^2) would be subnormal or 0
        sigma = 0.7
        # and past |y / sigma| = 1.3e154, where its square overflows to inf
        y = sigma * np.array([0.0, 0.5, -3.0, 26.5, -26.6, 26.61, -26.7, 27.0, 40.0, 1e3, 1e200])
        d = activation_erf_deriv(y, sigma)
        u = y / sigma
        live = np.abs(u) < math.sqrt(708.0)
        assert live.tolist() == [True] * 5 + [False] * 6
        np.testing.assert_array_equal(d[live], 2.0 / math.sqrt(math.pi) / sigma
                                      * np.exp(-u[live] * u[live]))
        assert np.all(d[live] >= np.finfo(float).tiny) and np.all(d[~live] == 0.0)

    def test_tiny_sigma_saturates_without_warning(self):
        # y / sigma overflows to +-inf for a checkpoint's sigma of 1e-300;
        # the saturated values are exact, so no overflow warning is raised
        y = np.array([1e10, -1e10])
        assert activation_erf(y, 1e-300).tolist() == [1.0, -1.0]
        assert activation_erf_deriv(y, 1e-300).tolist() == [0.0, 0.0]


class TestRowNorms:
    def test_bit_identical_to_one_row_norm(self, rng):
        # np.linalg.norm(D, axis=1) differs from the 1-D norm in the last bit on some rows
        for d in (1, 3, 8, 17, 200, 4096):
            D = rng.standard_normal((40, d)) * rng.uniform(1e-3, 1e3, (40, 1))
            assert row_norms(D).tolist() == [np.linalg.norm(row) for row in D]


class TestRowsProduct:
    def test_each_row_is_its_product_alone(self, rng):
        # any count, position or memory layout of the rows gives a row the
        # bytes it gets alone, and the whole is A @ B to rounding
        for k, m in ((3, 5), (200, 512), (512, 2)):
            B = rng.standard_normal((m, k)).T
            for n in (0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5):
                A = rng.standard_normal((n, k))
                P = rows_product(A, B)
                assert P.shape == (n, m)
                np.testing.assert_allclose(P, A @ B, rtol=1e-12, atol=1e-12)
                assert np.array_equal(rows_product(np.asfortranarray(A), B), P)
                for r in range(0, n, 7):
                    assert np.array_equal(rows_product(A[r:r + 1], B)[0], P[r])


class TestForward:
    def test_zero_net_uniform_softmax(self):
        net = Network([Layer(np.zeros((3, 4)), np.zeros(3), 1.0)])
        ev = forward(net, np.ones(4))
        np.testing.assert_allclose(ev.softmax, np.full(3, 1 / 3), atol=1e-15)

    def test_linear_net_is_affine(self, rng):
        W = rng.standard_normal((2, 5))
        b = rng.standard_normal(2)
        net = Network([Layer(W, b, 1.0)])
        x = rng.standard_normal(5)
        np.testing.assert_allclose(forward(net, x).logits, W @ x + b, rtol=1e-15)

    def test_hand_computed_2_2_2(self):
        # independent scalar-arithmetic oracle with math.erf
        W1 = np.array([[0.5, -0.3], [0.2, 0.8]])
        b1 = np.array([0.1, -0.2])
        W2 = np.array([[1.0, 0.5], [-0.4, 0.9]])
        b2 = np.array([0.0, 0.3])
        sigma = 1.3
        net = Network([Layer(W1, b1, sigma), Layer(W2, b2, 1.0)])
        x = np.array([0.7, -0.4])

        y1 = 0.5 * 0.7 + (-0.3) * (-0.4) + 0.1
        y2 = 0.2 * 0.7 + 0.8 * (-0.4) - 0.2
        a1 = math.erf(y1 / sigma)
        a2 = math.erf(y2 / sigma)
        z0 = 1.0 * a1 + 0.5 * a2 + 0.0
        z1 = -0.4 * a1 + 0.9 * a2 + 0.3
        ev = forward(net, x)
        np.testing.assert_allclose(ev.logits, [z0, z1], rtol=1e-14)
        e0, e1 = math.exp(z0), math.exp(z1)
        np.testing.assert_allclose(ev.softmax, [e0 / (e0 + e1), e1 / (e0 + e1)], rtol=1e-14)

    def test_softmax_normalized(self, rng):
        net = make_random_net(rng, [4, 6, 3])
        for _ in range(50):
            ev = forward(net, rng.standard_normal(4))
            assert abs(ev.softmax.sum() - 1.0) <= 1e-12
            assert np.all(ev.softmax > 0) and np.all(ev.softmax < 1)

    def test_shape_and_finite_errors(self, rng):
        net = make_random_net(rng, [3, 2])
        with pytest.raises(ShapeError):
            forward(net, np.zeros(4))
        with pytest.raises(InvalidInputError):
            forward(net, np.array([1.0, np.nan, 0.0]))

    def test_deterministic(self, rng):
        net = make_random_net(rng, [5, 7, 3])
        x = rng.standard_normal(5)
        a = forward(net, x)
        b = forward(net, x)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.softmax, b.softmax)


class TestGradient:
    def test_linear_row_difference(self, rng):
        W = rng.standard_normal((3, 4))
        net = Network([Layer(W, rng.standard_normal(3), 1.0)])
        coeffs = np.array([1.0, -1.0, 0.0])
        g = grad_scalar_wrt_input(net, rng.standard_normal(4), coeffs)
        np.testing.assert_allclose(g, W[0] - W[1], rtol=1e-14)

    def test_zero_coeffs(self, rng):
        net = make_random_net(rng, [3, 5, 2])
        g = grad_scalar_wrt_input(net, rng.standard_normal(3), np.zeros(2))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_finite_difference(self, rng):
        for _ in range(10):
            depth = rng.integers(1, 4)
            dims = [2] + list(rng.integers(2, 10, size=depth)) + [3]
            net = make_random_net(rng, dims)
            x = rng.standard_normal(2)
            coeffs = rng.standard_normal(3)
            g = grad_scalar_wrt_input(net, x, coeffs)
            h = 1e-5
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd = (
                    forward(net, x + e).logits @ coeffs
                    - forward(net, x - e).logits @ coeffs
                ) / (2 * h)
                assert abs(g[k] - fd) <= 1e-6 * max(abs(fd), 1e-8)

    def test_shape_error(self, rng):
        net = make_random_net(rng, [3, 2])
        with pytest.raises(ShapeError):
            grad_scalar_wrt_input(net, np.zeros(3), np.zeros(5))


class TestVjp:
    def test_per_row_coeffs_match_row_by_row(self, rng):
        net = make_random_net(rng, [4, 7, 5, 3])
        X = rng.standard_normal((6, 4))
        C = rng.standard_normal((6, 3))
        G = vjp(net, forward_batch(net, X)[1], C)
        assert G.shape == (6, 4)
        for r in range(6):
            assert np.array_equal(G[r], grad_scalar_wrt_input(net, X[r], C[r]))

    def test_finite_difference(self, rng):
        for _ in range(5):
            net = make_random_net(rng, [3, 6, 4, 3])
            X = rng.standard_normal((4, 3))
            C = rng.standard_normal((4, 3))
            G = vjp(net, forward_batch(net, X)[1], C)
            h = 1e-5
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                zp = forward_batch(net, X + e)[0]
                zm = forward_batch(net, X - e)[0]
                fd = np.sum((zp - zm) * C, axis=1) / (2 * h)
                np.testing.assert_allclose(G[:, k], fd, rtol=1e-6, atol=1e-9)

    def test_tape_holds_each_layers_input_and_preactivation(self, rng):
        net = make_random_net(rng, [3, 5, 4, 2])
        X = rng.standard_normal((6, 3))
        masks = [rng.uniform(0.5, 2.0, (6, 5)), rng.uniform(0.5, 2.0, (6, 4))]
        z, tape = forward_batch(net, X, masks)
        assert np.array_equal(tape[0][0], X)
        for li, layer in enumerate(net.layers):
            a, y = tape[li]
            assert np.array_equal(y, a @ layer.weights.T + layer.bias)
            if li < 2:
                assert np.array_equal(tape[li + 1][0], activation_erf(y, layer.sigma) * masks[li])
        assert np.array_equal(z, tape[-1][1])
        # masks of ones change no bit, and vjp is backward's first term times W_1
        ones = [np.ones((6, 5)), np.ones((6, 4))]
        assert np.array_equal(forward_batch(net, X, ones)[0], forward_batch(net, X)[0])
        _, tape = forward_batch(net, X)
        C = rng.standard_normal((6, 2))
        assert np.array_equal(vjp(net, tape, C), backward(net, tape, C)[0] @ net.layers[0].weights)

    def test_wrong_coeff_length(self, rng):
        net = make_random_net(rng, [3, 5, 2])
        _, tape = forward_batch(net, rng.standard_normal((4, 3)))
        for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((3, 2))):
            with pytest.raises(ShapeError):
                vjp(net, tape, bad)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)

    def test_zero(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_svd_oracle(self, rng):
        for _ in range(20):
            A = rng.standard_normal((5, 4))
            assert spectral_norm(A) == pytest.approx(
                np.linalg.svd(A, compute_uv=False)[0], abs=1e-8
            )

    def test_not_below_top_singular_value(self, rng):
        # the Lipschitz bound multiplies these, so an estimate from
        # below would make it no bound at all
        A = rng.standard_normal((512, 200))
        top = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) >= top * (1 - 1e-14)

    def test_non_finite(self):
        with pytest.raises(InvalidInputError):
            spectral_norm(np.array([[1.0, np.inf]]))


class TestLipschitzBound:
    def test_unit_construction(self):
        sigma = 2.0 / math.sqrt(math.pi)  # maximal erf slope 2/(sigma sqrt(pi)) = 1
        net = Network([Layer(np.eye(2), np.zeros(2), sigma), Layer(np.eye(2), np.zeros(2), 1.0)])
        assert lipschitz_bound(net) == pytest.approx(1.0, abs=1e-10)

    def test_zero_layer(self, rng):
        net = Network([Layer(np.zeros((3, 3)), np.zeros(3), 1.0), Layer(np.eye(2, 3), np.zeros(2), 1.0)])
        assert lipschitz_bound(net) == 0.0

    def test_multiplicative(self, rng):
        l1 = Layer(rng.standard_normal((4, 3)), np.zeros(4), 1.2)
        l2 = Layer(rng.standard_normal((2, 4)), np.zeros(2), 1.0)
        two = lipschitz_bound(Network([l1, l2]))
        per_hidden = spectral_norm(l1.weights) * 2.0 / (l1.sigma * math.sqrt(math.pi))
        assert two == pytest.approx(per_hidden * spectral_norm(l2.weights), rel=1e-12)

    def test_bound_holds_on_random_pairs(self, rng):
        net = make_random_net(rng, [3, 6, 4, 2])
        bound = lipschitz_bound(net)
        for _ in range(1000):
            a = rng.uniform(-2, 2, 3)
            b = rng.uniform(-2, 2, 3)
            dz = np.linalg.norm(forward(net, a).logits - forward(net, b).logits)
            assert dz <= bound * np.linalg.norm(a - b) * (1 + 1e-12) + 1e-14


class TestCheckpoint:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        net = make_random_net(rng, [5, 8, 4, 3])
        path = tmp_path / "net.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert len(loaded.layers) == len(net.layers)
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.sigma == b.sigma
        # and the file itself round-trips byte for byte
        path2 = tmp_path / "net2.bin"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTANET!" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)


    def test_every_truncation_is_a_format_error(self, rng, tmp_path):
        path = tmp_path / "net.bin"
        save_checkpoint(make_random_net(rng, [3, 4, 2]), path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(FormatError):
                load_checkpoint(cut)

    def test_layer_count_overrunning_the_file(self, rng, tmp_path):
        path = tmp_path / "net.bin"
        save_checkpoint(make_random_net(rng, [3, 4, 2]), path)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="header truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [[3, 0, 2], [3, 4, 0], [0, 2]])
    def test_empty_layer_rejected(self, tmp_path, dims):
        # header, then zero weights, zero bias and sigma 1 for each layer
        data = CHECKPOINT_MAGIC + struct.pack(f"<{len(dims) + 2}I", len(dims) - 1, *dims, dims[-1])
        for n_in, n_out in zip(dims, dims[1:]):
            data += bytes(8 * (n_out * n_in + n_out)) + struct.pack("<d", 1.0)
        path = tmp_path / "net.bin"
        path.write_bytes(data)
        with pytest.raises(ShapeError, match="rows and columns"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, error", [
        ("weights", math.nan, InvalidInputError), ("weights", math.inf, InvalidInputError),
        ("bias", -math.inf, InvalidInputError), ("sigma", math.nan, InvalidParameterError),
        ("sigma", math.inf, InvalidParameterError),
    ])
    def test_non_finite_parameters_rejected(self, rng, tmp_path, field, value, error):
        net = make_random_net(rng, [3, 4, 2])
        if field == "sigma":
            net.layers[0].sigma = value
        else:
            getattr(net.layers[0], field).flat[1] = value
        path = tmp_path / "net.bin"
        save_checkpoint(net, path)  # writes what it is given
        with pytest.raises(error):
            load_checkpoint(path)


class TestValidation:
    def test_sigma_positive(self):
        with pytest.raises(InvalidParameterError):
            Layer(np.eye(2), np.zeros(2), 0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_sigma_finite(self, sigma):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            Layer(np.eye(2), np.zeros(2), sigma)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_and_bias(self, value):
        W = np.eye(2)
        W[0, 1] = value
        with pytest.raises(InvalidInputError):
            Layer(W, np.zeros(2), 1.0)
        with pytest.raises(InvalidInputError):
            Layer(np.eye(2), np.array([0.0, value]), 1.0)

    def test_dim_chain(self):
        with pytest.raises(ShapeError):
            Network([Layer(np.eye(3), np.zeros(3), 1.0), Layer(np.eye(2), np.zeros(2), 1.0)])

    def test_bias_mismatch(self):
        with pytest.raises(ShapeError):
            Layer(np.eye(3), np.zeros(2), 1.0)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_weights(self, shape):
        with pytest.raises(ShapeError, match="rows and columns"):
            Layer(np.zeros(shape), np.zeros(shape[0]), 1.0)
