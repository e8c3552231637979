import numpy as np
import pytest
import scipy.linalg

from flipnet import (
    haar3d_forward,
    haar3d_inverse,
    load_cifar_batch,
    load_selector,
    save_selector,
    scatter_selector,
    select_coefficients,
)
from flipnet.features import COEFF_COUNT, CoefficientSelector
from flipnet.errors import FormatError, InvalidInputError, InvalidParameterError, ShapeError


class TestHaar:
    def test_pair_step(self):
        from flipnet.features import _haar_axis_forward

        out = _haar_axis_forward(np.array([3.0, 1.0]), axis=0)
        np.testing.assert_allclose(out, [4.0 / np.sqrt(2), 2.0 / np.sqrt(2)], rtol=1e-15)

    def test_constant_image_detail_free(self):
        img = np.full((32, 32, 3), 0.4)
        coeffs = haar3d_forward(img)
        vol = coeffs.reshape(32, 32, 4)
        # purely spatial detail coefficients of the first level vanish
        assert np.max(np.abs(vol[16:, :16, :])) <= 1e-12
        assert np.max(np.abs(vol[:16, 16:, :])) <= 1e-12
        assert np.max(np.abs(vol[16:, 16:, :])) <= 1e-12

    def test_round_trip(self, rng):
        img = rng.random((32, 32, 3))
        back = haar3d_inverse(haar3d_forward(img))
        assert np.max(np.abs(back - img)) <= 1e-10

    def test_energy_preserved(self, rng):
        for _ in range(5):
            img = rng.random((32, 32, 3))
            padded_norm = np.linalg.norm(img)  # zero-pad adds no energy
            assert abs(np.linalg.norm(haar3d_forward(img)) - padded_norm) <= 1e-10

    def test_zero_coeffs(self):
        np.testing.assert_array_equal(haar3d_inverse(np.zeros(COEFF_COUNT)), np.zeros((32, 32, 3)))

    def test_dc_only_constant_reconstruction(self):
        coeffs = np.zeros(COEFF_COUNT)
        coeffs[0] = 64.0  # DC of the padded volume; 1/sqrt(4096) per voxel
        img = haar3d_inverse(coeffs)
        np.testing.assert_allclose(img, np.ones((32, 32, 3)), rtol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            haar3d_forward(np.zeros((32, 32)))
        with pytest.raises(ShapeError):
            haar3d_inverse(np.zeros(100))

    def test_stack_bit_identical_to_single_images(self, rng):
        # more images than one batched pass takes, in a 2-D stack
        imgs = rng.random((2, 150, 32, 32, 3))
        stack = haar3d_forward(imgs)
        assert stack.shape == (2, 150, COEFF_COUNT)
        single = np.stack([[haar3d_forward(im) for im in row] for row in imgs])
        np.testing.assert_array_equal(stack.view(np.uint64), single.view(np.uint64))

    @pytest.mark.parametrize("shape", [(5, 32, 32, 4), (5, 32, 3), (5, 3, 32, 32)])
    def test_stack_with_wrong_trailing_shape(self, shape):
        with pytest.raises(ShapeError):
            haar3d_forward(np.zeros(shape))

    def test_inverse_stack_bit_identical_to_single_rows(self, rng):
        coeffs = rng.standard_normal((2, 50, COEFF_COUNT))
        stack = haar3d_inverse(coeffs)
        assert stack.shape == (2, 50, 32, 32, 3)
        single = np.stack([[haar3d_inverse(c) for c in row] for row in coeffs])
        np.testing.assert_array_equal(stack.view(np.uint64), single.view(np.uint64))

    def test_inverse_stack_round_trip(self, rng):
        imgs = rng.random((7, 32, 32, 3))
        assert np.max(np.abs(haar3d_inverse(haar3d_forward(imgs)) - imgs)) <= 1e-10
        assert haar3d_inverse(np.zeros((0, COEFF_COUNT))).shape == (0, 32, 32, 3)

    @pytest.mark.parametrize("shape", [(), (5, 4095), (5, COEFF_COUNT, 1), (5, 64, 64)])
    def test_inverse_with_wrong_trailing_shape(self, shape):
        with pytest.raises(ShapeError):
            haar3d_inverse(np.zeros(shape))


def geqp3_pivots(A, k):
    """First k pivots of LAPACK's geqp3, the selector's oracle."""
    return scipy.linalg.qr(A, mode="r", pivoting=True)[1][:k]


def first_difference(piv, oracle):
    """(step, oracle's column, selector's column, their positions in the
    oracle's swapped column order) where the two first differ, or None."""
    order = list(range(max(max(piv), max(oracle)) + 1))
    for i, (p, q) in enumerate(zip(piv, oracle)):
        if p != q:
            return i, q, p, order.index(q), order.index(p)
        j = order.index(q)
        order[i], order[j] = order[j], order[i]
    return None


class TestPivotedQR:
    """select_coefficients against the first k pivots of geqp3."""

    def test_identity(self):
        assert list(select_coefficients(np.eye(4), 4).indices) == [0, 1, 2, 3]
        assert list(geqp3_pivots(np.eye(4), 4)) == [0, 1, 2, 3]

    def test_dominant_column_first(self, rng):
        A = rng.standard_normal((6, 5)) * 0.1
        A[:, 3] = 100.0 * rng.standard_normal(6)
        assert select_coefficients(A, 1).indices[0] == 3

    def test_reconstruction_residual(self, rng):
        # the selected columns span what geqp3's first k columns of Q span
        for m, n, k in [(8, 6, 4), (6, 8, 5), (12, 12, 7)]:
            A = rng.standard_normal((m, n))
            sel = select_coefficients(A, k).indices
            Q, _ = np.linalg.qr(A[:, sel])
            R = scipy.linalg.qr(A, mode="r", pivoting=True)[0]
            resid = np.linalg.norm(A - Q @ (Q.T @ A))
            assert abs(resid - np.linalg.norm(R[k:, k:])) <= 1e-10 * np.linalg.norm(A)

    def test_diagonal_non_increasing(self, rng):
        for _ in range(10):
            A = rng.standard_normal((20, 15))
            sel = select_coefficients(A, 15).indices
            d = np.abs(np.diag(np.linalg.qr(A[:, sel], mode="r")))
            assert np.all(d[:-1] >= d[1:] - 1e-12)

    def test_rank_deficient_trailing_zeros(self, rng):
        A = rng.standard_normal((10, 3))
        A = np.hstack([A, A])  # rank 3, 6 columns
        for k in (1, 2, 3):
            assert np.array_equal(select_coefficients(A, k).indices % 3,
                                  geqp3_pivots(A, k) % 3)
        with pytest.raises(InvalidInputError, match=r"numerical rank 3: pivot step 3"):
            select_coefficients(A, 4)

    def test_matches_geqp3_on_random_shapes(self, rng):
        for _ in range(40):
            m, n = (int(v) for v in rng.integers(2, 65, size=2))
            A = rng.standard_normal((m, n))
            k = min(m, n)
            assert np.array_equal(select_coefficients(A, k).indices, geqp3_pivots(A, k)), (m, n)

    def test_exact_ties_follow_swap_order(self):
        # geqp3 takes the first largest norm in its swapped column order,
        # not the lowest column index: after column 3 swaps with column 0,
        # the tie between 0, 1 and 2 goes to 1
        A = np.diag([1.0, 1.0, 1.0, 2.0])
        assert list(geqp3_pivots(A, 4)) == [3, 1, 2, 0]
        assert list(select_coefficients(A, 4).indices) == [3, 1, 2, 0]

    def test_duplicated_columns_with_exact_arithmetic(self, rng):
        # rank m: signed, power-of-two scaled unit columns and their copies;
        # every norm and projection is exact, so geqp3's ties are exact too
        for _ in range(30):
            m = int(rng.integers(3, 12))
            cols = np.eye(m + 2, m)[:, rng.permutation(m)] * rng.choice([-1.0, 1.0], m)
            cols *= 2.0 ** rng.integers(0, 3, m)
            A = np.hstack([cols] * int(rng.integers(2, 4)))
            A = A[:, rng.permutation(A.shape[1])]
            for k in (m - 1, m):
                assert np.array_equal(select_coefficients(A, k).indices, geqp3_pivots(A, k))
            with pytest.raises(InvalidInputError, match=f"numerical rank {m}"):
                select_coefficients(A, m + 1)

    def test_duplicated_random_columns(self, rng):
        # copies of a column tie exactly in exact arithmetic, and the
        # selector's copies tie exactly; geqp3's rounding sometimes ranks a
        # later copy first, so the pivots may name other copies from there
        notes = []
        for _ in range(40):
            m = int(rng.integers(3, 40))
            r = int(rng.integers(1, m))
            A = np.hstack([rng.standard_normal((m, r))] * 2)
            piv, oracle = select_coefficients(A, r).indices, geqp3_pivots(A, r)
            assert np.array_equal(piv % r, oracle % r), (m, r)
            diff = first_difference(piv, oracle)
            if diff:
                step, q, p, q_pos, p_pos = diff
                assert q % r == p % r and q_pos > p_pos, diff
                notes.append(f"{m}x{2 * r} step {step}: geqp3 took column {q} at "
                             f"position {q_pos}, the selector its copy {p} at {p_pos}")
        print(f"{len(notes)} exact ties that geqp3 broke by rounding: " + "; ".join(notes))

    def test_near_equal_column_norms(self, rng):
        # every column norm within about 1e-12 relative of every other
        for _ in range(20):
            A = rng.standard_normal((30, 20))
            A *= (1.0 + 1e-12 * rng.standard_normal(20)) / np.linalg.norm(A, axis=0)
            assert np.array_equal(select_coefficients(A, 20).indices, geqp3_pivots(A, 20))

    def test_low_rank_product(self, rng):
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(5, 60, size=2))
            r = int(rng.integers(1, min(m, n)))
            A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            assert np.array_equal(select_coefficients(A, r).indices, geqp3_pivots(A, r))
            with pytest.raises(InvalidInputError, match=f"numerical rank {r}: pivot step {r}"):
                select_coefficients(A, r + 1)

    def test_all_zero_matrix(self):
        with pytest.raises(InvalidInputError, match="numerical rank 0: pivot step 0"):
            select_coefficients(np.zeros((4, 6)), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        A = np.ones((4, 6))
        A[2, 3] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            select_coefficients(A, 2)


def greedy_selection_oracle(A, k):
    """Brute-force greedy column-norm deflation (projection form)."""
    A = A.astype(float).copy()
    chosen = []
    remaining = list(range(A.shape[1]))
    for _ in range(k):
        norms = np.linalg.norm(A[:, remaining], axis=0)
        best = norms.max()
        idx = remaining[int(np.argmax(norms >= best - 1e-14))]
        chosen.append(idx)
        v = A[:, idx].copy()
        nv = np.linalg.norm(v)
        if nv > 0:
            v /= nv
            A -= np.outer(v, v @ A)
        remaining.remove(idx)
    return chosen


class TestSelection:
    def test_empty(self, rng):
        sel = select_coefficients(rng.standard_normal((5, 8)), 0)
        assert len(sel) == 0

    def test_dominant_column(self, rng):
        A = rng.standard_normal((10, 12)) * 0.01
        A[:, 7] = rng.standard_normal(10)
        sel = select_coefficients(A, 3)
        assert sel.indices[0] == 7

    def test_matches_greedy_oracle(self, rng):
        A = rng.standard_normal((50, 16))
        sel = select_coefficients(A, 10)
        assert list(sel.indices) == greedy_selection_oracle(A, 10)

    def test_k_out_of_range(self, rng):
        with pytest.raises(InvalidParameterError):
            select_coefficients(rng.standard_normal((5, 8)), 9)

    def test_deterministic(self, rng):
        A = rng.standard_normal((30, 20))
        s1 = select_coefficients(A, 8)
        s2 = select_coefficients(A.copy(), 8)
        assert np.array_equal(s1.indices, s2.indices)


class TestSelectorOps:
    def test_gather(self):
        sel = CoefficientSelector(np.array([0]))
        coeffs = np.zeros(COEFF_COUNT)
        coeffs[0] = 5.0
        np.testing.assert_array_equal(coeffs[sel.indices], [5.0])

    def test_empty_gather(self):
        sel = CoefficientSelector(np.empty(0, dtype=int))
        assert np.zeros(COEFF_COUNT)[sel.indices].shape == (0,)

    def test_gather_scatter_round_trip(self, rng):
        sel = CoefficientSelector(np.array([5, 100, 7]))
        base = rng.standard_normal(COEFF_COUNT)
        vals = np.array([1.0, 2.0, 3.0])
        out = scatter_selector(vals, sel, base)
        np.testing.assert_array_equal(out[sel.indices], vals)
        mask = np.ones(COEFF_COUNT, bool)
        mask[sel.indices] = False
        np.testing.assert_array_equal(out[mask], base[mask])

    def test_scatter_stack_equals_single_rows(self, rng):
        sel = CoefficientSelector(np.array([5, 100, 7]))
        base = rng.standard_normal((2, 4, COEFF_COUNT))
        vals = rng.standard_normal((2, 4, 3))
        before = base.copy()
        out = scatter_selector(vals, sel, base)
        np.testing.assert_array_equal(base, before)  # the base rows are copied, not written
        for i in range(2):
            for j in range(4):
                np.testing.assert_array_equal(out[i, j], scatter_selector(vals[i, j], sel, base[i, j]))

    @pytest.mark.parametrize("vals_shape, base_shape", [
        ((3, 3), (COEFF_COUNT,)), ((3,), (2, COEFF_COUNT)), ((2, 3), (3, COEFF_COUNT)),
        ((2, 4), (2, COEFF_COUNT)), ((), (COEFF_COUNT,)),
    ])
    def test_scatter_shape_mismatch(self, vals_shape, base_shape):
        sel = CoefficientSelector(np.array([5, 100, 7]))
        with pytest.raises(ShapeError):
            scatter_selector(np.zeros(vals_shape), sel, np.zeros(base_shape))

    def test_save_load(self, tmp_path, rng):
        sel = CoefficientSelector(rng.permutation(COEFF_COUNT)[:20])
        path = tmp_path / "sel.txt"
        save_selector(sel, path)
        loaded = load_selector(path)
        assert np.array_equal(loaded.indices, sel.indices)

    @pytest.mark.parametrize("bad", [-1, COEFF_COUNT, 5000])
    def test_load_rejects_index_outside_coefficients(self, tmp_path, bad):
        path = tmp_path / "sel.txt"
        path.write_text(f"3\n\n{bad}\n7\n")
        with pytest.raises(FormatError, match=f"sel.txt:3: coefficient index {bad} "):
            load_selector(path)


def reconstruct(image, indices):
    """Forward transform, keep the coefficients at indices, inverse."""
    coeffs = haar3d_forward(image)
    kept = np.zeros_like(coeffs)
    kept[..., indices] = coeffs[..., indices]
    return haar3d_inverse(kept)


class TestReconstruction:
    def test_full_basis(self, rng):
        img = rng.random((32, 32, 3))
        assert np.max(np.abs(reconstruct(img, np.arange(COEFF_COUNT)) - img)) <= 1e-10

    def test_empty_selector(self, rng):
        img = rng.random((32, 32, 3))
        np.testing.assert_array_equal(reconstruct(img, np.empty(0, dtype=int)),
                                      np.zeros((32, 32, 3)))

    def test_error_non_increasing_along_pivot_order(self, rng):
        imgs = rng.random((30, 32, 32, 3))
        coeff_matrix = haar3d_forward(imgs)
        sel_full = select_coefficients(coeff_matrix, 30)
        test_img = rng.random((32, 32, 3))
        errors = []
        for k in [5, 10, 20, 30]:
            recon = reconstruct(test_img, sel_full.indices[:k])
            errors.append(np.linalg.norm(recon - test_img))
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


class TestCifarLoader:
    def _record(self, label, value):
        return bytes([label]) + bytes([value] * 3072)

    def test_empty_stream(self):
        imgs, labels = load_cifar_batch(b"", (0, 8))
        assert imgs.shape == (0, 32, 32, 3) and labels.shape == (0,)

    def test_filtering(self):
        stream = self._record(0, 10) + self._record(5, 20)
        imgs, labels = load_cifar_batch(stream, (0, 8))
        assert imgs.shape[0] == 1
        assert labels.tolist() == [0]

    def test_scaling(self):
        imgs, _ = load_cifar_batch(self._record(8, 255), (0, 8))
        np.testing.assert_array_equal(imgs[0], np.ones((32, 32, 3)))

    def test_label_mapping(self):
        stream = self._record(0, 1) + self._record(8, 2)
        _, labels = load_cifar_batch(stream, (0, 8))
        assert labels.tolist() == [0, 1]

    def test_channel_planar_layout(self):
        # red plane 255, green/blue 0
        rec = bytes([8]) + bytes([255] * 1024) + bytes([0] * 2048)
        imgs, _ = load_cifar_batch(rec, (0, 8))
        np.testing.assert_array_equal(imgs[0, :, :, 0], np.ones((32, 32)))
        np.testing.assert_array_equal(imgs[0, :, :, 1:], np.zeros((32, 32, 2)))

    def test_truncated_stream(self):
        with pytest.raises(FormatError):
            load_cifar_batch(b"\x00" * 3072, (0, 8))

    def test_bad_keep_label(self):
        with pytest.raises(InvalidParameterError):
            load_cifar_batch(b"", (0, 12))

    @pytest.mark.parametrize("keep", [(0, 8.5), (True, 8)])
    def test_keep_label_not_an_integer(self, keep):
        # (0, 8.5) used to keep only the 0s, and (True, 8) only the 8s, as label 1
        stream = self._record(0, 1) + self._record(8, 2)
        with pytest.raises(InvalidParameterError):
            load_cifar_batch(stream, keep)
