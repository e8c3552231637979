"""Wavelet features: multilevel 3D Haar transform and its inverse, greedy
column-pivot coefficient selection, and CIFAR-10 binary ingestion
restricted to two classes.

Images are 32x32x3 in [0, 1]. The channel axis is zero-padded to 4 so
the volume is dyadic (32*32*4 = 4096 coefficients); the padded transform
stays orthonormal. The forward and inverse transforms and
scatter_selector take stacks of any leading shape, one item being a
stack of one, and each row equals that row done alone bit for bit.
Coefficient positions are ranked by k steps of greedy column pivoting,
which give the first k pivots of LAPACK's geqp3.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (FormatError, InvalidInputError, InvalidParameterError, ShapeError,
                     check_classes, check_count)

IMAGE_SHAPE = (32, 32, 3)
PADDED_SHAPE = (32, 32, 4)
COEFF_COUNT = 4096
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 pixel bytes
HAAR_CHUNK = 256  # images per batched Haar pass; bounds the temporaries

_SQRT2 = np.sqrt(2.0)


def _level_plan():
    """Axis-halving schedule for the full multilevel decomposition.

    Each entry is (region_sizes, axes_transformed_at_this_level); the
    low-pass corner shrinks until it is a single coefficient.
    """
    sizes = list(PADDED_SHAPE)
    plan = []
    while max(sizes) > 1:
        axes = [ax for ax in range(3) if sizes[ax] > 1]
        plan.append((tuple(sizes), tuple(axes)))
        for ax in axes:
            sizes[ax] //= 2
    return plan


_PLAN = _level_plan()


def _haar_axis_forward(region, axis):
    """One Haar split along axis: (a, b) -> ((a+b)/sqrt2, (a-b)/sqrt2)."""
    shape = region.shape
    pairs = region.reshape(shape[:axis] + (shape[axis] // 2, 2) + shape[axis + 1:])
    a, b = np.moveaxis(pairs, axis + 1, 0)
    return np.concatenate(((a + b) / _SQRT2, (a - b) / _SQRT2), axis=axis)


def _haar_axis_inverse(region, axis):
    """Inverse of _haar_axis_forward: interleaves (lo+hi)/sqrt2, (lo-hi)/sqrt2."""
    lo, hi = np.split(region, 2, axis=axis)
    return np.stack(((lo + hi) / _SQRT2, (lo - hi) / _SQRT2), axis=axis + 1).reshape(region.shape)


def haar3d_forward(images):
    """Full multilevel orthonormal Haar transform of zero-padded images.

    Takes one image [32, 32, 3] or a stack [..., 32, 32, 3] and returns
    the flattened coefficients [..., 4096]; energy-preserving on the
    padded volume. Each pass of elementwise ops takes up to HAAR_CHUNK
    images and does each image's single-image arithmetic, so every row
    equals the single-image transform bit for bit.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.shape[-3:] != IMAGE_SHAPE:
        raise ShapeError(f"expected image shape [..., 32, 32, 3], got {images.shape}")
    if not np.all(np.isfinite(images)):
        raise InvalidInputError("image contains non-finite values")
    flat = images.reshape((-1,) + IMAGE_SHAPE)
    out = np.empty((len(flat), COEFF_COUNT))
    for start in range(0, len(flat), HAAR_CHUNK):
        chunk = flat[start:start + HAAR_CHUNK]
        vol = np.zeros((len(chunk),) + PADDED_SHAPE)
        vol[..., :3] = chunk
        for sizes, axes in _PLAN:
            region = vol[:, : sizes[0], : sizes[1], : sizes[2]]
            for ax in axes:
                region = _haar_axis_forward(region, ax + 1)
            vol[:, : sizes[0], : sizes[1], : sizes[2]] = region
        out[start:start + len(chunk)] = vol.reshape(len(chunk), COEFF_COUNT)
    return out.reshape(images.shape[:-3] + (COEFF_COUNT,))


def haar3d_inverse(coeffs):
    """Exact inverse of haar3d_forward; drops the zero-pad channel.

    Takes coefficients [..., 4096] and returns images [..., 32, 32, 3];
    every row equals the inverse of that row alone bit for bit. Does not
    clamp pixel values; callers check bounds.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1:] != (COEFF_COUNT,):
        raise ShapeError(f"expected coefficients [..., {COEFF_COUNT}], got {coeffs.shape}")
    vol = coeffs.reshape((-1,) + PADDED_SHAPE).copy()
    for sizes, axes in reversed(_PLAN):
        region = vol[:, : sizes[0], : sizes[1], : sizes[2]]
        for ax in reversed(axes):
            region = _haar_axis_inverse(region, ax + 1)
        vol[:, : sizes[0], : sizes[1], : sizes[2]] = region
    return vol[..., :3].reshape(coeffs.shape[:-1] + IMAGE_SHAPE)


@dataclass
class CoefficientSelector:
    """Ordered coefficient positions, most significant (first pivot) first."""

    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 1:
            raise ShapeError("selector indices must be 1-D")
        if len(np.unique(self.indices)) != len(self.indices):
            raise InvalidInputError("selector indices must be distinct")

    def __len__(self):
        return len(self.indices)


# LAWN 176's tol3z: a norm downdate that keeps less than this share of
# the squared norm at its last exact computation is recomputed instead.
_RECOMPUTE_TOL = np.sqrt(np.finfo(np.float64).eps / 2)


def _column_copies(A):
    """(first, group): column j equals column first[group[j]], the lowest
    index of its copies. Columns are keyed by an integer hash of their
    bits; a column whose key matches an unequal column gets its own group.
    """
    m, n = A.shape
    mult = np.random.default_rng(0).integers(1, 2**63, size=m, dtype=np.uint64)
    keys = (mult | np.uint64(1)) @ A.view(np.uint64)  # wraps mod 2**64
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    copies = np.flatnonzero(first[group] != np.arange(n))
    apart = copies[np.any(A[:, copies] != A[:, first[group[copies]]], axis=0)]
    group[apart] = len(first) + np.arange(len(apart))
    return np.concatenate([first, apart]), group


def select_coefficients(coeff_matrix, k):
    """First k pivot columns of the training coefficient matrix.

    Columns are coefficient positions; pivot order ranks them by
    significance under greedy column-norm deflation (Businger & Golub,
    1965), stopped after k steps. Each step takes the first largest
    residual column norm in the current swapped column order and swaps
    it forward, as LAPACK's geqp3 does, so the pivots are geqp3's first
    k. Equal columns share one residual norm, so they tie exactly and
    that order alone decides between them. The chosen column,
    orthogonalized twice against the basis so far, becomes the next
    basis vector q; every residual norm is downdated with q @ A and
    recomputed exactly where the downdate cancels (Drmac & Bujanovic,
    LAPACK Working Note 176).

    Raises InvalidInputError on non-finite input, and when a pivot's
    residual norm is at rounding level (max(m, n) * eps * the largest
    column norm, or zero): k then exceeds the matrix's numerical rank.
    """
    A = np.ascontiguousarray(coeff_matrix, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeError("coefficient matrix must be 2-D")
    m, n = A.shape
    check_count("k", k, 0)
    if k > min(m, n):
        raise InvalidParameterError(f"k={k} out of range [0, {min(m, n)}]")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("coefficient matrix contains non-finite values")
    perm = np.arange(n)
    if k == 0:
        return CoefficientSelector(perm[:0])
    first, group = _column_copies(A)
    Q = np.empty((k, m))  # orthonormal basis, one vector per row
    W = np.empty((k, len(first)))  # W[i] = Q[i] @ A[:, first]
    vn1 = np.sqrt(np.einsum("ij,ij->j", A, A))[first]  # residual norm of each group
    vn2 = vn1.copy()  # each norm at its last exact computation
    rank_tol = max(m, n) * np.finfo(np.float64).eps * vn1.max()
    for i in range(k):
        p = i + int(np.argmax(vn1[group[perm[i:]]]))
        perm[i], perm[p] = perm[p], perm[i]
        c = group[perm[i]]
        v = A[:, first[c]] - W[:i, c] @ Q[:i]
        v -= (Q[:i] @ v) @ Q[:i]
        r = np.linalg.norm(v) if vn1[c] > 0 else 0.0  # a group at 0 is spanned
        if r <= rank_tol:
            raise InvalidInputError(
                f"k={k} exceeds the numerical rank {i}: pivot step {i} has residual "
                f"norm {r:.3g} <= {rank_tol:.3g}"
            )
        Q[i] = v / r
        W[i] = (Q[i] @ A)[first]
        vn1[c] = 0.0  # its copies lie in the span of the basis now
        live = np.flatnonzero(vn1 > 0)
        temp = np.abs(W[i, live]) / vn1[live]
        temp = np.maximum(0.0, (1.0 + temp) * (1.0 - temp))
        cancels = temp * (vn1[live] / vn2[live]) ** 2 <= _RECOMPUTE_TOL
        vn1[live] *= np.sqrt(temp)
        redo = live[cancels]
        if len(redo):
            resid = A[:, first[redo]] - Q[: i + 1].T @ W[: i + 1, redo]
            vn1[redo] = vn2[redo] = np.linalg.norm(resid, axis=0)
    return CoefficientSelector(perm[:k].copy())


def scatter_selector(values, sel, base_coeffs):
    """Copies of the coefficient rows base_coeffs [..., 4096] with the
    selector positions of each row set to the matching row of values
    [..., k], in selector order. The leading shapes must be equal."""
    values = np.asarray(values, dtype=np.float64)
    out = np.array(base_coeffs, dtype=np.float64)
    if values.shape[-1:] != (len(sel),) or values.shape[:-1] != out.shape[:-1]:
        raise ShapeError(
            f"expected values [..., {len(sel)}] matching base rows {out.shape[:-1]}, "
            f"got {values.shape}"
        )
    out[..., sel.indices] = values
    return out


def save_selector(sel, path):
    with open(path, "w") as f:
        for idx in sel.indices:
            f.write(f"{int(idx)}\n")


def load_selector(path):
    """Coefficient positions, one per non-blank line, each in [0, 4096)."""
    indices = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    idx = int(line)
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: {line.strip()!r} "
                                      "is not a coefficient index") from None
                if not 0 <= idx < COEFF_COUNT:
                    raise FormatError(f"{path}:{lineno}: coefficient index {idx} "
                                      f"is outside [0, {COEFF_COUNT})")
                indices.append(idx)
    return CoefficientSelector(np.asarray(indices, dtype=np.int64))


def load_cifar_batch(raw, keep_classes=(0, 8)):
    """Parse a CIFAR-10 binary batch, keeping two label classes.

    Records are 1 label byte + 3072 pixel bytes (channel-planar R, G, B,
    row-major). Pixels are scaled to [0, 1]. Returns (images [n,32,32,3],
    labels [n] in {0, 1}) with label 0 for keep_classes[0].
    """
    keep = check_classes("keep_classes", keep_classes, 10)
    if keep.shape != (2,) or keep[0] == keep[1]:
        raise InvalidParameterError(f"keep_classes must be two distinct ids, got {keep_classes}")
    raw = bytes(raw)
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        raise FormatError(
            f"stream length {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    n_rec = len(raw) // CIFAR_RECORD_BYTES
    data = np.frombuffer(raw, dtype=np.uint8).reshape(n_rec, CIFAR_RECORD_BYTES)
    labels_raw = data[:, 0]
    mask = (labels_raw == keep[0]) | (labels_raw == keep[1])
    kept = data[mask]
    # channel-planar -> [n, 32, 32, 3]
    pixels = kept[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    images = pixels.astype(np.float64) / 255.0
    labels = (kept[:, 0] == keep[1]).astype(np.int64)
    return images, labels
