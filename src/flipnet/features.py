"""Wavelet features: multilevel 3D Haar transform, pivoted-QR coefficient
selection, and CIFAR-10 binary ingestion restricted to two classes.

Images are 32x32x3 in [0, 1]. The channel axis is zero-padded to 4 so
the volume is dyadic (32*32*4 = 4096 coefficients); the padded transform
stays orthonormal.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FormatError, InvalidInputError, InvalidParameterError, ShapeError

IMAGE_SHAPE = (32, 32, 3)
PADDED_SHAPE = (32, 32, 4)
COEFF_COUNT = 4096
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 pixel bytes

_SQRT2 = np.sqrt(2.0)


def _check_image(image):
    image = np.asarray(image, dtype=np.float64)
    if image.shape != IMAGE_SHAPE:
        raise ShapeError(f"expected image shape {IMAGE_SHAPE}, got {image.shape}")
    if not np.all(np.isfinite(image)):
        raise InvalidInputError("image contains non-finite values")
    return image


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
    a = np.take(region, range(0, region.shape[axis], 2), axis=axis)
    b = np.take(region, range(1, region.shape[axis], 2), axis=axis)
    return np.concatenate(((a + b) / _SQRT2, (a - b) / _SQRT2), axis=axis)


def _haar_axis_inverse(region, axis):
    half = region.shape[axis] // 2
    lo = np.take(region, range(half), axis=axis)
    hi = np.take(region, range(half, 2 * half), axis=axis)
    a = (lo + hi) / _SQRT2
    b = (lo - hi) / _SQRT2
    out = np.empty_like(region)
    sl_even = [slice(None)] * region.ndim
    sl_odd = [slice(None)] * region.ndim
    sl_even[axis] = slice(0, 2 * half, 2)
    sl_odd[axis] = slice(1, 2 * half, 2)
    out[tuple(sl_even)] = a
    out[tuple(sl_odd)] = b
    return out


def haar3d_forward(image):
    """Full multilevel orthonormal Haar transform of a zero-padded image.

    Returns the flattened [4096] coefficient vector; energy-preserving
    on the padded volume.
    """
    image = _check_image(image)
    vol = np.zeros(PADDED_SHAPE)
    vol[:, :, :3] = image
    for sizes, axes in _PLAN:
        region = vol[: sizes[0], : sizes[1], : sizes[2]]
        for ax in axes:
            region = _haar_axis_forward(region, ax)
        vol[: sizes[0], : sizes[1], : sizes[2]] = region
    return vol.ravel().copy()


def haar3d_inverse(coeffs):
    """Exact inverse of haar3d_forward; drops the zero-pad channel.

    Does not clamp pixel values; callers check bounds.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (COEFF_COUNT,):
        raise ShapeError(f"expected ({COEFF_COUNT},) coefficients, got {coeffs.shape}")
    vol = coeffs.reshape(PADDED_SHAPE).copy()
    for sizes, axes in reversed(_PLAN):
        region = vol[: sizes[0], : sizes[1], : sizes[2]]
        for ax in reversed(axes):
            region = _haar_axis_inverse(region, ax)
        vol[: sizes[0], : sizes[1], : sizes[2]] = region
    return vol[:, :, :3].copy()


def qr_pivoted(A, want_q=False):
    """QR with greedy column pivoting (LAPACK geqp3).

    At step i the remaining column with the largest 2-norm is pivoted
    in, giving A[:, pivots] = Q R with non-increasing |R_ii|. Returns
    (pivots, R) or (pivots, R, Q).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ShapeError(f"expected a nonempty 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix contains non-finite values")
    if want_q:
        Q, R, piv = scipy.linalg.qr(A, pivoting=True, check_finite=False)
        return piv, R, Q
    R, piv = scipy.linalg.qr(A, mode="r", pivoting=True, check_finite=False)
    return piv, R


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


def select_coefficients(coeff_matrix, k):
    """First k pivot columns of the training coefficient matrix.

    Columns are coefficient positions; pivot order ranks them by
    significance under greedy column-norm deflation.
    """
    coeff_matrix = np.asarray(coeff_matrix, dtype=np.float64)
    if coeff_matrix.ndim != 2:
        raise ShapeError("coefficient matrix must be 2-D")
    n_train, n_coeff = coeff_matrix.shape
    if k < 0 or k > min(n_train, n_coeff):
        raise InvalidParameterError(
            f"k={k} out of range [0, {min(n_train, n_coeff)}]"
        )
    if k == 0:
        return CoefficientSelector(np.empty(0, dtype=np.int64))
    piv, _ = qr_pivoted(coeff_matrix)
    return CoefficientSelector(piv[:k])


def apply_selector(coeffs, sel):
    """Gather the selected coefficient positions, in selector order."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    return coeffs[sel.indices].copy()


def scatter_selector(values, sel, base_coeffs):
    """Place feature values at the selector positions of a coefficient copy."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(sel),):
        raise ShapeError(f"expected {len(sel)} values, got {values.shape}")
    out = np.asarray(base_coeffs, dtype=np.float64).copy()
    out[sel.indices] = values
    return out


def reconstruct_from_subset(image, sel):
    """Reconstruction keeping only the selected wavelet coefficients."""
    coeffs = haar3d_forward(image)
    kept = np.zeros_like(coeffs)
    kept[sel.indices] = coeffs[sel.indices]
    return haar3d_inverse(kept)


def save_selector(sel, path):
    with open(path, "w") as f:
        for idx in sel.indices:
            f.write(f"{int(idx)}\n")


def load_selector(path):
    with open(path) as f:
        indices = [int(line) for line in f if line.strip()]
    return CoefficientSelector(np.asarray(indices, dtype=np.int64))


def load_cifar_batch(raw, keep_classes=(0, 8)):
    """Parse a CIFAR-10 binary batch, keeping two label classes.

    Records are 1 label byte + 3072 pixel bytes (channel-planar R, G, B,
    row-major). Pixels are scaled to [0, 1]. Returns (images [n,32,32,3],
    labels [n] in {0, 1}) with label 0 for keep_classes[0].
    """
    if len(keep_classes) != 2 or keep_classes[0] == keep_classes[1]:
        raise InvalidParameterError(f"keep_classes must be two distinct ids, got {keep_classes}")
    for c in keep_classes:
        if not 0 <= c <= 9:
            raise InvalidParameterError(f"CIFAR-10 label id out of range: {c}")
    raw = bytes(raw)
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        raise FormatError(
            f"stream length {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}"
        )
    n_rec = len(raw) // CIFAR_RECORD_BYTES
    data = np.frombuffer(raw, dtype=np.uint8).reshape(n_rec, CIFAR_RECORD_BYTES)
    labels_raw = data[:, 0]
    mask = (labels_raw == keep_classes[0]) | (labels_raw == keep_classes[1])
    kept = data[mask]
    # channel-planar -> [n, 32, 32, 3]
    pixels = kept[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    images = pixels.astype(np.float64) / 255.0
    labels = (kept[:, 0] == keep_classes[1]).astype(np.int64)
    return images, labels
