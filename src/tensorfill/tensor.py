"""Dense third-order tensor primitives: unfolding, folding, and the data constraint.

The mode-k unfolding of ``x`` with shape ``(n1, n2, n3)`` is the matrix whose
rows are indexed by mode k and whose columns enumerate the remaining two modes
with the lower-numbered mode varying fastest.  Folding is the exact inverse.
"""

import numpy as np

from .errors import InputError


def check_tensor(x, name="tensor"):
    """Validate a dense third-order tensor and return it as float64.

    Raises InputError if ``x`` is not 3-D, cannot be cast to float, or
    contains non-finite values.
    """
    arr = np.asarray(x)
    if arr.ndim != 3:
        raise InputError(f"{name} must be 3-D, got {arr.ndim}-D")
    try:
        arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not numeric: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    return arr


def check_mask(mask, shape=None, name="mask"):
    """Validate a binary mask tensor and return it as float64 of 0s and 1s."""
    arr = np.asarray(mask)
    if arr.ndim != 3:
        raise InputError(f"{name} must be 3-D, got {arr.ndim}-D")
    arr = arr.astype(np.float64, copy=False)
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise InputError(f"{name} entries must be 0 or 1")
    if shape is not None and arr.shape != tuple(shape):
        raise InputError(
            f"{name} shape {arr.shape} does not match tensor shape {tuple(shape)}"
        )
    return arr


def unfold(x, mode):
    """Mode-k unfolding of a third-order tensor.

    Returns a matrix of shape ``(x.shape[mode], prod(other dims))`` whose
    columns enumerate the non-mode indices with the lower-numbered mode
    varying fastest.
    """
    if mode not in (0, 1, 2):
        raise InputError(f"mode must be 0, 1, or 2, got {mode}")
    return np.moveaxis(x, mode, 0).reshape(x.shape[mode], -1, order="F")


def fold(m, mode, shape):
    """Inverse of :func:`unfold`: rebuild the tensor of ``shape`` from mode-k form."""
    if mode not in (0, 1, 2):
        raise InputError(f"mode must be 0, 1, or 2, got {mode}")
    shape = tuple(shape)
    moved = (shape[mode],) + tuple(s for i, s in enumerate(shape) if i != mode)
    return np.moveaxis(np.asarray(m).reshape(moved, order="F"), 0, mode)


def apply_constraint(m, y, mask):
    """Overwrite the observed entries of ``m`` with those of ``y``.

    Computes ``P_omega(y) + P_omega_perp(m)`` without modifying inputs.
    """
    return y * mask + m * (1.0 - mask)
