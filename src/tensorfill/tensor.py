"""Dense third-order tensor primitives: unfolding, folding, the data
constraint, and the checks every module uses: of tensors and masks
(InputError), and of each scalar parameter and of tensor dims (UsageError,
:func:`check_scalar` and :func:`check_dims`).

The mode-k unfolding of ``x`` with shape ``(n1, n2, n3)`` is the matrix whose
rows are indexed by mode k and whose columns enumerate the remaining two modes
with the lower-numbered mode varying fastest.  Folding is the exact inverse.
"""

import math
import numbers

import numpy as np

from .errors import InputError, UsageError


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


def check_scalar(name, value, low, high=math.inf, *, integer=False,
                 open_low=False, open_high=False):
    """Return ``value`` if it is a finite real number, an integer when
    ``integer``, and never a bool, inside the interval from ``low`` to
    ``high`` (each end closed unless ``open_low``/``open_high``); raise
    UsageError otherwise."""
    if not (
        isinstance(value, numbers.Integral if integer else numbers.Real)
        and not isinstance(value, bool)
        and -math.inf < value < math.inf
        and (low < value if open_low else low <= value)
        and (value < high if open_high else value <= high)
    ):
        interval = (f"{'(' if open_low else '['}{low:g}, {high:g}"
                    f"{')' if open_high or high == math.inf else ']'}")
        kind = "an integer" if integer else "a finite number"
        raise UsageError(f"{name} must be {kind} in {interval}, got {value!r}")
    return value


def check_dims(dims):
    """Return ``dims``, a tuple or list of three integers >= 1 (never
    bools), as a tuple; raise UsageError otherwise."""
    if not isinstance(dims, (tuple, list)) or len(dims) != 3:
        raise UsageError(f"dims must be three integers >= 1, got {dims!r}")
    return tuple(int(check_scalar("dims entry", d, 1, integer=True)) for d in dims)


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
