"""Structural tests: unfolding, folding, the data constraint, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tensorfill.errors import InputError
from tensorfill.tensor import (
    apply_constraint,
    check_mask,
    check_tensor,
    fold,
    unfold,
)


def _digits_tensor():
    """2x2x2 tensor with entry 100(i+1) + 10(j+1) + (k+1)."""
    x = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                x[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    return x


def test_unfold_mode0_worked_example():
    expected = np.array([[111.0, 121.0, 112.0, 122.0], [211.0, 221.0, 212.0, 222.0]])
    np.testing.assert_array_equal(unfold(_digits_tensor(), 0), expected)


def test_unfold_mode1_worked_example():
    expected = np.array([[111.0, 211.0, 112.0, 212.0], [121.0, 221.0, 122.0, 222.0]])
    np.testing.assert_array_equal(unfold(_digits_tensor(), 1), expected)


def test_unfold_mode2_worked_example():
    expected = np.array([[111.0, 211.0, 121.0, 221.0], [112.0, 212.0, 122.0, 222.0]])
    np.testing.assert_array_equal(unfold(_digits_tensor(), 2), expected)


def test_unfold_shapes():
    x = np.zeros((3, 4, 5))
    assert unfold(x, 0).shape == (3, 20)
    assert unfold(x, 1).shape == (4, 15)
    assert unfold(x, 2).shape == (5, 12)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=3, max_dims=3, max_side=5),
        elements=st.floats(-1e6, 1e6),
    ),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_fold_unfold_roundtrip(x, mode):
    np.testing.assert_array_equal(fold(unfold(x, mode), mode, x.shape), x)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=3, max_dims=3, max_side=5),
        elements=st.floats(-1e6, 1e6),
    ),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_unfold_preserves_frobenius_norm(x, mode):
    assert np.linalg.norm(unfold(x, mode)) == pytest.approx(np.linalg.norm(x.ravel()), rel=1e-12, abs=1e-12)


def test_unfold_rejects_bad_mode():
    x = np.zeros((2, 2, 2))
    with pytest.raises(InputError):
        unfold(x, 3)
    with pytest.raises(InputError):
        unfold(x, -1)


def test_check_tensor_rejects_wrong_ndim():
    with pytest.raises(InputError):
        check_tensor(np.zeros((2, 2)), "x")


def test_check_tensor_rejects_non_finite():
    x = np.zeros((2, 2, 2))
    x[0, 0, 0] = np.nan
    with pytest.raises(InputError):
        check_tensor(x, "x")


def test_check_mask_rejects_non_binary():
    mask = np.full((2, 2, 2), 0.5)
    with pytest.raises(InputError):
        check_mask(mask, (2, 2, 2))


def test_check_mask_rejects_shape_mismatch():
    with pytest.raises(InputError):
        check_mask(np.ones((2, 2, 2)), (2, 2, 3))


def test_apply_constraint_sets_observed_keeps_missing():
    rng = np.random.default_rng(11)
    y_obs = rng.normal(size=(3, 4, 2))
    m = rng.normal(size=(3, 4, 2))
    mask = (rng.uniform(size=(3, 4, 2)) < 0.5).astype(float)
    y_obs = y_obs * mask
    out = apply_constraint(m, y_obs, mask)
    np.testing.assert_array_equal(out[mask == 1.0], y_obs[mask == 1.0])
    np.testing.assert_array_equal(out[mask == 0.0], m[mask == 0.0])
