"""Structural tests: unfolding, folding, the data constraint, validation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tensorfill import (
    CorruptionSpec,
    LogRule,
    SolverConfig,
    SyntheticSpec,
    TruncatedRule,
    anomaly_score,
    complete,
    corrupt,
    nm_mask,
    rm_mask,
    soft_threshold,
    synthesize,
)
from tensorfill.errors import InputError, UsageError
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


def test_fold_rejects_bad_mode():
    with pytest.raises(InputError, match="mode must be 0, 1, or 2"):
        fold(np.zeros((2, 4)), 3, (2, 2, 2))


def test_check_tensor_rejects_wrong_ndim():
    with pytest.raises(InputError):
        check_tensor(np.zeros((2, 2)), "x")


def test_check_tensor_rejects_non_finite():
    x = np.zeros((2, 2, 2))
    x[0, 0, 0] = np.nan
    with pytest.raises(InputError):
        check_tensor(x, "x")


def test_check_tensor_rejects_complex_and_non_numeric():
    with pytest.raises(InputError, match="not real"):
        check_tensor(np.array([[[1 + 2j]]]))
    with pytest.raises(InputError, match="not numeric"):
        check_tensor(np.array([[["a"]]]))


def test_check_mask_rejects_non_binary():
    for value in (0.5, 2, -1, np.nan, np.inf):
        with pytest.raises(InputError, match="0 or 1"):
            check_mask(np.full((2, 2, 2), value), (2, 2, 2))


@pytest.mark.parametrize("mask", [np.array([[[1 + 1j]]]), np.array([[["a"]]]),
                                  np.array([[[1]]], dtype=object)],
                         ids=["complex", "string", "object"])
def test_check_mask_rejects_complex_and_non_numeric(mask):
    with pytest.raises(InputError, match="bool, integer or real"):
        check_mask(mask)


def test_check_mask_returns_bool():
    """A bool mask is returned as is; integer and real 0/1 masks (-0.0
    included) become the same bool mask."""
    flags = np.random.default_rng(3).uniform(size=(3, 4, 2)) < 0.5
    assert check_mask(flags, (3, 4, 2)) is flags
    for dtype in (np.uint8, np.int64, np.float32, np.float64):
        out = check_mask(flags.astype(dtype), (3, 4, 2))
        assert out.dtype == np.bool_
        np.testing.assert_array_equal(out, flags)
    assert not check_mask(np.full((1, 1, 2), -0.0)).any()


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


# Every scalar parameter of the public constructors and functions, each
# called with one JSON-like value and then used on a tiny input: a 2x2x2
# tensor, a short spectrum, or a 2-iteration solve (tol 1e300 ends a solve
# with a large max_iters at its second iteration too).
Y = np.arange(1.0, 9.0).reshape(2, 2, 2)
MASK = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0]).reshape(2, 2, 2)
SIGMA = np.array([4.0, 2.0, 1.0, 0.0])


def _solve(**fields):
    cfg = SolverConfig(**{"method": "rtcpfnc", "max_iters": 2, "tol": 1e300, **fields})
    complete(Y, MASK, cfg)


def _use_rule(rule):
    rule.thresholds(SIGMA, SIGMA[::-1])
    rule.penalty(SIGMA)


PARAMETERS = {
    "SolverConfig.method": lambda v: _solve(method=v),
    "SolverConfig.rho": lambda v: _solve(rho=v),
    "SolverConfig.lam": lambda v: _solve(lam=v),
    "SolverConfig.tol": lambda v: _solve(tol=v),
    "SolverConfig.max_iters": lambda v: _solve(max_iters=v),
    "SolverConfig.truncation_rate": lambda v: _solve(method="tnn", truncation_rate=v),
    "LogRule.tau": lambda v: _use_rule(LogRule(v)),
    "TruncatedRule.tau": lambda v: _use_rule(TruncatedRule(v)),
    "TruncatedRule.r": lambda v: _use_rule(TruncatedRule(1.0, v)),
    "SyntheticSpec.rank": lambda v: synthesize(SyntheticSpec((3, 3, 3), v)),
    "SyntheticSpec.noise_sigma": lambda v: synthesize(SyntheticSpec((3, 3, 3), 1, v)),
    "SyntheticSpec.seed": lambda v: synthesize(SyntheticSpec((3, 3, 3), 1, 0.1, v)),
    "CorruptionSpec.gamma": lambda v: corrupt(Y, MASK, CorruptionSpec(v, 1.0, 0)),
    "CorruptionSpec.s": lambda v: corrupt(Y, MASK, CorruptionSpec(0.5, v, 0)),
    "CorruptionSpec.seed": lambda v: corrupt(Y, MASK, CorruptionSpec(0.5, 1.0, v)),
    "rm_mask.missing_rate": lambda v: rm_mask((2, 2, 2), v, 0),
    "rm_mask.seed": lambda v: rm_mask((2, 2, 2), 0.5, v),
    "nm_mask.missing_rate": lambda v: nm_mask((2, 2, 2), v, 0),
    "nm_mask.seed": lambda v: nm_mask((2, 2, 2), 0.5, v),
    "soft_threshold.kappa": lambda v: soft_threshold(Y, v),
    "anomaly_score.threshold": lambda v: anomaly_score(Y, MASK, v),
}
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6))


@pytest.mark.parametrize("parameter", sorted(PARAMETERS))
@given(value=JSON_SCALARS)
@example(value=-0.0)
@example(value=0.0)  # LogRule.tau: a zero tau thresholds nothing
@example(value=5e-324)  # SolverConfig.rho: WEIGHT / rho overflows
@example(value=1.7976931348623157e308)  # LogRule.tau: tau / epsilon overflows
@settings(max_examples=60, deadline=None)
def test_every_parameter_is_accepted_or_a_usage_error(parameter, value):
    """Any value is either rejected with UsageError or works; a bool or a
    NaN or infinite float is never accepted."""
    try:
        PARAMETERS[parameter](value)
    except UsageError:
        return
    never_valid = isinstance(value, bool) or (
        isinstance(value, float) and not math.isfinite(value)
    )
    assert not never_valid, f"{parameter} accepted {value!r}"
