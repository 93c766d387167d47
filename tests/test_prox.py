"""Proximal-operator tests: minimizer oracles, shrinkage laws, thresholds.

Each rule is exercised through the one kernel, ``apply_shrinkage(z, rule)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tensorfill.errors import NumericError, UsageError
from tensorfill.prox import (
    DEFAULT_EPSILON,
    LogRule,
    TruncatedRule,
    apply_shrinkage,
    log_weights,
    soft_threshold,
    svd,
)
from tensorfill.solvers import RULES


def weighted_objective(x, z, weights, tau):
    """tau * sum_i w_i sigma_i(x) + 0.5 ||x - z||_F^2, the prox objective."""
    sigma = np.linalg.svd(x, compute_uv=False)
    return tau * float(np.sum(weights * sigma)) + 0.5 * float(np.sum((x - z) ** 2))


def test_weighted_svt_beats_random_perturbations():
    """The output is a minimizer: every perturbed candidate scores worse."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        z = rng.normal(scale=3.0, size=(6, 8))
        tau = float(rng.uniform(0.5, 4.0))
        weights = log_weights(np.linalg.svd(z, compute_uv=False), DEFAULT_EPSILON)
        out, _ = apply_shrinkage(z, LogRule(tau))
        best = weighted_objective(out, z, weights, tau)
        for _ in range(50):
            scale = 10.0 ** rng.uniform(-3, 0)
            candidate = out + scale * rng.normal(size=out.shape)
            assert weighted_objective(candidate, z, weights, tau) >= best - 1e-9


def test_weighted_svt_beats_plain_candidates():
    rng = np.random.default_rng(1)
    z = rng.normal(scale=2.0, size=(5, 7))
    tau = 1.5
    weights = log_weights(np.linalg.svd(z, compute_uv=False), DEFAULT_EPSILON)
    out, _ = apply_shrinkage(z, LogRule(tau))
    best = weighted_objective(out, z, weights, tau)
    for candidate in (z, np.zeros_like(z), apply_shrinkage(z, TruncatedRule(tau))[0]):
        assert best <= weighted_objective(candidate, z, weights, tau) + 1e-9


def test_scalar_shrinkage_matches_grid_search():
    """Per singular value: argmin_{x>=0} tau*w*x + (x-sigma)^2/2."""
    grid = np.arange(0.0, 12.0, 1e-4)
    for sigma, tau_w in ((5.0, 1.0), (2.0, 2.5), (0.7, 1.2), (4.0, 0.05)):
        cost = tau_w * grid + 0.5 * (grid - sigma) ** 2
        best = grid[np.argmin(cost)]
        closed = max(sigma - tau_w, 0.0)
        assert best == pytest.approx(closed, abs=1e-3)


def test_weighted_svt_first_iteration_uses_input_spectrum():
    rng = np.random.default_rng(2)
    z = rng.normal(scale=4.0, size=(6, 6))
    tau = 2.0
    sigma_z = np.linalg.svd(z, compute_uv=False)
    expected = np.maximum(sigma_z - tau / (sigma_z + DEFAULT_EPSILON), 0.0)
    _, shrunk = apply_shrinkage(z, LogRule(tau))
    np.testing.assert_allclose(shrunk, expected, rtol=1e-10, atol=1e-12)


def test_weighted_svt_previous_spectrum_sets_thresholds():
    rng = np.random.default_rng(3)
    z = rng.normal(scale=4.0, size=(6, 6))
    tau = 2.0
    sigma_prev = np.array([9.0, 4.0, 1.0, 0.5, 0.0, 0.0])
    sigma_z = np.linalg.svd(z, compute_uv=False)
    expected = np.maximum(sigma_z - tau / (sigma_prev + DEFAULT_EPSILON), 0.0)
    _, shrunk = apply_shrinkage(z, LogRule(tau), sigma_prev)
    np.testing.assert_allclose(shrunk, expected, rtol=1e-10, atol=1e-12)


def test_zeroed_singular_value_stays_locked():
    """A zero in the previous spectrum yields a huge threshold forever."""
    sigma_prev = np.array([10.0, 0.0])
    thresholds = LogRule(1.0).thresholds(np.array([10.0, 5.0]), sigma_prev)
    assert thresholds[1] == pytest.approx(1.0 / DEFAULT_EPSILON)


@given(
    hnp.arrays(np.float64, (5, 6), elements=st.floats(-50, 50)),
    st.floats(0.1, 10.0),
)
@settings(max_examples=40, deadline=None)
def test_weighted_svt_output_spectrum_descending(z, tau):
    _, shrunk = apply_shrinkage(z, LogRule(tau))
    assert np.all(np.diff(shrunk) <= 1e-9)
    assert np.all(shrunk >= 0.0)


def test_plain_svt_closed_form():
    u = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 4)))[0]
    v = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
    z = u @ np.diag([5.0, 3.0, 1.0, 0.2]) @ v.T
    out, shrunk = apply_shrinkage(z, TruncatedRule(2.0))
    np.testing.assert_allclose(shrunk, [3.0, 1.0, 0.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(out, u @ np.diag([3.0, 1.0, 0.0, 0.0]) @ v.T, atol=1e-9)


@given(
    hnp.arrays(np.float64, (4, 7), elements=st.floats(-20, 20)),
    st.floats(0.05, 5.0),
)
@settings(max_examples=40, deadline=None)
def test_plain_svt_monotone_shrinkage(z, tau):
    sigma_in = np.linalg.svd(z, compute_uv=False)
    _, shrunk = apply_shrinkage(z, TruncatedRule(tau))
    assert np.all(shrunk <= sigma_in + 1e-9)
    np.testing.assert_allclose(shrunk, np.maximum(sigma_in - tau, 0.0), atol=1e-9)


def test_truncated_svt_spares_top_singular_values():
    rng = np.random.default_rng(6)
    z = rng.normal(scale=3.0, size=(6, 6))
    sigma_in = np.linalg.svd(z, compute_uv=False)
    _, shrunk = apply_shrinkage(z, TruncatedRule(1.0, 2))
    np.testing.assert_allclose(shrunk[:2], sigma_in[:2], rtol=1e-10)
    np.testing.assert_allclose(shrunk[2:], np.maximum(sigma_in[2:] - 1.0, 0.0), atol=1e-9)


def test_truncated_svt_rank_zero_equals_plain():
    """The table's tnn rule with r = 0 is the halrtc rule."""
    rng = np.random.default_rng(7)
    z = rng.normal(size=(5, 4))
    tnn = RULES["tnn"](0.8, 0)
    plain = RULES["halrtc"](0.8, 2)
    out_t, shrunk_t = apply_shrinkage(z, tnn)
    out_p, shrunk_p = apply_shrinkage(z, plain)
    np.testing.assert_array_equal(out_t, out_p)
    np.testing.assert_array_equal(shrunk_t, shrunk_p)
    assert tnn.penalty(shrunk_t) == plain.penalty(shrunk_p)


def test_truncated_svt_rejects_full_truncation():
    z = np.zeros((4, 5))
    with pytest.raises(UsageError):
        apply_shrinkage(z, TruncatedRule(1.0, 4))


def test_soft_threshold_worked_values():
    h = np.array([3.0, -3.0, 0.5, -0.2, 0.0])
    np.testing.assert_allclose(
        soft_threshold(h, 1.0), [2.0, -2.0, 0.0, 0.0, 0.0], atol=1e-15
    )


def test_soft_threshold_non_expansive_on_random_pairs():
    rng = np.random.default_rng(8)
    a = rng.normal(scale=5.0, size=1000)
    b = rng.normal(scale=5.0, size=1000)
    kappa = 0.7
    assert np.all(
        np.abs(soft_threshold(a, kappa) - soft_threshold(b, kappa))
        <= np.abs(a - b) + 1e-12
    )


@given(st.floats(-100, 100), st.floats(0, 10))
@settings(max_examples=80, deadline=None)
def test_soft_threshold_moves_at_most_kappa(value, kappa):
    out = float(soft_threshold(np.array([value]), kappa)[0])
    assert abs(out - value) <= kappa + 1e-12


def test_log_weights_reciprocal():
    sigma = np.array([4.0, 1.0, 0.0])
    np.testing.assert_allclose(
        log_weights(sigma, 1e-6),
        [1.0 / 4.000001, 1.0 / 1.000001, 1.0 / 1e-6],
        rtol=1e-12,
    )


def test_log_surrogate_matches_direct_sum():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(5, 3))
    sigma = np.linalg.svd(z, compute_uv=False)
    assert LogRule(2.0).penalty(sigma) == pytest.approx(
        float(np.sum(np.log(sigma + DEFAULT_EPSILON))))


def test_truncated_penalty_skips_the_exempt_values():
    sigma = np.array([5.0, 3.0, 1.0, 0.5])
    assert TruncatedRule(2.0, 2).penalty(sigma) == 1.5
    assert TruncatedRule(2.0).penalty(sigma) == 9.5


def test_svd_reconstructs_and_rejects_non_finite():
    rng = np.random.default_rng(10)
    z = rng.normal(size=(4, 6))
    u, sigma, vt = svd(z)
    np.testing.assert_allclose((u * sigma) @ vt, z, atol=1e-10)
    bad = z.copy()
    bad[0, 0] = np.inf
    with pytest.raises(NumericError):
        svd(bad)


def test_svd_non_convergence_is_numeric_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericError, match="^SVD did not converge: no convergence$"):
        svd(np.ones((3, 4)))


def test_rules_reject_invalid_parameters():
    for make in (
        lambda: LogRule(-1.0),
        lambda: LogRule(np.nan),
        lambda: TruncatedRule(-1.0),
        lambda: TruncatedRule(1.0, -1),
        lambda: LogRule(np.inf),
        lambda: TruncatedRule(1.0, r=1.5),
        lambda: TruncatedRule(1.0, r=True),
        lambda: soft_threshold(np.ones(2), np.nan),
    ):
        with pytest.raises(UsageError):
            make()


# The Gram-matrix kernel against the exact SVD.  Output matrices
# agree to KERNEL_ATOL * sigma_max (worst seen: 3.4e-15); so do the shrunk
# spectra of full-rank inputs.  On a rank-deficient input the zero singular
# values come out of the squared matrix as O(sqrt(eps) * sigma_max), hence
# the looser spectrum bound there; the matrix bound is unchanged.
KERNEL_ATOL = 1e-12
DEFICIENT_SIGMA_ATOL = 1e-7


def _exact_shrinkage(z, rule, sigma_prev=None):
    """(u * shrunk) @ vt from the exact thin SVD."""
    u, sigma, vt = svd(z)
    shrunk = np.maximum(sigma - rule.thresholds(sigma, sigma_prev), 0.0)
    return (u * shrunk) @ vt, shrunk


def _kernel_inputs():
    """Wide, tall and square inputs, full-rank and rank-deficient."""
    rng = np.random.default_rng(12)
    for shape in ((6, 8), (8, 6), (5, 5), (30, 336), (336, 30)):
        yield rng.normal(scale=3.0, size=shape), False
        low = rng.normal(size=(shape[0], 2)) @ rng.normal(size=(2, shape[1]))
        yield low, True


def _kernel_rules(kind, sigma):
    """Rules of ``kind`` that keep some components and zero others."""
    s1 = float(sigma[1])
    if kind == "plain":
        return [TruncatedRule(0.5 * s1), TruncatedRule(0.0)]
    if kind == "truncated":
        return [TruncatedRule(0.5 * s1, 1)]
    return [LogRule(0.5 * s1 * s1)]


@pytest.mark.parametrize("kind", ["plain", "log_weighted", "truncated"])
def test_apply_shrinkage_matches_exact_svd(kind):
    for z, deficient in _kernel_inputs():
        sigma = svd(z)[1]
        priors = [None, 1.1 * sigma] if kind == "log_weighted" else [None]
        for rule in _kernel_rules(kind, sigma):
            for sigma_prev in priors:
                out, shrunk = apply_shrinkage(z, rule, sigma_prev)
                ref, ref_shrunk = _exact_shrinkage(z, rule, sigma_prev)
                assert out.shape == z.shape
                np.testing.assert_allclose(out, ref, rtol=0, atol=KERNEL_ATOL * sigma[0])
                sigma_atol = DEFICIENT_SIGMA_ATOL if deficient else KERNEL_ATOL
                np.testing.assert_allclose(
                    shrunk, ref_shrunk, rtol=0, atol=sigma_atol * sigma[0]
                )


# The kernel forms its output as the one product (U_r D U_r^T) A over
# the r components it keeps of n.  TruncatedRule(0.0) keeps every nonzero
# component, so on a full-rank input the left factor has full rank; a
# threshold between singular values n/2 and n/2 + 1, and above the
# kernel's noise floor, keeps at most n/2, so the left factor has low
# rank.  On a rank-deficient input the rank decides.
RANKS = ["full", "low"]


def _rank_rule(rank, z):
    if rank == "full":
        return TruncatedRule(0.0)
    sigma = svd(z)[1]
    half = len(sigma) // 2
    return TruncatedRule(max(0.5 * float(sigma[half - 1] + sigma[half]),
                             1e-6 * float(sigma[0])))


def _assert_rank(rank, shrunk, deficient):
    """The rule kept more than half of the components at full rank and at
    most half at low rank; on a rank-deficient input only the low-rank
    rule is sure to."""
    if rank == "low" or not deficient:
        assert (2 * np.count_nonzero(shrunk) > len(shrunk)) == (rank == "full")


@pytest.mark.parametrize("rank", RANKS)
def test_apply_shrinkage_matches_exact_svd_at_full_and_low_rank(rank):
    for z, deficient in _kernel_inputs():
        sigma = svd(z)[1]
        rule = _rank_rule(rank, z)
        out, shrunk = apply_shrinkage(z, rule)
        ref, ref_shrunk = _exact_shrinkage(z, rule)
        _assert_rank(rank, shrunk, deficient)
        np.testing.assert_allclose(out, ref, rtol=0, atol=KERNEL_ATOL * sigma[0])
        sigma_atol = DEFICIENT_SIGMA_ATOL if deficient else KERNEL_ATOL
        np.testing.assert_allclose(shrunk, ref_shrunk, rtol=0,
                                   atol=sigma_atol * sigma[0])


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_apply_shrinkage_extreme_magnitudes_match_exact_svd(scale):
    """Squaring 1e+-200 would leave the floating-point range unscaled."""
    z = scale * np.random.default_rng(13).normal(size=(6, 9))
    sigma = svd(z)[1]
    rule = TruncatedRule(0.5 * float(sigma[1]), 1)
    out, shrunk = apply_shrinkage(z, rule)
    ref, ref_shrunk = _exact_shrinkage(z, rule)
    np.testing.assert_allclose(out, ref, rtol=0, atol=KERNEL_ATOL * sigma[0])
    np.testing.assert_allclose(shrunk, ref_shrunk, rtol=0, atol=KERNEL_ATOL * sigma[0])


def test_apply_shrinkage_never_divides_by_zero_singular_values():
    z = np.zeros((4, 6))
    z[0, 0], z[1, 1] = 3.0, 2.0
    rules = (TruncatedRule(0.0), TruncatedRule(1.0, 3), LogRule(1.0))
    with np.errstate(divide="raise", invalid="raise"):
        for rule in rules:
            out, shrunk = apply_shrinkage(z, rule)
            assert np.all(np.isfinite(out))
            np.testing.assert_array_equal(shrunk[2:], 0.0)
        out, shrunk = apply_shrinkage(np.zeros((5, 3)), rules[0])
    np.testing.assert_array_equal(out, 0.0)
    np.testing.assert_array_equal(shrunk, 0.0)


@pytest.mark.parametrize("sigma_prev", [[-0.5, 2.0, 1.0], [np.nan, 2.0, 1.0]])
def test_log_rule_rejects_a_negative_or_nan_prior_spectrum(sigma_prev):
    """A negative prior value would give a negative threshold, which grows
    a singular value (3 to 5 here); a spectrum is never negative."""
    with pytest.raises(UsageError, match="spectrum must be >= 0"):
        apply_shrinkage(np.diag([3.0, 2.0, 1.0]), LogRule(1.0), sigma_prev)


def test_log_rule_rejects_a_prior_spectrum_of_another_length():
    with pytest.raises(UsageError, match="length 3 does not match spectrum size 4"):
        apply_shrinkage(np.ones((4, 6)), LogRule(1.0), sigma_prev=np.ones(3))


def test_zero_tau_log_rule_thresholds_nothing():
    """A zero tau gives zero thresholds, so the kernel keeps the spectrum."""
    rule = LogRule(0.0)
    sigma = np.array([3.0, 2.0, 0.0])
    np.testing.assert_array_equal(rule.thresholds(sigma), 0.0)
    np.testing.assert_array_equal(rule.thresholds(sigma, sigma[::-1]), 0.0)
    z = np.zeros((3, 5))
    z[0, 0], z[1, 1] = 3.0, 2.0
    out, shrunk = apply_shrinkage(z, rule)
    np.testing.assert_array_equal(shrunk, sigma)
    np.testing.assert_array_equal(out, z)


def test_apply_shrinkage_numeric_errors(monkeypatch):
    """Non-finite input is refused before the eigensolver runs, and an
    eigensolver failure surfaces as NumericError."""
    rule = TruncatedRule(1.0)

    def not_reached(_):
        raise AssertionError("eigh ran on non-finite input")

    monkeypatch.setattr(np.linalg, "eigh", not_reached)
    for bad in (np.nan, np.inf, -np.inf):
        z = np.ones((3, 4))
        z[1, 2] = bad
        with pytest.raises(NumericError):
            apply_shrinkage(z, rule)

    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NumericError, match="did not converge"):
        apply_shrinkage(np.ones((3, 4)), rule)


def _workspace_input(shape, order, deficient, scale=1.0):
    rng = np.random.default_rng(14)
    if deficient:
        z = rng.normal(size=(shape[0], 2)) @ rng.normal(size=(2, shape[1]))
    else:
        z = rng.uniform(-1.0, 1.0, size=shape)
    return np.asarray(scale * z, order=order)


@pytest.mark.parametrize("shape", [(6, 40), (40, 6)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_shrinkage_workspace_gives_the_same_bits(shape, order):
    """A caller's workspace, larger than needed and holding stale values,
    changes no bit of the output: with or without it the kernel runs the
    same code, and the output is a C-ordered view of the first workspace
    buffer, whatever the input's order, at full and low rank.  The product
    writes only the first buffer, so the second still holds the scaled
    input, in C order, after it.  Each case runs both rules on a full-rank
    and a rank-deficient input."""
    for deficient in (False, True):
        for rank in RANKS:
            z = _workspace_input(shape, order, deficient)
            rule = _rank_rule(rank, z)
            work = (np.full(z.size + 7, np.nan), np.full(z.size + 7, np.nan))
            out, shrunk = apply_shrinkage(z, rule)
            out_w, shrunk_w = apply_shrinkage(z, rule, None, work)
            _assert_rank(rank, shrunk, deficient)
            assert 0 < np.count_nonzero(shrunk)
            np.testing.assert_array_equal(out_w, out)
            np.testing.assert_array_equal(shrunk_w, shrunk)
            assert out_w.flags.c_contiguous
            assert np.shares_memory(out_w, work[0])
            assert not np.shares_memory(out_w, z)
            # z scaled to a peak in [1, 2), in C order
            scaled = np.ldexp(z, 1 - int(np.frexp(np.max(np.abs(z)))[1]))
            held = work[1][: z.size].reshape(shape)
            assert held.tobytes() == scaled.tobytes()


@pytest.mark.parametrize("peak", [1e-3, 1.0, 1e300])
@pytest.mark.parametrize("shape", [(6, 40), (40, 6)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_in_place_kernel_gives_the_bytes_of_the_public_path(shape, order, peak):
    """The two-buffer path of the solver loop: with z a view of work[1],
    the output, in the scale of z, is formed in work[0] with the bytes of
    the public path, at full and low rank.  The kernel scales z in place
    when it is the C view of work[1], as the loop's inputs are; a Fortran
    view shares the memory but not the layout.  Each case runs both rules
    on a full-rank and a rank-deficient input."""
    for deficient in (False, True):
        for rank in RANKS:
            z = _workspace_input(shape, order, deficient, peak)
            rule = _rank_rule(rank, z)
            out, shrunk = apply_shrinkage(z, rule)
            a, o = np.full(z.size, np.nan), np.full(z.size, np.nan)
            view = a.reshape(shape, order=order)
            view[...] = z
            mat, shrunk_p = apply_shrinkage(view, rule, None, (o, a))
            _assert_rank(rank, shrunk, deficient)
            assert np.shares_memory(mat, o)
            assert not np.shares_memory(mat, a)
            assert mat.tobytes() == out.tobytes()
            assert shrunk_p.tobytes() == shrunk.tobytes()


@pytest.mark.parametrize("shape", [(6, 40), (40, 6)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_submitted_product_runs_only_when_called(shape, order):
    """With ``submit``, the call returns the spectrum and hands over the
    output product without running it: the first buffer is untouched until
    the product runs, and then holds the bytes of the plain call, at full
    and low rank, on a full-rank and a rank-deficient input."""
    for deficient in (False, True):
        for rank in RANKS:
            z = _workspace_input(shape, order, deficient)
            rule = _rank_rule(rank, z)
            out, shrunk = apply_shrinkage(z, rule)
            a, o = np.full(z.size, np.nan), np.full(z.size, np.nan)
            view = a.reshape(shape, order=order)
            view[...] = z
            queued = []
            mat, shrunk_s = apply_shrinkage(view, rule, None, (o, a),
                                            submit=queued.append)
            _assert_rank(rank, shrunk, deficient)
            assert shrunk_s.tobytes() == shrunk.tobytes()
            assert len(queued) == 1 and np.all(np.isnan(o))
            queued[0]()
            assert mat.tobytes() == out.tobytes()


@pytest.mark.parametrize("tall", [False, True])
def test_unshrunk_component_at_the_largest_peak_stays_finite(tall):
    """At max|z| of 1.5e308 the scaling exponent is 1023, the largest there
    is, and an exempt component along a coordinate axis gives a left-factor
    entry of 1: the kernel must not form 2**1024 on the way back to the
    scale of z."""
    rng = np.random.default_rng(16)
    z = np.zeros((3, 5))
    z[0, 0] = 1.5e308
    z[1:, 1:] = 1e306 * rng.uniform(-1.0, 1.0, size=(2, 4))
    if tall:
        z = z.T
    rule = TruncatedRule(1e305, 1)
    out, shrunk = apply_shrinkage(z, rule)
    # the exact prox, from the SVD of z / 2**1024 (exact: a power of two)
    u, sigma, vt = svd(np.ldexp(z, -1024))
    sigma = np.ldexp(sigma, 1024)
    expected_shrunk = np.maximum(sigma - rule.thresholds(sigma), 0.0)
    expected = np.ldexp((u * np.ldexp(expected_shrunk, -1024)) @ vt, 1024)
    assert np.all(np.isfinite(out))
    assert out[0, 0] == 1.5e308
    np.testing.assert_allclose(shrunk, expected_shrunk, rtol=1e-12)
    assert np.max(np.abs(out - expected)) <= 1e-12 * sigma[0]


@pytest.mark.parametrize("k", [-900, -300, -1, 1, 200, 900])
@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("shape", [(5, 12), (12, 5), (7, 7)])
def test_apply_shrinkage_is_power_of_two_scale_equivariant(shape, r, k):
    """Scaling z and tau by 2**k scales the output and the shrunk spectrum
    by 2**k, byte for byte: the kernel scales both inputs to the same
    matrix.  The log rule is left out, since its epsilon does not scale."""
    rng = np.random.default_rng(17)
    z = rng.uniform(-1.0, 1.0, size=shape)
    tau = float(svd(z)[1][2])
    out, shrunk = apply_shrinkage(z, TruncatedRule(tau, r))
    out_k, shrunk_k = apply_shrinkage(np.ldexp(z, k),
                                      TruncatedRule(np.ldexp(tau, k), r))
    assert out_k.tobytes() == np.ldexp(out, k).tobytes()
    assert shrunk_k.tobytes() == np.ldexp(shrunk, k).tobytes()
