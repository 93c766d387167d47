"""Solver tests: ADMM mechanics via iteration hooks, degeneracies, errors."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorfill import solvers
from tensorfill.datagen import SyntheticSpec, rm_mask, synthesize
from tensorfill.errors import InputError, NumericError, UsageError
from tensorfill.metrics import evaluate
from tensorfill.prox import (DEFAULT_EPSILON, LogRule, TruncatedRule,
                             apply_shrinkage, soft_threshold)
from tensorfill.solvers import (
    BLOCK,
    METHODS,
    WEIGHT,
    SolverConfig,
    _converged,
    complete,
    default_lambda,
)
from tensorfill.tensor import apply_constraint, fold, unfold


def _instance(seed, dims=(6, 6, 6), rank=2, missing=0.3):
    rng = np.random.default_rng(seed)
    y = np.zeros(dims)
    for _ in range(rank):
        y += np.einsum(
            "i,j,k->ijk",
            rng.uniform(1.0, 3.0, dims[0]),
            rng.uniform(1.0, 3.0, dims[1]),
            rng.uniform(1.0, 3.0, dims[2]),
        )
    mask = rm_mask(dims, missing, seed + 1000)
    return y, mask


def _collect(y, mask, cfg, n_iters):
    states = []
    cfg = SolverConfig(**{**cfg.__dict__, "max_iters": n_iters, "tol": 1e-30})
    result = complete(y * mask, mask, cfg, iter_hook=states.append)
    return result, states


@pytest.mark.parametrize("method", ["tcpfnc", "rtcpfnc"])
def test_constraint_preserved_bit_exactly_each_iteration(method):
    for seed in range(4):
        y, mask = _instance(seed)
        y_obs = y * mask
        cfg = SolverConfig(method, rho=1e-3, lam=1e-2)
        _, states = _collect(y, mask, cfg, 12)
        for state in states:
            np.testing.assert_array_equal(state.m * mask, y_obs * mask)


@pytest.mark.parametrize("method", ["tcpfnc", "rtcpfnc", "halrtc", "tnn"])
def test_multiplier_update_identity(method):
    y, mask = _instance(7)
    rho = 1e-3
    cfg = SolverConfig(method, rho=rho, lam=1e-2, truncation_rate=0.2)
    _, states = _collect(y, mask, cfg, 10)
    for prev, cur in zip(states, states[1:]):
        for k in range(3):
            residual = cur.lk[k] - cur.m
            if method == "rtcpfnc":
                residual = residual + cur.ek[k]
            np.testing.assert_allclose(
                cur.tk[k], prev.tk[k] + rho * residual, rtol=0, atol=1e-12
            )


@pytest.mark.parametrize("method", ["tcpfnc", "rtcpfnc"])
def test_aggregation_identity(method):
    """M before the data constraint is the mean of the mode estimates."""
    y, mask = _instance(3)
    rho = 1e-3
    cfg = SolverConfig(method, rho=rho, lam=1e-2)
    _, states = _collect(y, mask, cfg, 10)
    for prev, cur in zip(states, states[1:]):
        expected = sum(cur.lk) / 3.0 + sum(prev.tk) / (3.0 * rho)
        if method == "rtcpfnc":
            expected = expected + sum(prev.ek) / 3.0
        np.testing.assert_allclose(cur.m_pre_constraint, expected, atol=1e-12)


def test_m_closed_form_matches_bruteforce_quadratic():
    """Each entry of pre-constraint M minimizes the quadratic penalty sum."""
    y, mask = _instance(11, dims=(2, 2, 2), rank=1)
    rho = 1e-2
    cfg = SolverConfig("rtcpfnc", rho=rho, lam=1e-2)
    _, states = _collect(y, mask, cfg, 6)
    for prev, cur in zip(states, states[1:]):
        targets = [
            cur.lk[k] + prev.ek[k] + prev.tk[k] / rho for k in range(3)
        ]

        def penalty(m_val, idx):
            return sum(0.5 * rho * (t[idx] - m_val) ** 2 for t in targets)

        for idx in np.ndindex(2, 2, 2):
            g_m1, g_0, g_p1 = penalty(-1.0, idx), penalty(0.0, idx), penalty(1.0, idx)
            vertex = (g_m1 - g_p1) / (2.0 * (g_m1 - 2.0 * g_0 + g_p1))
            assert cur.m_pre_constraint[idx] == pytest.approx(vertex, abs=1e-8)


def test_anomaly_update_is_entrywise_prox():
    """E_k = soft_threshold(M - L_k - T_k/rho, lambda/rho), with stale T."""
    y, mask = _instance(5)
    rho, lam = 1e-3, 5e-3
    cfg = SolverConfig("rtcpfnc", rho=rho, lam=lam)
    _, states = _collect(y, mask, cfg, 8)
    for prev, cur in zip(states, states[1:]):
        for k in range(3):
            residual = cur.m - cur.lk[k] - prev.tk[k] / rho
            np.testing.assert_allclose(
                cur.ek[k], soft_threshold(residual, lam / rho), atol=1e-13
            )


def test_anomaly_entries_minimize_scalar_objective():
    """Perturbing any anomaly entry by +-0.01 cannot lower its objective."""
    y, mask = _instance(6)
    rho, lam = 1e-3, 5e-3
    kappa = lam / rho
    cfg = SolverConfig("rtcpfnc", rho=rho, lam=lam)
    _, states = _collect(y, mask, cfg, 8)
    prev, cur = states[-2], states[-1]
    rng = np.random.default_rng(0)
    residual = cur.m - cur.lk[0] - prev.tk[0] / rho

    def objective(e_val, idx):
        return kappa * abs(e_val) + 0.5 * (e_val - residual[idx]) ** 2

    flat_choices = rng.choice(residual.size, size=40, replace=False)
    for flat in flat_choices:
        idx = np.unravel_index(flat, residual.shape)
        base = objective(cur.ek[0][idx], idx)
        assert objective(cur.ek[0][idx] + 0.01, idx) >= base - 1e-12
        assert objective(cur.ek[0][idx] - 0.01, idx) >= base - 1e-12


def test_recovered_is_alpha_weighted_aggregate():
    """The recovered tensor is the equal-weight aggregate of the last mode
    estimates, summed in mode order."""
    y, mask = _instance(9)
    cfg = SolverConfig("tcpfnc", rho=1e-3)
    result, states = _collect(y, mask, cfg, 7)
    lk = states[-1].lk
    expected = (WEIGHT * lk[0] + WEIGHT * lk[1]) + WEIGHT * lk[2]
    assert result.recovered.tobytes() == expected.tobytes()


def test_anomaly_output_is_mean_of_mode_estimates():
    y, mask = _instance(10)
    cfg = SolverConfig("rtcpfnc", rho=1e-3, lam=5e-3)
    result, states = _collect(y, mask, cfg, 7)
    last = states[-1]
    np.testing.assert_array_equal(result.anomaly, sum(last.ek) / 3.0)


def test_solver_deterministic():
    y, mask = _instance(13)
    cfg = SolverConfig("rtcpfnc", rho=1e-3, lam=1e-2, max_iters=15)
    a = complete(y * mask, mask, cfg)
    b = complete(y * mask, mask, cfg)
    np.testing.assert_array_equal(a.recovered, b.recovered)
    np.testing.assert_array_equal(a.anomaly, b.anomaly)
    assert a.objective_history == b.objective_history


def test_noiseless_rank1_recovery_meets_frozen_threshold():
    y = synthesize(SyntheticSpec((8, 6, 5), 1, 0.0, 21))
    mask = rm_mask((8, 6, 5), 0.3, 22)
    result = complete(y, mask, SolverConfig("tcpfnc", rho=1e-3, tol=1e-10, max_iters=1000))
    report = evaluate(y, result.recovered, (1 - mask).astype(bool))
    assert result.converged
    assert report.rmse < 1e-3


def test_tnn_zero_truncation_matches_halrtc_exactly():
    y, mask = _instance(15)
    cfg_t = SolverConfig("tnn", rho=1e-3, max_iters=20, truncation_rate=0.0)
    cfg_h = SolverConfig("halrtc", rho=1e-3, max_iters=20)
    a = complete(y * mask, mask, cfg_t)
    b = complete(y * mask, mask, cfg_h)
    np.testing.assert_array_equal(a.recovered, b.recovered)
    assert a.objective_history == b.objective_history


def test_full_mask_constraint_forces_m_equal_input():
    y, _ = _instance(16)
    full = np.ones(y.shape)
    _, states = _collect(y, full, SolverConfig("tcpfnc", rho=1e-2), 5)
    for state in states:
        np.testing.assert_array_equal(state.m, y)


def test_non_finite_values_raise_numeric_error_with_iteration():
    y = np.full((2, 2, 2), 1.7e308)
    mask = np.ones((2, 2, 2))
    with pytest.raises(NumericError, match="iteration 1"):
        complete(y, mask, SolverConfig("tcpfnc", max_iters=5))


def test_empty_mask_rejected():
    y = np.ones((3, 3, 3))
    with pytest.raises(InputError):
        complete(y, np.zeros((3, 3, 3)), SolverConfig("tcpfnc"))


def test_two_dimensional_mask_rejected():
    with pytest.raises(InputError, match="mask must be 3-D"):
        complete(np.ones((3, 3, 3)), np.ones((3, 9)), SolverConfig("tcpfnc"))


def test_config_validation():
    with pytest.raises(UsageError):
        SolverConfig("nosuch")
    with pytest.raises(UsageError):
        SolverConfig("tcpfnc", rho=0.0)
    with pytest.raises(UsageError):
        SolverConfig("tcpfnc", tol=-1.0)
    with pytest.raises(UsageError):
        SolverConfig("tcpfnc", max_iters=0)
    with pytest.raises(UsageError):
        SolverConfig("rtcpfnc", lam=-1.0)
    with pytest.raises(UsageError):
        SolverConfig("tnn", truncation_rate=1.5)
    for value in (np.nan, np.inf, -np.inf):
        for bad in ({"rho": value}, {"tol": value}, {"lam": value}):
            with pytest.raises(UsageError):
                SolverConfig("rtcpfnc", **bad)
    for bad in ({"max_iters": 2.5}, {"max_iters": True},
                {"truncation_rate": 1.0}, {"rho": "fast"}):
        with pytest.raises(UsageError):
            SolverConfig("tnn", **bad)


def test_rho_too_small_for_a_finite_threshold_is_named():
    """WEIGHT / rho overflowing is reported in terms of rho."""
    y, mask = _instance(3)
    with pytest.raises(UsageError, match=r"rho=1e-310 is too small: alpha_k / rho"):
        complete(y, mask, SolverConfig("tcpfnc", rho=1e-310))
    # no step forms lam / rho, so a lam / rho that overflows is no error
    result = complete(y, mask, SolverConfig("rtcpfnc", rho=1e-300, lam=1e10))
    assert np.all(np.isfinite(result.recovered))
    assert np.all(np.isfinite(result.anomaly))
    # lam is unused outside the robust method
    complete(y, mask, SolverConfig("tcpfnc", rho=1e-300, lam=1e10, max_iters=1))


def test_config_refuses_a_rho_that_overflows_the_threshold():
    """The config itself refuses a rho for which WEIGHT / rho is not
    finite, so every reader of a config refuses it before solving."""
    with pytest.raises(UsageError, match=r"^rho=1e-310 is too small: "
                                         r"alpha_k / rho is not finite$"):
        SolverConfig("tcpfnc", rho=1e-310)
    SolverConfig("tcpfnc", rho=1e-300)


def test_default_lambda_formula():
    assert default_lambda((30, 24, 14)) == pytest.approx(1.0 / np.sqrt(24 * 14))
    assert default_lambda((400, 24, 14)) == pytest.approx(1.0 / np.sqrt(400))


def test_check_convergence_relative_change():
    assert not _converged([1.0], 1e-6)
    assert _converged([1.0, 1.0 + 1e-9], 1e-6)
    assert not _converged([1.0, 1.1], 1e-6)


@pytest.mark.xfail(strict=True, reason="the stop rule reads two zero "
                   "objectives as converged whatever tol is (ROADMAP item 3)")
def test_tnn_with_zeroed_tails_runs_to_its_cap():
    """Once tnn zeroes every mode's tail its penalty is exactly 0, while
    the exempt components still move.  No relative change of the objective
    is below 1e-300 there, so the solve should run to its cap; today it
    stops at iteration 9 on the criterion-4 desk instance of seed 0."""
    dims = (30, 24, 14)
    clean = synthesize(SyntheticSpec(dims, 3, 0.0, 0))
    y = synthesize(SyntheticSpec(dims, 3, 0.01 * clean.mean(), 0))
    mask = rm_mask(dims, 0.4, 1000)
    result = complete(y * mask, mask, SolverConfig(
        "tnn", rho=7e-4, tol=1e-300, max_iters=40, truncation_rate=0.3))
    assert result.iterations == 40


def test_max_iters_cap_reported_as_not_converged():
    y, mask = _instance(18)
    result = complete(y * mask, mask, SolverConfig("tcpfnc", rho=1e-3, max_iters=3, tol=1e-30))
    assert result.iterations == 3
    assert not result.converged


@pytest.mark.parametrize("method", METHODS)
def test_ranks_are_the_last_shrunk_spectra(monkeypatch, method):
    """``ranks`` counts the nonzero values of the spectrum each mode's last
    shrink returned, read off the state the loop keeps.  Each count is
    keyed by its mode, found from the shape of the input, since the loop
    does not run the modes in the order 0, 1, 2."""
    dims = (9, 8, 7)
    counts = {k: [] for k in range(3)}

    def counting(z, rule, sigma_prev=None, work=None, submit=None):
        mat, shrunk = apply_shrinkage(z, rule, sigma_prev, work, submit)
        (k,) = [k for k, n in enumerate(dims) if n in np.shape(z)]
        counts[k].append(np.count_nonzero(shrunk))
        return mat, shrunk

    monkeypatch.setattr(solvers, "apply_shrinkage", counting)
    y, mask = _instance(21, dims=dims)
    result = complete(y * mask, mask, SolverConfig(
        method, rho=1e-3, lam=1e-2, truncation_rate=0.3, tol=1e-30, max_iters=12))
    assert [len(c) for c in counts.values()] == [result.iterations] * 3
    assert result.ranks == tuple(c[-1] for c in counts.values())
    assert all(type(r) is int for r in result.ranks)
    assert 0 < min(result.ranks)


def _shrink_mode(z, k, rule, sigma_prev):
    """The mode-k update of ``complete``: modes 0 and 2 shrink C-order views
    of z, which are their unfoldings (mode 2's transposed) up to a
    permutation of the columns, and mode 1 the transpose of its unfolding,
    which is C-ordered as the loop's input is."""
    if k == 1:
        mat, sig = apply_shrinkage(unfold(z, 1).T, rule, sigma_prev)
        return fold(mat.T, 1, z.shape), sig
    view = z.reshape(z.shape[0], -1) if k == 0 else z.reshape(-1, z.shape[2])
    mat, sig = apply_shrinkage(view, rule, sigma_prev)
    return mat.reshape(z.shape), sig


def _unfolded_mode(z, k, rule, sigma_prev):
    """The mode-k update with the kernel on the mode-k unfolding itself, a
    Fortran-order matrix, where ``complete`` hands it C-order views."""
    mat, sig = apply_shrinkage(unfold(z, k), rule, sigma_prev)
    return fold(mat, k, z.shape), sig


def _clip_step(m, lk, tk, rho, lam):
    """The robust step 3 of ``complete``, in its order: v = T_k + rho (L_k -
    M) clipped to [-lam, lam] is the new T_k, rho E_k is what the clip
    removed, and U_k = T_k + rho E_k is (T_k - v) + T_k.  Returns the new
    U_k and T_k."""
    props = [(lk[k] - m) * rho + tk[k] for k in range(3)]
    tk = [np.clip(prop, -lam, lam) for prop in props]
    return [(t - prop) + t for t, prop in zip(tk, props)], tk


def _soft_threshold_step(m, lk, tk, rho, lam):
    """The robust step 3 as the paper writes it, and as the loop ran it
    before it became one clip: E_k = soft_threshold(M - L_k - T_k/rho,
    lam/rho) with the iteration-start T_k, then T_k + rho (L_k + E_k - M).
    Returns the new U_k = T_k + rho E_k and T_k."""
    ek = [soft_threshold(m - lk[k] - tk[k] / rho, lam / rho) for k in range(3)]
    tk = [tk[k] + rho * ((lk[k] - m) + ek[k]) for k in range(3)]
    return [t + rho * e for t, e in zip(tk, ek)], tk


def _reference_run(y, mask, cfg, shrink_mode=_shrink_mode,
                   robust_step=_clip_step):
    """Reference ADMM loop: the steps of the solvers module docstring with a
    fresh array for every intermediate and one list entry per mode, each
    mode updated by ``shrink_mode(z, k, rule, sigma_prev)`` and, robust
    only, U_k and T_k by ``robust_step(m, lk, tk, rho, lam)``."""
    dims = y.shape
    robust = cfg.method == "rtcpfnc"
    rho = cfg.rho
    lam = cfg.lam if cfg.lam is not None else default_lambda(dims)
    if cfg.method == "tnn":
        r = [min(round(cfg.truncation_rate * n), min(n, y.size // n) - 1)
             for n in dims]
    else:
        r = [0, 0, 0]
    if cfg.method in ("tcpfnc", "rtcpfnc"):
        rules = [LogRule(WEIGHT / rho) for _ in range(3)]
    else:
        rules = [TruncatedRule(WEIGHT / rho, r[k]) for k in range(3)]
    y_obs = y * mask
    m = y_obs.copy()
    lk = [np.zeros(dims) for _ in range(3)]
    tk = [np.zeros(dims) for _ in range(3)]
    uk = [np.zeros(dims) for _ in range(3)] if robust else tk
    sigma_prev = [None, None, None]
    history = []
    converged = False
    for it in range(1, cfg.max_iters + 1):
        sigmas = []
        for k in range(3):
            z = m - uk[k] / rho
            lk[k], sig = shrink_mode(z, k, rules[k], sigma_prev[k])
            sigmas.append(sig)
        sigma_prev = sigmas
        recovered = WEIGHT * lk[0] + WEIGHT * lk[1] + WEIGHT * lk[2]
        m_pre = (lk[0] + lk[1] + lk[2]) / 3.0
        m_pre = m_pre + (uk[0] + uk[1] + uk[2]) / (3.0 * rho)
        m = apply_constraint(m_pre, y_obs, mask)
        if robust:
            uk, tk = robust_step(m, lk, tk, rho, lam)
        else:
            tk = uk = [tk[k] + rho * (lk[k] - m) for k in range(3)]
        ek = [(u - t) / rho for u, t in zip(uk, tk)] if robust else None
        obj = 0.0
        for k, s in enumerate(sigmas):
            if cfg.method in ("tcpfnc", "rtcpfnc"):
                obj += WEIGHT * float(np.sum(np.log(s + DEFAULT_EPSILON)))
            elif cfg.method == "halrtc":
                obj += WEIGHT * float(np.sum(s))
            else:
                obj += WEIGHT * float(np.sum(s[r[k]:]))
        if robust:
            obj += lam * sum(float(np.sum(np.abs(e))) for e in ek)
        history.append(obj)
        if _converged(history, cfg.tol):
            converged = True
            break
    anomaly = (ek[0] + ek[1] + ek[2]) / 3.0 if robust else None
    return recovered, anomaly, it, converged, tuple(history)


def _outlier_instance(seed, dims):
    """Low-rank instance with a few large outliers on observed entries."""
    y, mask = _instance(seed, dims=dims)
    rng = np.random.default_rng(seed + 2000)
    observed = np.flatnonzero(mask)
    hit = rng.choice(observed, size=max(1, observed.size // 20), replace=False)
    y.flat[hit] += rng.choice([-40.0, 40.0], size=hit.size)
    return y, mask


def _assert_matches_reference(y, mask, cfg, iter_hook=None):
    result = complete(y * mask, mask, cfg, iter_hook)
    recovered, anomaly, iters, converged, history = _reference_run(
        y * mask, mask, cfg)
    # all zeros on both sides would compare no shrinkage at all
    assert np.any(recovered)
    np.testing.assert_array_equal(result.recovered, recovered)
    if anomaly is None:
        assert result.anomaly is None
    else:
        np.testing.assert_array_equal(result.anomaly, anomaly)
    assert result.objective_history == history
    assert result.iterations == iters
    assert result.converged == converged
    return result


# at lam = 1e-2 the robust solve clips in one mode only, at 1e-3 in all three
@pytest.mark.parametrize("method, lam", [
    *(pytest.param(method, 1e-2, id=method) for method in METHODS),
    pytest.param("rtcpfnc", 1e-3, id="rtcpfnc-lam1e-3"),
])
# the kernel's input is tall in mode 0 only at 20x3x2 (20x6), and wide in
# mode 1 only at 3x20x2 and in mode 2 only at 2x3x20 (6x20 each), so every
# mode takes both paths; at rho = 1e-3 halrtc zeroes every singular value
# of 20x3x2 and 2x3x20
@pytest.mark.parametrize("dims, rho", [
    pytest.param(dims, rho, id=f"dims{i}") for i, (dims, rho) in enumerate([
        ((9, 8, 7), 1e-3), ((20, 3, 2), 2e-3), ((3, 20, 2), 1e-3),
        ((2, 3, 20), 2e-3)])
])
def test_in_place_loop_is_bit_identical_to_reference(method, lam, dims, rho):
    y, mask = _outlier_instance(19, dims)
    cfg = SolverConfig(method, rho=rho, lam=lam, truncation_rate=0.3,
                       tol=1e-30, max_iters=25)
    clipped = set()

    def record_clips(state):
        if state.ek is not None:
            clipped.update(k for k in range(3) if np.any(state.ek[k]))

    _assert_matches_reference(y, mask, cfg, record_clips)
    if lam == 1e-3:
        assert clipped == {0, 1, 2}


@pytest.mark.parametrize("rho", [1e-3, 7e-4])
def test_robust_solve_that_never_clips_is_the_plain_solve(rho):
    """With lam above every multiplier the clip never acts, so U_k is T_k
    and every E_k is +0: rtcpfnc is tcpfnc bit for bit."""
    y, mask = _outlier_instance(19, (9, 8, 7))
    cfg = SolverConfig("tcpfnc", rho=rho, lam=1e6, tol=1e-30, max_iters=50)
    plain = complete(y * mask, mask, cfg)
    robust = complete(y * mask, mask, replace(cfg, method="rtcpfnc"))
    assert robust.recovered.tobytes() == plain.recovered.tobytes()
    assert robust.objective_history == plain.objective_history
    assert robust.iterations == plain.iterations == 50
    assert robust.anomaly.tobytes() == np.zeros(y.shape).tobytes()


# The instances of the reference-loop tests, with their sparsity weights
# and penalties: at rho = 1e-3 halrtc zeroes every singular value of
# 20x3x2.  Their ids name the seed, the dims and lam.
REFERENCE_INSTANCES = [(19, (9, 8, 7), 1e-2, 1e-3), (19, (20, 3, 2), 1e-2, 2e-3),
                       (24, (40, 30, 20), 1e-4, 1e-3)]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("seed, dims, lam, rho", [
    pytest.param(*inst, id=f"{inst[0]}-dims{i}-{inst[2]}")
    for i, inst in enumerate(REFERENCE_INSTANCES)
])
def test_complete_agrees_with_the_unfolded_loop(method, seed, dims, lam, rho):
    """The C-order views, the workspace, the mode order 1, 0, 2 and the
    robust step as one clip change rounding only: over 25 iterations
    ``complete`` stays within 1e-9 * max|X| of the loop that hands the
    kernel each mode's unfolding, runs the modes in the order 0, 1, 2 and
    runs the robust step as soft threshold and multiplier update.

    The tnn case at 40x30x20 agrees least, to a few 1e-10: its spectra
    pass close to ties during the 25 iterations, where rounding decides
    which side a value falls on.  In mode 0 the gap between sigma_r and
    sigma_{r+1} at the exemption boundary falls to 7.6e-4 of sigma_r, and
    in mode 2 one tail value comes within 5.5e-4 * tau of the threshold
    tau.  Every other case agrees to a few 1e-12."""
    y, mask = _outlier_instance(seed, dims)
    cfg = SolverConfig(method, rho=rho, lam=lam, truncation_rate=0.3,
                       tol=1e-30, max_iters=25)
    result = complete(y * mask, mask, cfg)
    recovered, anomaly, *_ = _reference_run(y * mask, mask, cfg,
                                            _unfolded_mode,
                                            _soft_threshold_step)
    pairs = [(result.recovered, recovered)]
    if method == "rtcpfnc":
        pairs.append((result.anomaly, anomaly))
    for got, want in pairs:
        # against all zeros the bound would read 0 <= 0
        assert np.any(want)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("rho, lam", [(1e-3, 1e-2), (1e-3, 5e-3), (5e-6, 1.5e-4)])
def test_robust_multipliers_stay_within_lambda(rho, lam):
    """Every multiplier is clipped to [-lam, lam], so max|T_k| <= lam holds
    exactly after every iteration; written as soft threshold and
    multiplier update, the step left some a few ulp above lam."""
    for seed in range(20):
        y, mask = _outlier_instance(seed, (9, 8, 7))
        _, states = _collect(y, mask, SolverConfig("rtcpfnc", rho=rho, lam=lam), 30)
        for state in states:
            for t in state.tk:
                assert np.max(np.abs(t)) <= lam


def test_in_place_loop_matches_reference_when_stopping_on_tol():
    y, mask = _instance(20, dims=(9, 8, 7))
    cfg = SolverConfig("halrtc", rho=1e-3, tol=1e-6, max_iters=2000)
    result = _assert_matches_reference(y, mask, cfg)
    assert result.converged and result.iterations < cfg.max_iters


@pytest.mark.parametrize("method", METHODS)
def test_blocked_workspace_loop_matches_reference(method):
    """40x30x20 is one full block of the elementwise steps and a partial
    one, and Fortran-ordered inputs (the layout the readers return) are
    laid out again in C order by the loop."""
    y, mask = _outlier_instance(24, (40, 30, 20))
    assert BLOCK < y.size < 2 * BLOCK
    cfg = SolverConfig(method, rho=1e-3, lam=1e-4, truncation_rate=0.3,
                       tol=1e-30, max_iters=15)
    result = _assert_matches_reference(
        np.asfortranarray(y), np.asfortranarray(mask), cfg)
    if method == "rtcpfnc":
        assert np.count_nonzero(result.anomaly) > 0


@pytest.mark.parametrize("method", METHODS)
def test_mask_dtype_does_not_change_the_solve(method):
    """A float64, an integer and a bool 0/1 mask give the same bytes: the
    recovered and anomaly tensors (signs of zeros included), the iteration
    count and the objective history."""
    y, mask = _outlier_instance(27, (9, 8, 7))
    assert mask.dtype == np.bool_
    y_obs = y * mask
    cfg = SolverConfig(method, rho=1e-3, lam=1e-2, truncation_rate=0.3,
                       tol=1e-30, max_iters=25)
    base = complete(y_obs, mask, cfg)
    for same in (mask.astype(np.float64), mask.astype(np.int64)):
        result = complete(y_obs, same, cfg)
        assert result.recovered.tobytes() == base.recovered.tobytes()
        if method == "rtcpfnc":
            assert result.anomaly.tobytes() == base.anomaly.tobytes()
        else:
            assert result.anomaly is None
        assert result.iterations == base.iterations
        assert result.objective_history == base.objective_history


@pytest.mark.parametrize("method, tensors",
                         [("halrtc", 9), ("tcpfnc", 9), ("rtcpfnc", 12)])
def test_solve_peak_memory_in_tensors(method, tensors):
    """At 120x96x60 a solve allocates nothing tensor-sized after set-up: its
    peak traced memory is the state (M, L_k, T_k, [E_k], and hidden and
    observed at one byte an entry) plus one workspace buffer, about 8.35
    tensors for halrtc and tcpfnc and 11.36 for rtcpfnc."""
    y, mask = _instance(25, dims=(120, 96, 60))
    observed = y * mask
    cfg = SolverConfig(method, rho=1e-3, tol=1e-30, max_iters=2)
    tracemalloc.start()
    try:
        complete(observed, mask, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tensors * observed.nbytes


@pytest.mark.parametrize("method", METHODS)
@given(seed=st.integers(0, 2**16), dims=st.tuples(*[st.integers(2, 7)] * 3),
       mask_dtype=st.sampled_from([np.bool_, np.uint8, np.float64]),
       y_dtype=st.sampled_from([np.float64, np.float32]),
       fortran=st.booleans())
@settings(max_examples=25, deadline=None, database=None)
def test_solve_leaves_inputs_alone_and_owns_its_outputs(
        method, seed, dims, mask_dtype, y_dtype, fortran):
    """The loop reuses its own buffers for the outputs: whatever the input
    dtypes and layout, ``y`` and ``mask`` keep their bytes, and neither
    ``recovered`` nor ``anomaly`` shares memory with them or each other."""
    y, mask = _outlier_instance(seed, dims)
    order = "F" if fortran else "C"
    y = np.array(y * mask, dtype=y_dtype, order=order)
    mask = np.array(mask, dtype=mask_dtype, order=order)
    y_bytes, mask_bytes = y.tobytes(), mask.tobytes()
    result = complete(y, mask, SolverConfig(
        method, rho=1e-3, lam=1e-2, truncation_rate=0.3, max_iters=4))
    assert y.tobytes() == y_bytes and mask.tobytes() == mask_bytes
    outputs = [result.recovered]
    if method == "rtcpfnc":
        outputs.append(result.anomaly)
        assert not np.shares_memory(*outputs)
    else:
        assert result.anomaly is None
    for out in outputs:
        assert not np.shares_memory(out, y) and not np.shares_memory(out, mask)


@pytest.mark.parametrize("method", ["tcpfnc", "rtcpfnc"])
def test_constraint_with_exact_observed_zeros(method):
    """M starts as P(Y), and the constraint takes the observed entries from
    M itself: with exact zeros of either sign among the observed data, each
    M equals apply_constraint of M before the constraint up to the sign of
    a zero, and the solve matches the reference loop."""
    y, mask = _instance(26, dims=(9, 8, 7))
    rng = np.random.default_rng(26)
    zeros = rng.uniform(size=y.shape) < 0.3
    y[zeros] = 0.0
    y[zeros & (rng.uniform(size=y.shape) < 0.5)] = -0.0
    y_obs = y * mask
    assert np.count_nonzero(np.signbit(y_obs) & (y_obs == 0) & (mask == 1)) > 0
    cfg = SolverConfig(method, rho=1e-3, lam=1e-2)
    _, states = _collect(y, mask, cfg, 12)
    for state in states:
        np.testing.assert_array_equal(
            state.m, apply_constraint(state.m_pre_constraint, y_obs, mask))
        np.testing.assert_array_equal(state.m[mask == 1], y[mask == 1])
    _assert_matches_reference(y, mask, SolverConfig(
        method, rho=1e-3, lam=1e-2, tol=1e-30, max_iters=12))


# Metamorphic properties: transformed inputs give correspondingly transformed
# outputs, over 40 iterations at 9x8x7.  At rho = 1e-3 tnn shrinks every
# non-exempt singular value to zero and stops at iteration 2, so it gets a
# larger rho.
METAMORPHIC_RHO = {"tnn": 1e-2}


def _metamorphic(method, y, mask, c=1.0):
    rho = METAMORPHIC_RHO.get(method, 1e-3)
    cfg = SolverConfig(method, rho=rho / c, lam=3 * rho, truncation_rate=0.1,
                       tol=1e-30, max_iters=40)
    result = complete(y * mask, mask, cfg)
    assert result.iterations == 40
    return result


@pytest.mark.parametrize("method", ["halrtc", "tnn"])
@pytest.mark.parametrize("c", [2.0, 0.25, 3.0])
def test_scale_equivariance(method, c):
    """complete(c Y, rho / c) = c complete(Y, rho): both shrinkage rules of
    the nuclear-norm family are positively homogeneous.  Scaling by a power
    of two is exact, so the equality is bit for bit there.  (epsilon breaks
    this for the log rule.)"""
    y, mask = _instance(22, dims=(9, 8, 7))
    base = _metamorphic(method, y, mask)
    scaled = _metamorphic(method, c * y, mask, c)
    if c in (2.0, 0.25):
        np.testing.assert_array_equal(scaled.recovered, c * base.recovered)
        assert scaled.objective_history == tuple(
            c * o for o in base.objective_history)
    else:
        np.testing.assert_allclose(scaled.recovered, c * base.recovered,
                                   rtol=1e-11, atol=0)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_permutation_equivariance(method, mode):
    """Permuting the indices of one mode in both Y and the mask permutes
    the output the same way."""
    y, mask = _outlier_instance(23, (9, 8, 7))
    perm = np.random.default_rng(mode).permutation(y.shape[mode])
    base = _metamorphic(method, y, mask)
    moved = _metamorphic(method, np.take(y, perm, axis=mode),
                         np.take(mask, perm, axis=mode))
    np.testing.assert_allclose(moved.recovered,
                               np.take(base.recovered, perm, axis=mode))
    if method == "rtcpfnc":
        assert np.count_nonzero(base.anomaly) > 0
        np.testing.assert_allclose(moved.anomaly,
                                   np.take(base.anomaly, perm, axis=mode),
                                   atol=1e-8)
