"""Solver tests: ADMM mechanics via iteration hooks, degeneracies, errors."""

import threading
import tracemalloc

import numpy as np
import pytest

from tensorfill import solvers
from tensorfill.datagen import SyntheticSpec, rm_mask, synthesize
from tensorfill.errors import InputError, NumericError, UsageError
from tensorfill.metrics import evaluate
from tensorfill.prox import LogRule, TruncatedRule, apply_shrinkage, soft_threshold
from tensorfill.solvers import (
    BLOCK,
    METHODS,
    SolverConfig,
    check_convergence,
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
    y, mask = _instance(9)
    alpha = (0.5, 0.3, 0.2)
    cfg = SolverConfig("tcpfnc", alpha=alpha, rho=1e-3)
    result, states = _collect(y, mask, cfg, 7)
    last = states[-1]
    expected = sum(a * l for a, l in zip(alpha, last.lk))
    np.testing.assert_array_equal(result.recovered, expected)


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


def test_thread_count_does_not_change_results():
    y, mask = _instance(14)
    base = SolverConfig("tcpfnc", rho=1e-3, max_iters=12)
    threaded = SolverConfig("tcpfnc", rho=1e-3, max_iters=12, threads=3)
    a = complete(y * mask, mask, base)
    b = complete(y * mask, mask, threaded)
    np.testing.assert_array_equal(a.recovered, b.recovered)
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


def test_config_validation():
    with pytest.raises(UsageError):
        SolverConfig("nosuch")
    with pytest.raises(UsageError):
        SolverConfig("tcpfnc", alpha=(0.5, 0.5, 0.5))
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
    with pytest.raises(UsageError):
        SolverConfig("tcpfnc", threads=0)
    for value in (np.nan, np.inf, -np.inf):
        for bad in ({"rho": value}, {"tol": value}, {"lam": value},
                    {"epsilon": value}, {"alpha": (value, 0.5, 0.5)}):
            with pytest.raises(UsageError):
                SolverConfig("rtcpfnc", **bad)
    for bad in ({"max_iters": 2.5}, {"max_iters": True}, {"threads": True},
                {"threads": 1.5}, {"truncation_rate": 1.0}, {"rho": "fast"},
                {"alpha": (True, False, False)}, {"alpha": 1.0}):
        with pytest.raises(UsageError):
            SolverConfig("tnn", **bad)


def test_rho_too_small_for_a_finite_threshold_is_named():
    """alpha_k / rho or lam / rho overflowing is reported in terms of rho."""
    y, mask = _instance(3)
    with pytest.raises(UsageError, match=r"rho=1e-310 is too small: alpha_k / rho"):
        complete(y, mask, SolverConfig("tcpfnc", rho=1e-310))
    with pytest.raises(UsageError, match=r"too small: lambda / rho"):
        complete(y, mask, SolverConfig("rtcpfnc", rho=1e-300, lam=1e10))
    # lam is unused outside the robust method
    complete(y, mask, SolverConfig("tcpfnc", rho=1e-300, lam=1e10, max_iters=1))


def test_default_lambda_formula():
    assert default_lambda((30, 24, 14)) == pytest.approx(1.0 / np.sqrt(24 * 14))
    assert default_lambda((400, 24, 14)) == pytest.approx(1.0 / np.sqrt(400))


def test_check_convergence_relative_change():
    assert not check_convergence([1.0], 1e-6)
    assert check_convergence([1.0, 1.0 + 1e-9], 1e-6)
    assert not check_convergence([1.0, 1.1], 1e-6)


def test_max_iters_cap_reported_as_not_converged():
    y, mask = _instance(18)
    result = complete(y * mask, mask, SolverConfig("tcpfnc", rho=1e-3, max_iters=3, tol=1e-30))
    assert result.iterations == 3
    assert not result.converged


def _reference_run(y, mask, cfg):
    """Reference ADMM loop: the steps of the solvers module docstring with a
    fresh array for every intermediate and one list entry per mode."""
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
        rules = [LogRule(cfg.alpha[k] / rho, cfg.epsilon) for k in range(3)]
    else:
        rules = [TruncatedRule(cfg.alpha[k] / rho, r[k]) for k in range(3)]
    y_obs = y * mask
    m = y_obs.copy()
    lk = [np.zeros(dims) for _ in range(3)]
    tk = [np.zeros(dims) for _ in range(3)]
    ek = [np.zeros(dims) for _ in range(3)] if robust else None
    sigma_prev = [None, None, None]
    history = []
    converged = False
    for it in range(1, cfg.max_iters + 1):
        sigmas = []
        for k in range(3):
            z = m - tk[k] / rho
            if robust:
                z = z - ek[k]
            mat, sig = apply_shrinkage(unfold(z, k), rules[k], sigma_prev[k])
            lk[k] = fold(mat, k, dims)
            sigmas.append(sig)
        sigma_prev = sigmas
        recovered = cfg.alpha[0] * lk[0] + cfg.alpha[1] * lk[1] + cfg.alpha[2] * lk[2]
        m_pre = (lk[0] + lk[1] + lk[2]) / 3.0
        if robust:
            m_pre = m_pre + (ek[0] + ek[1] + ek[2]) / 3.0
        m_pre = m_pre + (tk[0] + tk[1] + tk[2]) / (3.0 * rho)
        m = apply_constraint(m_pre, y_obs, mask)
        if robust:
            ek = [soft_threshold(m - lk[k] - tk[k] / rho, lam / rho) for k in range(3)]
        for k in range(3):
            residual = lk[k] - m
            if robust:
                residual = residual + ek[k]
            tk[k] = tk[k] + rho * residual
        obj = 0.0
        for k, s in enumerate(sigmas):
            if cfg.method in ("tcpfnc", "rtcpfnc"):
                obj += cfg.alpha[k] * float(np.sum(np.log(s + cfg.epsilon)))
            elif cfg.method == "halrtc":
                obj += cfg.alpha[k] * float(np.sum(s))
            else:
                obj += cfg.alpha[k] * float(np.sum(s[r[k]:]))
        if robust:
            obj += lam * sum(float(np.sum(np.abs(e))) for e in ek)
        history.append(obj)
        if check_convergence(history, cfg.tol):
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


def _assert_matches_reference(y, mask, cfg):
    result = complete(y * mask, mask, cfg)
    recovered, anomaly, iters, converged, history = _reference_run(
        y * mask, mask, cfg)
    np.testing.assert_array_equal(result.recovered, recovered)
    if anomaly is None:
        assert result.anomaly is None
    else:
        np.testing.assert_array_equal(result.anomaly, anomaly)
    assert result.objective_history == history
    assert result.iterations == iters
    assert result.converged == converged
    return result


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dims", [(9, 8, 7), (20, 3, 2)])  # mode 0 of 20x6 is tall
def test_in_place_loop_is_bit_identical_to_reference(method, dims):
    y, mask = _outlier_instance(19, dims)
    cfg = SolverConfig(method, rho=1e-3, lam=1e-2, truncation_rate=0.3,
                       tol=1e-30, max_iters=25)
    _assert_matches_reference(y, mask, cfg)


def test_in_place_loop_matches_reference_when_stopping_on_tol():
    y, mask = _instance(20, dims=(9, 8, 7))
    cfg = SolverConfig("halrtc", rho=1e-3, tol=1e-6, max_iters=2000)
    result = _assert_matches_reference(y, mask, cfg)
    assert result.converged and result.iterations < cfg.max_iters


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("method", METHODS)
def test_blocked_workspace_loop_matches_reference(method, threads):
    """40x30x20 is one full block of the elementwise steps and a partial
    one, and Fortran-ordered inputs (the layout the readers return) are
    laid out again in C order by the loop."""
    y, mask = _outlier_instance(24, (40, 30, 20))
    assert BLOCK < y.size < 2 * BLOCK
    cfg = SolverConfig(method, rho=1e-3, lam=1e-4, truncation_rate=0.3,
                       tol=1e-30, max_iters=15, threads=threads)
    result = _assert_matches_reference(
        np.asfortranarray(y), np.asfortranarray(mask), cfg)
    if method == "rtcpfnc":
        assert np.count_nonzero(result.anomaly) > 0


@pytest.mark.parametrize("method", METHODS)
def test_pooled_mode_updates_match_reference(method, monkeypatch):
    """With threads=3 every mode builds its shrinkage input, and copies it
    into its unfolding, before any mode's kernel runs, so a workspace
    shared between modes would show."""
    barrier = threading.Barrier(3, timeout=30)
    real_shrinkage = solvers.apply_shrinkage

    def shrink_after_all_modes(*args, **kwargs):
        barrier.wait()
        return real_shrinkage(*args, **kwargs)

    monkeypatch.setattr(solvers, "apply_shrinkage", shrink_after_all_modes)
    y, mask = _outlier_instance(21, (9, 8, 7))
    cfg = SolverConfig(method, rho=1e-3, lam=1e-2, truncation_rate=0.3,
                       tol=1e-30, max_iters=10, threads=3)
    _assert_matches_reference(y, mask, cfg)


@pytest.mark.parametrize("method, threads, tensors", [
    ("halrtc", 1, 10), ("rtcpfnc", 1, 13), ("halrtc", 3, 14), ("rtcpfnc", 3, 17)])
def test_solve_peak_memory_in_tensors(method, threads, tensors):
    """At 120x96x60 a solve allocates nothing tensor-sized after set-up: its
    peak traced memory is the state (M, L_k, T_k, [E_k], and hidden and
    observed at one byte an entry) plus two workspace buffers per
    concurrent mode update, about 9.3 tensors for halrtc and 12.4 for
    rtcpfnc, and 13.4 and 16.4 with threads=3."""
    y, mask = _instance(25, dims=(120, 96, 60))
    observed = y * mask
    cfg = SolverConfig(method, rho=1e-3, tol=1e-30, max_iters=2, threads=threads)
    tracemalloc.start()
    try:
        complete(observed, mask, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tensors * observed.nbytes


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
