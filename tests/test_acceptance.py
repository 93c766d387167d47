"""Acceptance gate: eight criteria, one printed pass/fail line each.

Criteria 4, 5, and 7 run seeded desk-scale experiments whose protocol
constants (penalty, sparsity weight, tolerance, iteration caps) and frozen
thresholds come from recorded reference runs of this implementation.
"""

import json
import math
import time

import numpy as np
import pytest

from tensorfill.cli import main
from tensorfill.datagen import (
    CorruptionSpec,
    SyntheticSpec,
    corrupt,
    nm_mask,
    rm_mask,
    synthesize,
)
from tensorfill.io import read_mask, read_tensor, write_mask, write_tensor
from tensorfill.metrics import anomaly_score, evaluate
from tensorfill.prox import (
    DEFAULT_EPSILON,
    LogRule,
    TruncatedRule,
    apply_shrinkage,
    log_weights,
    soft_threshold,
)
from tensorfill.solvers import SolverConfig, complete
from tensorfill.tensor import fold, unfold

DIMS = (30, 24, 14)


def _gate(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _desk_instance(seed):
    """Rank-3 desk tensor with noise_sigma = 0.01 * noiseless mean."""
    clean = synthesize(SyntheticSpec(DIMS, 3, 0.0, seed))
    sigma = 0.01 * clean.mean()
    return synthesize(SyntheticSpec(DIMS, 3, sigma, seed))


def test_criterion_1_structural_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(200):
        dims = tuple(rng.integers(2, 7, size=3))
        x = rng.normal(size=dims)
        for mode in range(3):
            mat = unfold(x, mode)
            if not np.array_equal(fold(mat, mode, dims), x):
                ok = False
            if abs(np.linalg.norm(mat) - np.linalg.norm(x)) > 1e-12 * np.linalg.norm(x):
                ok = False
    x = rng.normal(size=(5, 6, 4))
    y = rng.normal(size=(5, 6, 4))
    mask = (rng.uniform(size=(5, 6, 4)) < 0.5).astype(float)
    if not np.array_equal((x * mask) * mask, x * mask):
        ok = False
    if not np.allclose(
        (3.0 * x - 2.0 * y) * mask,
        3.0 * (x * mask) - 2.0 * (y * mask),
        atol=1e-12,
    ):
        ok = False
    elapsed = time.perf_counter() - start
    _gate(1, ok and elapsed < 5.0, f"200 roundtrips, projector laws, {elapsed:.2f}s")


def test_criterion_2_prox_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True
    worst_gap = 0.0
    for _ in range(50):
        z = rng.normal(scale=3.0, size=(6, 8))
        tau = float(rng.uniform(0.3, 3.0))
        weights = log_weights(np.linalg.svd(z, compute_uv=False), DEFAULT_EPSILON)

        def objective(x):
            sigma = np.linalg.svd(x, compute_uv=False)
            return tau * float(np.sum(weights * sigma)) + 0.5 * float(np.sum((x - z) ** 2))

        out, _ = apply_shrinkage(z, LogRule(tau))
        base = objective(out)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3, 0)
            gap = objective(out + scale * rng.normal(size=out.shape)) - base
            worst_gap = min(worst_gap, gap)
            if gap < -1e-9:
                ok = False
    for _ in range(20):
        z = rng.normal(scale=2.0, size=(5, 7))
        tau = float(rng.uniform(0.1, 2.0))
        sigma_in = np.linalg.svd(z, compute_uv=False)
        if not np.all(apply_shrinkage(z, TruncatedRule(tau))[1] <= sigma_in + 1e-9):
            ok = False
        if not np.all(apply_shrinkage(z, TruncatedRule(tau, 2))[1] <= sigma_in + 1e-9):
            ok = False
    a = rng.normal(scale=5.0, size=1000)
    b = rng.normal(scale=5.0, size=1000)
    if not np.all(
        np.abs(soft_threshold(a, 0.8) - soft_threshold(b, 0.8)) <= np.abs(a - b) + 1e-12
    ):
        ok = False
    elapsed = time.perf_counter() - start
    _gate(2, ok and elapsed < 30.0,
          f"50x200 minimizer checks, worst gap {worst_gap:.1e}, {elapsed:.2f}s")


def test_criterion_3_admm_mechanics():
    ok = True
    rng = np.random.default_rng(99)
    for trial in range(20):
        y = rng.uniform(1.0, 5.0, size=(6, 6, 6))
        mask = rm_mask((6, 6, 6), 0.3, 500 + trial)
        y_obs = y * mask
        for method in ("tcpfnc", "rtcpfnc"):
            rho = 1e-3
            states = []
            cfg = SolverConfig(method, rho=rho, lam=1e-2, tol=1e-30, max_iters=8)
            complete(y_obs, mask, cfg, iter_hook=states.append)
            for state in states:
                if not np.array_equal(state.m * mask, y_obs * mask):
                    ok = False
            for prev, cur in zip(states, states[1:]):
                for k in range(3):
                    residual = cur.lk[k] - cur.m
                    if method == "rtcpfnc":
                        residual = residual + cur.ek[k]
                    if np.abs(cur.tk[k] - (prev.tk[k] + rho * residual)).max() > 1e-12:
                        ok = False
                expected = sum(cur.lk) / 3.0 + sum(prev.tk) / (3.0 * rho)
                if method == "rtcpfnc":
                    expected = expected + sum(prev.ek) / 3.0
                if np.abs(cur.m_pre_constraint - expected).max() > 1e-12:
                    ok = False
    for trial in range(5):
        y = rng.uniform(1.0, 5.0, size=(2, 2, 2))
        mask = np.ones((2, 2, 2))
        mask[0, 1, 0] = 0.0
        rho = 1e-2
        states = []
        cfg = SolverConfig("rtcpfnc", rho=rho, lam=1e-2, tol=1e-30, max_iters=6)
        complete(y * mask, mask, cfg, iter_hook=states.append)
        for prev, cur in zip(states, states[1:]):
            targets = [cur.lk[k] + prev.ek[k] + prev.tk[k] / rho for k in range(3)]
            for idx in np.ndindex(2, 2, 2):
                def penalty(m_val):
                    return sum(0.5 * rho * (t[idx] - m_val) ** 2 for t in targets)
                g_m1, g_0, g_p1 = penalty(-1.0), penalty(0.0), penalty(1.0)
                vertex = (g_m1 - g_p1) / (2.0 * (g_m1 - 2.0 * g_0 + g_p1))
                if abs(cur.m_pre_constraint[idx] - vertex) > 1e-8:
                    ok = False
    _gate(3, ok, "constraint bit-exact, identities to 1e-12, M closed form to 1e-8")


def test_criterion_4_recovery_ordering():
    start = time.perf_counter()
    beats_halrtc, beats_tnn, tc_rmse = 0, 0, []
    for seed in range(10):
        y = _desk_instance(seed)
        mask = rm_mask(DIMS, 0.4, 1000 + seed)
        held_out = (1.0 - mask).astype(bool)
        rmse = {}
        for method, extra in (
            ("tcpfnc", {}),
            ("halrtc", {}),
            ("tnn", {"truncation_rate": 0.3}),
        ):
            cfg = SolverConfig(method, rho=7e-4, tol=1e-8, max_iters=9000, **extra)
            result = complete(y * mask, mask, cfg)
            rmse[method] = evaluate(y, result.recovered, held_out).rmse
        beats_halrtc += rmse["tcpfnc"] <= rmse["halrtc"]
        beats_tnn += rmse["tcpfnc"] <= rmse["tnn"]
        tc_rmse.append(rmse["tcpfnc"])
    elapsed = time.perf_counter() - start
    ok = (
        beats_halrtc >= 8
        and beats_tnn >= 7
        and max(tc_rmse) <= 1.2  # frozen from the reference run (max 1.04)
        and elapsed < 180.0
    )
    _gate(4, ok,
          f"vs halrtc {beats_halrtc}/10, vs tnn {beats_tnn}/10, "
          f"max rmse {max(tc_rmse):.3f}, {elapsed:.0f}s")


def test_criterion_5_robustness_and_anomaly_f1():
    start = time.perf_counter()
    wins, f1_values = 0, []
    for seed in range(10):
        y = _desk_instance(seed)
        mask = nm_mask(DIMS, 0.4, 2000 + seed)
        s = float(np.abs(y).max())
        corrupted, omega_c, _ = corrupt(y, mask, CorruptionSpec(0.1, s, 3000 + seed))
        held_out = (1.0 - mask).astype(bool)
        robust = complete(
            corrupted, mask,
            SolverConfig("rtcpfnc", rho=5e-6, lam=1.5e-4, tol=1e-8, max_iters=3000),
        )
        plain = complete(
            corrupted, mask,
            SolverConfig("tcpfnc", rho=5e-6, tol=1e-8, max_iters=3000),
        )
        mape_r = evaluate(y, robust.recovered, held_out).mape
        mape_p = evaluate(y, plain.recovered, held_out).mape
        wins += mape_r < mape_p
        f1_values.append(anomaly_score(robust.anomaly, omega_c, 0.1 * s)[2])
    median_f1 = float(np.median(f1_values))
    elapsed = time.perf_counter() - start
    ok = wins >= 8 and median_f1 > 0.85 and elapsed < 180.0
    _gate(5, ok,
          f"robust wins {wins}/10, median F1 {median_f1:.3f} "
          f"(fixture 0.85), {elapsed:.0f}s")


def test_criterion_6_degeneracies():
    ok = True
    y = _desk_instance(0)
    full = np.ones(DIMS)
    result = complete(y, full, SolverConfig("tcpfnc", rho=1e-2, tol=1e-12, max_iters=200))
    rel = np.abs(result.recovered - y).max() / np.abs(y).max()
    if rel > 1e-3:
        ok = False

    mask = rm_mask(DIMS, 0.4, 7)
    held_out = (1.0 - mask).astype(bool)
    rep_h = evaluate(
        y,
        complete(y * mask, mask, SolverConfig("halrtc", rho=7e-4, tol=1e-8, max_iters=1000)).recovered,
        held_out,
    )
    rep_t = evaluate(
        y,
        complete(
            y * mask, mask,
            SolverConfig("tnn", rho=7e-4, tol=1e-8, max_iters=1000, truncation_rate=0.0),
        ).recovered,
        held_out,
    )
    if abs(rep_h.mape - rep_t.mape) > 1e-9 or abs(rep_h.rmse - rep_t.rmse) > 1e-9:
        ok = False

    corrupted, omega_c, _ = corrupt(y, mask, CorruptionSpec(0.0, 10.0, 5))
    if not np.array_equal(corrupted, y * mask) or omega_c.sum() != 0:
        ok = False

    s = float(np.abs(y).max())
    corrupted, _, _ = corrupt(y, mask, CorruptionSpec(0.1, s, 3000))
    big_lambda = complete(
        corrupted, mask,
        SolverConfig("rtcpfnc", rho=1e-4, lam=1e6, tol=1e-6, max_iters=200),
    )
    if np.linalg.norm(big_lambda.anomaly) / np.linalg.norm(y) > 1e-3:
        ok = False
    _gate(6, ok, f"full-mask rel {rel:.1e}, tnn(0)==halrtc, gamma=0 no-op, "
                 "large-lambda anomaly inert")


def test_criterion_7_lambda_insensitivity():
    y = _desk_instance(0)
    mask = rm_mask(DIMS, 0.4, 1000)
    s = float(np.abs(y).max())
    corrupted, _, _ = corrupt(y, mask, CorruptionSpec(0.1, s, 3000))
    held_out = (1.0 - mask).astype(bool)
    mapes = []
    for lam in (1e-2, 1e-1, 1.0, 10.0):
        result = complete(
            corrupted, mask,
            SolverConfig("rtcpfnc", rho=1e-4, lam=lam, tol=1e-6, max_iters=2000),
        )
        mapes.append(evaluate(y, result.recovered, held_out).mape)
    band = max(mapes) / min(mapes)
    _gate(7, band < 2.0, f"MAPE band ratio {band:.4f} across lambda 1e-2..10")


def test_criterion_8_determinism_and_cli_contract(tmp_path):
    ok = True

    def run(*argv):
        return main([str(a) for a in argv])

    y, m = tmp_path / "y.tns", tmp_path / "m.msk"
    run("synth", "--dims", "10,8,6", "--rank", "2", "--seed", "3", "-o", y)
    run("mask", "--dims", "10,8,6", "--pattern", "rm", "--rate", "0.3",
        "--seed", "4", "-o", m)
    yc, oc = tmp_path / "yc.tns", tmp_path / "oc.msk"
    run("corrupt", "--tensor", y, "--mask", m, "--gamma", "0.1", "--s", "50",
        "--seed", "5", "-o", yc, "--omega-out", oc)
    rec, man = tmp_path / "rec.tns", tmp_path / "man.json"
    run("complete", "--tensor", yc, "--mask", m, "--method", "rtcpfnc",
        "--rho", "1e-3", "--lambda", "1e-2", "--max-iters", "30",
        "-o", rec, "--manifest", man)
    run("eval", "--truth", y, "--recovered", rec, "--mask", m,
        "--manifest", man, "--pattern", "rm", "--rate", "0.3",
        "--gamma", "0.1", "--seed", "3")
    row_before = json.loads(man.read_text())["csv_row"]
    if run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") != 0:
        ok = False
    if json.loads(man.read_text())["csv_row"] != row_before:
        ok = False

    if run("synth", "--dims", "4,4,4", "--rank", "99", "-o", tmp_path / "x.tns") != 2:
        ok = False
    if run("eval", "--truth", tmp_path / "absent.tns", "--recovered", y,
           "--mask", m) != 3:
        ok = False
    huge, full = tmp_path / "huge.tns", tmp_path / "full.msk"
    write_tensor(huge, np.full((2, 2, 2), 1.7e308))
    write_mask(full, np.ones((2, 2, 2)))
    if run("complete", "--tensor", huge, "--mask", full, "--method", "tcpfnc",
           "--max-iters", "5", "-o", tmp_path / "r.tns",
           "--manifest", tmp_path / "m2.json") != 4:
        ok = False

    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.normal(size=(5, 4, 3))
        path = tmp_path / "round.tns"
        write_tensor(path, x)
        if not np.array_equal(read_tensor(path), x):
            ok = False
        first = path.read_bytes()
        write_tensor(path, read_tensor(path))
        if path.read_bytes() != first:
            ok = False
    mask_round = (rng.uniform(size=(5, 4, 3)) < 0.5).astype(float)
    mpath = tmp_path / "round.msk"
    write_mask(mpath, mask_round)
    if not np.array_equal(read_mask(mpath), mask_round):
        ok = False
    _gate(8, ok, "rerun row identical, exit codes 2/3/4, formats bit-exact")
