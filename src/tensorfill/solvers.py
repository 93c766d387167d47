"""ADMM completion solvers for partially observed third-order tensors.

All four methods share one scaffolding.  Per iteration, with shared penalty
parameter rho and mode weights alpha_k:

1. ``L_k <- fold_k(shrink(unfold_k(M - [E_k] - T_k/rho)))`` for each mode k,
   where the shrinkage rule is what distinguishes the methods: log-weighted
   SVT (``tcpfnc``, ``rtcpfnc``), plain SVT (``halrtc``), or truncated SVT
   (``tnn``).  Each shrink works from the eigendecomposition of the Gram
   matrix of the unfolding's smaller side (:func:`prox.apply_shrinkage`),
   not a full SVD.  The three modes are independent and may run in parallel.
2. ``M <- mean_k(L_k [+ E_k] + T_k/rho)``, then observed entries are reset
   to the data: ``P_omega(M) = P_omega(Y)`` holds after every iteration.
3. robust only: ``E_k <- soft_threshold(M - L_k - T_k/rho, lambda/rho)``
   with the iteration-start multipliers.
4. ``T_k <- T_k + rho (L_k [+ E_k] - M)``.

Iteration stops when the relative change of the objective (the method's own
regularizer value, plus ``lambda * sum_k ||E_k||_1`` for the robust solver)
drops below ``tol``, or at ``max_iters``.  The recovered output
``L = sum_k alpha_k L_k`` is formed once, after the last iteration.

The loop keeps ``L_k``, ``T_k`` and ``E_k`` as one ``(3, n1, n2, n3)``
array each and updates them in place: each shrinkage input is built in a
reused scratch tensor (one per mode when the modes run in a thread pool),
each folded kernel output is copied into its contiguous slot, and the
consensus, constraint and multiplier steps write into preallocated
tensors.  The arithmetic and its order are those of a loop that allocates
a fresh array for every intermediate (``z = (M - T_k/rho) - E_k``, the sums
``(X_0 + X_1) + X_2``, the constraint as the two products and the sum of
:func:`tensor.apply_constraint`), so seeded solves are bit-identical to
that loop, which ``tests/test_solvers.py`` keeps as the reference.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericError, UsageError
from .prox import (
    DEFAULT_EPSILON,
    ShrinkageSpec,
    apply_shrinkage,
    soft_threshold,
    svd,
)
# apply_constraint is no longer called by the loop; it stays importable here
# because perfbench wraps the layer functions under their solvers names.
from .tensor import apply_constraint, check_mask, check_tensor, fold, unfold  # noqa: F401

METHODS = ("tcpfnc", "rtcpfnc", "halrtc", "tnn")

DEFAULT_RHO = 1e-4
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 200


def default_lambda(dims):
    """Sparsity weight 1/sqrt(max(n1, n2*n3)), the usual robust-PCA scaling."""
    return 1.0 / math.sqrt(max(dims[0], dims[1] * dims[2]))


@dataclass(frozen=True)
class SolverConfig:
    """Shared configuration for all completion methods.

    ``lam`` (the sparsity weight of the robust method) defaults to None,
    meaning :func:`default_lambda` of the input dims is used at run time.
    ``truncation_rate`` only affects method ``tnn``, where the per-mode
    exemption count is round(truncation_rate * n_k).
    """

    method: str
    alpha: tuple = (1 / 3, 1 / 3, 1 / 3)
    rho: float = DEFAULT_RHO
    lam: float = None
    epsilon: float = DEFAULT_EPSILON
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS
    truncation_rate: float = 0.0
    threads: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}")
        alpha = tuple(float(a) for a in self.alpha)
        if len(alpha) != 3:
            raise UsageError("alpha must have exactly 3 components")
        if min(alpha) < 0:
            raise UsageError("alpha components must be >= 0")
        if abs(sum(alpha) - 1.0) > 1e-12:
            raise UsageError(f"alpha must sum to 1, got {sum(alpha)!r}")
        object.__setattr__(self, "alpha", alpha)
        if self.rho <= 0:
            raise UsageError(f"rho must be > 0, got {self.rho}")
        if self.lam is not None and self.lam <= 0:
            raise UsageError(f"lambda must be > 0, got {self.lam}")
        if self.epsilon <= 0:
            raise UsageError(f"epsilon must be > 0, got {self.epsilon}")
        if self.tol <= 0:
            raise UsageError(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            raise UsageError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 <= self.truncation_rate < 1.0:
            raise UsageError(
                f"truncation_rate must be in [0, 1), got {self.truncation_rate}"
            )
        if self.threads < 1:
            raise UsageError(f"threads must be >= 1, got {self.threads}")


@dataclass
class SolverState:
    """End-of-iteration snapshot handed to ``iter_hook`` (arrays are copies).

    ``m_pre_constraint`` is M before observed entries were reset to the data;
    ``sigmas`` holds each L_k unfolding's (shrunk) singular values.
    """

    m: np.ndarray
    lk: tuple
    ek: tuple
    tk: tuple
    iter: int
    objective_history: list
    m_pre_constraint: np.ndarray
    sigmas: tuple


@dataclass(frozen=True)
class SolverResult:
    """Completion output: ``recovered`` is L = sum_k alpha_k L_k; ``anomaly``
    is mean_k(E_k) for the robust method, None otherwise."""

    recovered: np.ndarray
    anomaly: np.ndarray
    iterations: int
    converged: bool
    objective_history: tuple


def check_convergence(history, tol):
    """Relative-change stopping rule |o_last - o_prev| / |o_prev| < tol.

    False with fewer than two entries; when |o_prev| underflows the absolute
    difference is compared to tol instead.
    """
    if len(history) < 2:
        return False
    prev, last = history[-2], history[-1]
    if abs(prev) < 1e-300:
        return abs(last - prev) < tol
    return abs(last - prev) / abs(prev) < tol


def mode_shrinkage_specs(cfg, dims):
    """Per-mode ShrinkageSpec triple implied by the method and config."""
    kind = {
        "tcpfnc": "log_weighted",
        "rtcpfnc": "log_weighted",
        "halrtc": "plain",
        "tnn": "truncated",
    }[cfg.method]
    total = dims[0] * dims[1] * dims[2]
    specs = []
    for k in range(3):
        r = 0
        if cfg.method == "tnn":
            min_dim = min(dims[k], total // dims[k])
            r = min(round(cfg.truncation_rate * dims[k]), min_dim - 1)
        specs.append(
            ShrinkageSpec(
                kind=kind,
                tau=cfg.alpha[k] / cfg.rho,
                epsilon=cfg.epsilon,
                truncation_r=r,
            )
        )
    return tuple(specs)


def _penalty_from_spectra(cfg, sigmas, specs):
    """Regularizer value from the per-mode spectra of the current L_k."""
    total = 0.0
    for k in range(3):
        s = sigmas[k]
        if cfg.method in ("tcpfnc", "rtcpfnc"):
            total += cfg.alpha[k] * float(np.sum(np.log(s + cfg.epsilon)))
        elif cfg.method == "halrtc":
            total += cfg.alpha[k] * float(np.sum(s))
        else:
            total += cfg.alpha[k] * float(np.sum(s[specs[k].truncation_r:]))
    return total


def objective(lk, ek, cfg):
    """Objective value at (L_k, E_k): the method's regularizer sum, plus
    lambda * sum_k ||E_k||_1 for the robust method.

    Recomputed from scratch via the exact SVD of each unfolding.  The
    solver's recorded history sums the spectra its Gram-matrix kernel
    returned instead.  On the 30x24x14 desk tensor the two agree to about
    1e-15 relative for ``tcpfnc`` and ``halrtc`` and 1e-8 for ``rtcpfnc``:
    where a log-surrogate singular value was shrunk to zero, the SVD here
    returns rounding noise of order 1e-16 * sigma_max, and the term
    log(sigma + epsilon) moves by that noise over epsilon.
    """
    dims = lk[0].shape
    specs = mode_shrinkage_specs(cfg, dims)
    sigmas = [svd(unfold(lk[k], k)).sigma for k in range(3)]
    total = _penalty_from_spectra(cfg, sigmas, specs)
    if cfg.method == "rtcpfnc" and ek is not None:
        lam = cfg.lam if cfg.lam is not None else default_lambda(dims)
        total += lam * sum(float(np.sum(np.abs(e))) for e in ek)
    return total


def _run(y, mask, cfg, iter_hook=None):
    y = check_tensor(y, "y")
    mask = check_mask(mask, y.shape)
    if not np.any(mask):
        raise InputError("mask has no observed entries")
    dims = y.shape
    robust = cfg.method == "rtcpfnc"
    rho = cfg.rho
    lam = cfg.lam if cfg.lam is not None else default_lambda(dims)
    specs = mode_shrinkage_specs(cfg, dims)

    y_obs = y * mask
    hidden = 1.0 - mask
    m = y_obs.copy()
    m_pre = np.empty(dims)
    lk = np.zeros((3,) + dims)
    tk = np.zeros((3,) + dims)
    ek = np.zeros((3,) + dims) if robust else None
    sigma_prev = [None, None, None]
    history = []
    converged = False
    iterations = 0

    pool = ThreadPoolExecutor(max_workers=3) if cfg.threads > 1 else None
    # Pooled mode updates run at once, so each gets its own scratch tensor.
    scratch = [np.empty(dims) for _ in range(3 if pool else 1)]
    buf = scratch[0]

    def update_mode(k):
        z = scratch[k] if pool else buf
        np.divide(tk[k], rho, out=z)
        np.subtract(m, z, out=z)
        if robust:
            np.subtract(z, ek[k], out=z)
        mat, sig = apply_shrinkage(unfold(z, k), specs[k], sigma_prev[k])
        lk[k] = fold(mat, k, dims)
        return sig

    # Overflow is caught by the per-iteration finite check; silence the
    # interim numpy warnings so the error surfaces once, with context.
    stack = np.errstate(over="ignore", invalid="ignore")
    stack.__enter__()
    try:
        for it in range(1, cfg.max_iters + 1):
            if pool is not None:
                sigmas = tuple(pool.map(update_mode, range(3)))
            else:
                sigmas = tuple(update_mode(k) for k in range(3))
            sigma_prev = list(sigmas)

            np.add(lk[0], lk[1], out=m_pre)
            m_pre += lk[2]
            m_pre /= 3.0
            if robust:
                np.add(ek[0], ek[1], out=buf)
                buf += ek[2]
                buf /= 3.0
                m_pre += buf
            np.add(tk[0], tk[1], out=buf)
            buf += tk[2]
            buf /= 3.0 * rho
            m_pre += buf
            # the products and the sum of apply_constraint(m_pre, y, mask)
            np.multiply(m_pre, hidden, out=m)
            m += y_obs

            if robust:
                for k in range(3):
                    # ek[k] is free here: the consensus has read it
                    np.subtract(m, lk[k], out=buf)
                    np.divide(tk[k], rho, out=ek[k])
                    buf -= ek[k]
                    ek[k] = soft_threshold(buf, lam / rho)

            for k in range(3):
                np.subtract(lk[k], m, out=buf)
                if robust:
                    buf += ek[k]
                buf *= rho
                tk[k] += buf

            obj = _penalty_from_spectra(cfg, sigmas, specs)
            if robust:
                obj += lam * sum(
                    float(np.sum(np.abs(e, out=buf))) for e in ek
                )
            if not np.isfinite(obj) or not np.all(np.isfinite(m)):
                raise NumericError(
                    f"{cfg.method}: non-finite values at iteration {it}"
                )
            history.append(obj)
            iterations = it

            if iter_hook is not None:
                iter_hook(
                    SolverState(
                        m=m.copy(),
                        lk=tuple(a.copy() for a in lk),
                        ek=tuple(a.copy() for a in ek) if robust else None,
                        tk=tuple(a.copy() for a in tk),
                        iter=it,
                        objective_history=list(history),
                        m_pre_constraint=m_pre.copy(),
                        sigmas=tuple(s.copy() for s in sigmas),
                    )
                )

            if check_convergence(history, cfg.tol):
                converged = True
                break
    finally:
        stack.__exit__(None, None, None)
        if pool is not None:
            pool.shutdown()

    recovered = (
        cfg.alpha[0] * lk[0] + cfg.alpha[1] * lk[1] + cfg.alpha[2] * lk[2]
    )
    anomaly = (ek[0] + ek[1] + ek[2]) / 3.0 if robust else None
    return SolverResult(
        recovered=recovered,
        anomaly=anomaly,
        iterations=iterations,
        converged=converged,
        objective_history=tuple(history),
    )


def complete(y, mask, cfg, iter_hook=None):
    """Run the solver selected by ``cfg.method``."""
    return _run(y, mask, cfg, iter_hook)


def tc_pfnc(y, mask, cfg=None, iter_hook=None):
    """Log-surrogate completion (non-robust)."""
    cfg = replace(cfg, method="tcpfnc") if cfg else SolverConfig(method="tcpfnc")
    return _run(y, mask, cfg, iter_hook)


def rtc_pfnc(y, mask, cfg=None, iter_hook=None):
    """Log-surrogate completion with a sparse anomaly term."""
    cfg = replace(cfg, method="rtcpfnc") if cfg else SolverConfig(method="rtcpfnc")
    return _run(y, mask, cfg, iter_hook)


def halrtc(y, mask, cfg=None, iter_hook=None):
    """Nuclear-norm baseline (plain SVT in the L_k step)."""
    cfg = replace(cfg, method="halrtc") if cfg else SolverConfig(method="halrtc")
    return _run(y, mask, cfg, iter_hook)


def lrtc_tnn(y, mask, cfg=None, iter_hook=None):
    """Truncated-nuclear-norm baseline.

    The r_k largest singular values of each unfolding are exempt from
    shrinkage, with r_k = round(truncation_rate * n_k) capped below the
    unfolding's smaller dimension.
    """
    cfg = replace(cfg, method="tnn") if cfg else SolverConfig(method="tnn")
    return _run(y, mask, cfg, iter_hook)


__all__ = [
    "METHODS",
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "check_convergence",
    "complete",
    "default_lambda",
    "halrtc",
    "lrtc_tnn",
    "mode_shrinkage_specs",
    "objective",
    "rtc_pfnc",
    "tc_pfnc",
]
