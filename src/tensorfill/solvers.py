"""ADMM completion solvers for partially observed third-order tensors.

All four methods share one scaffolding.  Per iteration, with shared penalty
parameter rho and mode weights alpha_k:

1. ``L_k <- fold_k(shrink(unfold_k(M - [E_k] - T_k/rho)))`` for each mode k,
   where the shrinkage rule is what distinguishes the methods.  :data:`RULES`
   is the one table that maps a method to its rule: the log rule
   (``tcpfnc``, ``rtcpfnc``), the nuclear norm (``halrtc``) or the truncated
   nuclear norm (``tnn``).  Each shrink works from the eigendecomposition of
   the Gram matrix of the unfolding's smaller side
   (:func:`prox.apply_shrinkage`), not a full SVD.  The three modes are
   independent and may run in parallel.
2. ``M <- mean_k(L_k [+ E_k] + T_k/rho)``, then observed entries are reset
   to the data: ``P_omega(M) = P_omega(Y)`` holds after every iteration.
3. robust only: ``E_k <- soft_threshold(M - L_k - T_k/rho, lambda/rho)``
   with the iteration-start multipliers.
4. ``T_k <- T_k + rho (L_k [+ E_k] - M)``.

Iteration stops when the relative change of the objective drops below
``tol``, or at ``max_iters``.  The objective is ``sum_k alpha_k *
penalty_k(sigma_k)``, with ``penalty_k`` the rule's penalty and ``sigma_k``
the shrunk spectrum the kernel returned for mode k, plus
``lambda * sum_k ||E_k||_1`` for the robust solver.  The recovered output
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
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, UsageError
from .prox import (
    DEFAULT_EPSILON,
    LogRule,
    TruncatedRule,
    apply_shrinkage,
    soft_threshold,
)
# apply_constraint is no longer called by the loop; it stays importable here
# because perfbench wraps the layer functions under their solvers names.
from .tensor import (apply_constraint, check_mask, check_scalar,  # noqa: F401
                     check_tensor, fold, unfold)

# The one map from a method to its shrinkage rule.  ``complete`` calls the
# entry once per mode k with tau_k = alpha_k / rho and the truncation count
# r_k = round(truncation_rate * n_k), capped below the smaller side of the
# mode-k unfolding; only tnn uses r_k.
RULES = {
    "tcpfnc": lambda cfg, tau, r: LogRule(tau, cfg.epsilon),
    "rtcpfnc": lambda cfg, tau, r: LogRule(tau, cfg.epsilon),
    "halrtc": lambda cfg, tau, r: TruncatedRule(tau),
    "tnn": lambda cfg, tau, r: TruncatedRule(tau, r),
}
METHODS = tuple(RULES)


def default_lambda(dims):
    """Sparsity weight 1/sqrt(max(n1, n2*n3)), the usual robust-PCA scaling."""
    return 1.0 / math.sqrt(max(dims[0], dims[1] * dims[2]))


@dataclass(frozen=True)
class SolverConfig:
    """Shared configuration for all completion methods; every scalar field
    is checked by :func:`tensor.check_scalar` when the config is built.

    ``lam`` (the sparsity weight of the robust method) defaults to None,
    meaning :func:`default_lambda` of the input dims is used at run time.
    ``truncation_rate`` only affects method ``tnn``, where the per-mode
    exemption count is round(truncation_rate * n_k).
    """

    method: str
    alpha: tuple = (1 / 3, 1 / 3, 1 / 3)
    rho: float = 1e-4
    lam: float = None
    epsilon: float = DEFAULT_EPSILON
    tol: float = 1e-6
    max_iters: int = 200
    truncation_rate: float = 0.0
    threads: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}")
        if np.ndim(self.alpha) != 1 or len(self.alpha) != 3:
            raise UsageError("alpha must have exactly 3 components")
        alpha = tuple(float(check_scalar("alpha component", a, 0))
                      for a in self.alpha)
        if abs(sum(alpha) - 1.0) > 1e-12:
            raise UsageError(f"alpha must sum to 1, got {sum(alpha)!r}")
        object.__setattr__(self, "alpha", alpha)
        for name in ("rho", "epsilon", "tol"):
            check_scalar(name, getattr(self, name), 0, open_low=True)
        if self.lam is not None:
            check_scalar("lambda", self.lam, 0, open_low=True)
        check_scalar("max_iters", self.max_iters, 1, integer=True)
        check_scalar("truncation_rate", self.truncation_rate, 0, 1, open_high=True)
        check_scalar("threads", self.threads, 1, integer=True)


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


def complete(y, mask, cfg, iter_hook=None):
    """Fill in the entries of ``y`` where ``mask`` is 0 with the method of
    ``cfg``, whose shrinkage rule comes from :data:`RULES`.

    Returns a :class:`SolverResult`.  ``iter_hook``, if given, receives a
    :class:`SolverState` after every iteration.
    """
    y = check_tensor(y, "y")
    mask = check_mask(mask, y.shape)
    if not np.any(mask):
        raise InputError("mask has no observed entries")
    dims = y.shape
    robust = cfg.method == "rtcpfnc"
    rho = cfg.rho
    lam = cfg.lam if cfg.lam is not None else default_lambda(dims)
    rules = [
        RULES[cfg.method](
            cfg,
            cfg.alpha[k] / rho,
            min(round(cfg.truncation_rate * n), min(n, y.size // n) - 1),
        )
        for k, n in enumerate(dims)
    ]

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
        mat, sig = apply_shrinkage(unfold(z, k), rules[k], sigma_prev[k])
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

            obj = 0.0
            for k in range(3):
                obj += cfg.alpha[k] * rules[k].penalty(sigmas[k])
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


__all__ = [
    "METHODS",
    "RULES",
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "check_convergence",
    "complete",
    "default_lambda",
]
