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
array each, ``M`` as a C-ordered tensor and the hidden and observed
entries as bool tensors, and after set-up it allocates nothing
tensor-sized.  ``P_omega(Y)`` is not stored: ``M`` starts as it and keeps
it on the observed entries, so the constraint is ``p * hidden + M *
observed``.  Each concurrent mode update (one when serial, three in the
thread pool) owns a workspace of two flat buffers of ``y.size`` entries,
which all three modes reuse:

* ``O`` holds the shrinkage input ``z``, built in blocks, and then the
  kernel's ``U_r^T A``;
* ``A`` holds the mode-k unfolding in Fortran order, filled from ``z``
  with ``np.copyto`` through a fold view made once.  The unfolding is a
  view of the kernel's second buffer, so the kernel scales it in place
  and writes its output over it; the output is copied into ``L_k``
  through a fold view of the matrix the kernel returns.  After the three
  kernels ``A`` holds ``M`` before the constraint.

So the working set is 7.25 tensors of state (``M``, the three ``L_k`` and
``T_k``, the two bool masks at one byte an entry) plus 2 of workspace,
and 3 more for ``E_k`` in the robust method: at 120x96x60 the traced peak
is 9.3 tensors for ``halrtc`` and 12.4 for ``rtcpfnc``, and 13.4 and 16.4
with ``threads > 1``.  The elementwise steps (consensus, constraint, the
anomaly step with its soft threshold, and the multiplier update) run
fused over flat C-order views in blocks of :data:`BLOCK` entries, so the
operands of one block stay in L2.  ``recovered`` and ``anomaly`` are
formed in the free buffers after the loop.

The copy of ``z`` into the unfolding is a transposing one for every
mode; building ``z`` directly in the strided unfolding view instead was
slower (about 9% per iteration at 120x96x60 and 5% at 30x24x14), and so
was scaling during that copy with ``np.ldexp`` (a strided ``ldexp`` took
nearly twice as long as ``np.copyto`` and an in-place pass together).
For the same reason the kernel undoes the scaling on its small factor
``U_r D`` rather than during the copy into ``L_k``.  The kernel's output
is ``(U_r D) (U_r^T A)``; reassociating it as ``(U_r D U_r^T) A`` would
save a product but changes rounding, and the desk ``tcpfnc`` stops of the
criterion-4 protocol are rounding-sensitive (see the README).

The arithmetic and its order are those of a loop that allocates a fresh
array for every intermediate (``z = (M - T_k/rho) - E_k``, the sums
``(X_0 + X_1) + X_2``, the constraint as the two products and the sum of
:func:`tensor.apply_constraint`), every reduction (the rule penalties,
``sum |E_k|``) runs over the whole array, the matrix products see the
operand layouts of that loop, and the scaling by 2**-e and back is exact
short of subnormal values, so seeded solves are bit-identical to it;
``tests/test_solvers.py`` keeps it as the reference.  The one difference
is the sign of an exact zero: the constraint adds ``M * observed`` where
that loop adds ``Y * mask``, and the two can differ in the sign of a zero
term, so an entry that is exactly 0 can come out as -0 in one and +0 in
the other.
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
# apply_constraint and unfold are no longer called by the loop; they stay
# importable here because perfbench wraps the layer functions under their
# solvers names.
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
# Entries per block of the elementwise steps: 128 KiB per operand block, so
# the blocks of one step stay in L2.
BLOCK = 16384


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
    # the thresholds alpha_k / rho and, robust only, lam / rho must be finite
    for name, weight in (("alpha_k", max(cfg.alpha)),
                         ("lambda", lam if robust else 0.0)):
        if not math.isfinite(weight / float(rho)):
            raise UsageError(f"rho={rho!r} is too small: {name} / rho is not finite")
    rules = [
        RULES[cfg.method](
            cfg,
            cfg.alpha[k] / rho,
            min(round(cfg.truncation_rate * n), min(n, y.size // n) - 1),
        )
        for k, n in enumerate(dims)
    ]

    size = y.size
    # C-ordered; hidden and observed as bool give the products of 1 - mask
    # and mask
    m = np.multiply(y, mask, order="C")
    hidden = np.equal(mask, 0.0, order="C")
    observed = ~hidden
    lk = np.zeros((3,) + dims)
    tk = np.zeros((3,) + dims)
    ek = np.zeros((3,) + dims) if robust else None
    sigma_prev = [None, None, None]
    history = []
    converged = False
    iterations = 0

    pool = ThreadPoolExecutor(max_workers=3) if cfg.threads > 1 else None
    # The workspace: flat buffers A and O per concurrent mode update, which
    # all three modes reuse (see the module docstring), and one block of
    # scratch for the elementwise steps.
    work = [[np.empty(size) for _ in range(2)] for _ in range(3 if pool else 1)]
    # A and O of the first set are free once the three kernels have run
    m_pre, absolute = work[0][0], work[0][1].reshape(dims)
    tmp = np.empty(min(BLOCK, size))
    starts = range(0, size, BLOCK)

    def block_views(i):
        """Views of block i of every array the elementwise steps touch:
        M before and after the constraint, hidden, observed, a block of
        scratch, and the rows of L, T and E (None unless robust)."""
        b = slice(i, i + BLOCK)
        return (m_pre[b], m.reshape(-1)[b], hidden.reshape(-1)[b],
                observed.reshape(-1)[b], tmp[: len(m_pre[b])],
                *(None if x is None else list(x.reshape(3, -1)[:, b])
                  for x in (lk, tk, ek)))

    blocks = [block_views(i) for i in starts]

    def mode_views(k):
        a, o = work[k if pool else 0]
        unfolding = a.reshape((dims[k], size // dims[k]), order="F")
        z_blocks = [o[i: i + BLOCK] for i in starts]
        return unfolding, fold(unfolding, k, dims), o.reshape(dims), z_blocks, (o, a)

    views = [mode_views(k) for k in range(3)]

    def update_mode(k):
        unfolding, unfolding_t, z, z_blocks, kernel_work = views[k]
        for zb, (_, mb, _, _, _, _, tb, eb) in zip(z_blocks, blocks):
            np.divide(tb[k], rho, out=zb)
            np.subtract(mb, zb, out=zb)
            if robust:
                zb -= eb[k]
        np.copyto(unfolding_t, z)
        # the unfolding is a view of the kernel's second buffer: the kernel
        # scales it in place, forms U_r^T A in O and its output in A
        mat, sig = apply_shrinkage(unfolding, rules[k], sigma_prev[k], kernel_work)
        np.copyto(lk[k], fold(mat, k, dims))
        return sig

    def elementwise_steps(p, mb, hb, ob, t, lb, tb, eb):
        """Consensus, constraint, anomaly and multiplier steps on one block."""
        np.add(lb[0], lb[1], out=p)
        p += lb[2]
        p /= 3.0
        if robust:
            np.add(eb[0], eb[1], out=t)
            t += eb[2]
            t /= 3.0
            p += t
        np.add(tb[0], tb[1], out=t)
        t += tb[2]
        t /= 3.0 * rho
        p += t
        # p*hidden + M*observed: M equals P(Y) on the observed entries, so
        # these are the products and the sum of apply_constraint(m_pre, y,
        # mask) up to the sign of an exact zero
        np.multiply(p, hb, out=t)
        mb *= ob
        mb += t
        for k in range(3):
            if robust:
                # E_k is free here: the consensus has read it
                np.subtract(mb, lb[k], out=t)
                np.divide(tb[k], rho, out=eb[k])
                t -= eb[k]
                np.copyto(eb[k], soft_threshold(t, lam / rho))
            np.subtract(lb[k], mb, out=t)
            if robust:
                t += eb[k]
            t *= rho
            tb[k] += t

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
            for block in blocks:
                elementwise_steps(*block)

            obj = 0.0
            for k in range(3):
                obj += cfg.alpha[k] * rules[k].penalty(sigmas[k])
            if robust:
                obj += lam * sum(
                    float(np.sum(np.abs(e, out=absolute))) for e in ek
                )
            # max and min propagate NaN, so both are finite iff all of m is
            if not (np.isfinite(obj) and np.isfinite(m.max())
                    and np.isfinite(m.min())):
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
                        m_pre_constraint=m_pre.reshape(dims).copy(),
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

    # (alpha_0 L_0 + alpha_1 L_1) + alpha_2 L_2 and (E_0 + E_1 + E_2) / 3,
    # formed in the free buffers of the first workspace set, with T_0 as
    # scratch
    a, o = (buf.reshape(dims) for buf in work[0])
    recovered = np.multiply(lk[0], cfg.alpha[0], out=a)
    for k in (1, 2):
        recovered += np.multiply(lk[k], cfg.alpha[k], out=tk[0])
    anomaly = None
    if robust:
        anomaly = np.add(ek[0], ek[1], out=o)
        anomaly += ek[2]
        anomaly /= 3.0
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
