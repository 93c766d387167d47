"""ADMM completion solvers for partially observed third-order tensors.

All four methods share one scaffolding.  Per iteration, with shared penalty
parameter rho and the three modes weighted equally, by :data:`WEIGHT`:

1. ``L_k <- fold_k(shrink(unfold_k(M - U_k/rho)))`` for each mode k, where
   ``U_k = T_k + rho E_k`` with the robust method's anomaly term ``E_k`` (so
   ``U_k = T_k`` in the other methods) and the shrinkage rule is what
   distinguishes the methods.  :data:`RULES` is the one table that maps a
   method to its rule: the log rule (``tcpfnc``, ``rtcpfnc``), the nuclear
   norm (``halrtc``) or the truncated nuclear norm (``tnn``).  Each shrink
   works from the eigendecomposition of the Gram matrix of the unfolding's
   smaller side (:func:`prox.apply_shrinkage`), not a full SVD.  Modes 0 and
   2 shrink the C-order matrices ``z.reshape(n1, -1)`` and ``z.reshape(-1,
   n3)`` instead of their unfoldings: these are the mode-0 unfolding and the
   transpose of the mode-2 one up to a permutation of their columns, which
   leaves the shrinkage unchanged.
2. ``M <- mean_k(L_k) + mean_k(U_k)/rho``, then observed entries are reset
   to the data: ``P_omega(M) = P_omega(Y)`` holds after every iteration.
3. ``T_k <- T_k + rho (L_k - M)``, and for the robust method, with ``v =
   T_k + rho (L_k - M)``, ``T_k <- clip(v, -lambda, lambda)`` and ``U_k <-
   (T_k - v) + T_k``: ``rho E_k = T_k - v`` is what the clip removed.  This
   is the paper's anomaly step ``E_k <- soft_threshold(M - L_k -
   T_k^old/rho, lambda/rho)`` followed by ``T_k <- T_k^old + rho (L_k +
   E_k - M)``: by the Moreau decomposition ``soft_kappa(v) = v -
   clip_kappa(v)`` (Parikh and Boyd 2014, *Proximal Algorithms*, section
   2.5) the two are one clip, so the multipliers stay within
   ``[-lambda, lambda]`` exactly.

Iteration stops when the relative change of the objective drops below
``tol``, or at ``max_iters``.  The objective is ``sum_k WEIGHT *
penalty_k(sigma_k)``, with ``penalty_k`` the rule's penalty and ``sigma_k``
the shrunk spectrum the kernel returned for mode k, plus
``lambda * sum_k ||E_k||_1`` for the robust solver.  ``E_k = (U_k - T_k)
/ rho`` is formed only where it is read: this term, the hook's
:class:`SolverState` and the ``anomaly`` output.  The recovered output ``L
= sum_k WEIGHT L_k`` is formed once, after the last iteration.

The loop keeps ``L_k``, ``T_k`` and ``U_k`` as one ``(3, n1, n2, n3)``
array each (``U_k`` is a stack of its own for ``rtcpfnc`` and the ``T_k``
array itself otherwise), ``M`` as a C-ordered tensor and the hidden and
observed entries as bool tensors, and after set-up it allocates nothing
tensor-sized.  ``P_omega(Y)`` is not stored: ``M`` starts as it and keeps
it on the observed entries, so the constraint is ``p * hidden + M *
observed``.  The loop owns one workspace, a flat buffer ``A`` of
``y.size`` entries, which the three modes reuse in turn, and it borrows
the slot of ``L_k`` while mode k updates: the previous ``L_k`` was last
read by the previous iteration's elementwise steps and the hook, and the
new one is written only once the kernel is done.

Every mode builds ``z`` in blocks in ``A``, in C order, and the kernel
always leaves its output in its first buffer, laid out as its input
(:func:`prox.apply_shrinkage`).  Modes 0 and 2 shrink C-order views of
``A`` with ``L_k``'s slot as the first buffer, so their output lands in
``L_k`` with no copy in the loop.  Mode 1 copies ``A`` into its
Fortran-order unfolding in ``L_1``'s slot and shrinks that with ``A`` as
the first buffer; one copy moves the output into ``L_1``.  Both copies go
through fold views made once.

After the three kernels ``A`` holds ``M`` before the constraint, and
then, robust only, each ``E_k`` in turn for ``sum |E_k|``.

So the working set is 7.25 tensors of state (``M``, the three ``L_k`` and
``T_k``, and ``hidden`` and ``observed``, C-ordered bool tensors at one
byte an entry made from the caller's bool mask, as
:func:`tensor.check_mask` returns it) plus 1 of workspace, and 3 more for
``U_k`` in the robust method: at 120x96x60 the traced peak is 8.35
tensors for ``halrtc`` and ``tcpfnc`` and 11.36 for ``rtcpfnc``.  The
caller's ``y`` is not read once ``M`` is formed, and ``complete`` keeps no
reference to it after that.  The elementwise steps (consensus,
constraint, and the multiplier update with the robust method's clip)
run fused over flat C-order views in blocks of :data:`BLOCK` entries, so
the operands of one block stay in L2.
``recovered`` is formed in ``A`` after the loop and ``anomaly`` in
``M``'s buffer, from the ``E_k`` formed in ``U_k``'s slots, so neither is
a view of the ``(3, n1, n2, n3)`` stacks.

Building mode 1's ``z`` directly in its strided unfolding view instead of
copying it there was slower (about 9% per iteration at 120x96x60 and 5%
at 30x24x14), and so was scaling during that copy with ``np.ldexp`` (a
strided ``ldexp`` took nearly twice as long as ``np.copyto`` and an
in-place pass together).  For the same reason the kernel undoes the
scaling on a small factor rather than during a copy.

The arithmetic and its order are those of a loop that allocates a fresh
array for every intermediate (``z = M - U_k/rho``, the sums ``(X_0 +
X_1) + X_2``, the constraint as the two products and the sum of
:func:`tensor.apply_constraint`), every reduction (the rule penalties,
``sum |E_k|``) runs over the whole array, the kernel sees the operand
layouts of that loop (C-order views of ``z`` for modes 0 and 2 and the
unfolding for mode 1), and the scaling by 2**-e and back is exact
short of subnormal values, so seeded solves are bit-identical to it;
``tests/test_solvers.py`` keeps it as the reference.  The one difference
is the sign of an exact zero: the constraint adds ``M * observed`` where
that loop adds ``Y * mask``, and the two can differ in the sign of a zero
term, so an entry that is exactly 0 can come out as -0 in one and +0 in
the other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, UsageError
# apply_constraint, unfold and soft_threshold are no longer called by the
# loop; they stay importable here because perfbench wraps the layer
# functions under their solvers names.
from .prox import LogRule, TruncatedRule, apply_shrinkage, soft_threshold  # noqa: F401
from .tensor import (apply_constraint, check_mask, check_scalar,  # noqa: F401
                     check_tensor, fold, unfold)

# The one map from a method to its shrinkage rule.  ``complete`` calls the
# entry once per mode k with tau = WEIGHT / rho and the truncation count
# r_k = round(truncation_rate * n_k), capped below the smaller side of the
# mode-k unfolding; only tnn uses r_k.
RULES = {
    "tcpfnc": lambda tau, r: LogRule(tau),
    "rtcpfnc": lambda tau, r: LogRule(tau),
    "halrtc": lambda tau, r: TruncatedRule(tau),
    "tnn": lambda tau, r: TruncatedRule(tau, r),
}
METHODS = tuple(RULES)
# The weight of each mode in the objective and in the recovered tensor, as
# in HaLRTC's weighted sum of unfolding norms; no method weights the modes
# unequally, so it is a constant.
WEIGHT = 1 / 3
# Entries per block of the elementwise steps: 128 KiB per operand block, so
# the blocks of one step stay in L2.
BLOCK = 16384


def default_lambda(dims):
    """Sparsity weight 1/sqrt(max(n1, n2*n3)), the usual robust-PCA scaling."""
    return 1.0 / math.sqrt(max(dims[0], dims[1] * dims[2]))


@dataclass(frozen=True)
class SolverConfig:
    """Shared configuration for all completion methods; every scalar field
    is checked by :func:`tensor.check_scalar` when the config is built, and
    ``rho`` must leave the threshold ``WEIGHT / rho`` finite.

    ``lam`` (the sparsity weight of the robust method) defaults to None,
    meaning :func:`default_lambda` of the input dims is used at run time.
    ``truncation_rate`` only affects method ``tnn``, where the per-mode
    exemption count is round(truncation_rate * n_k).  The model's other
    constants are no fields: the mode weight is :data:`WEIGHT` and the log
    rule's epsilon is :data:`prox.DEFAULT_EPSILON`.
    """

    method: str
    rho: float = 1e-4
    lam: float = None
    tol: float = 1e-6
    max_iters: int = 200
    truncation_rate: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}")
        for name in ("rho", "tol"):
            check_scalar(name, getattr(self, name), 0, open_low=True)
        if self.lam is not None:
            check_scalar("lambda", self.lam, 0, open_low=True)
        check_scalar("max_iters", self.max_iters, 1, integer=True)
        check_scalar("truncation_rate", self.truncation_rate, 0, 1, open_high=True)
        # the threshold WEIGHT / rho must be finite; the message names the
        # weight alpha_k, as HaLRTC writes it
        if not math.isfinite(WEIGHT / float(self.rho)):
            raise UsageError(f"rho={self.rho!r} is too small: alpha_k / rho is not finite")


@dataclass
class SolverState:
    """End-of-iteration snapshot handed to ``iter_hook`` (arrays are copies):
    M after and before (``m_pre_constraint``) observed entries are reset to
    the data, and the per-mode L_k, E_k and T_k.  E_k is None unless
    robust, and is formed as (U_k - T_k) / rho from the loop's U_k."""

    m: np.ndarray
    lk: tuple
    ek: tuple
    tk: tuple
    m_pre_constraint: np.ndarray


@dataclass(frozen=True)
class SolverResult:
    """Completion output: ``recovered`` is L = sum_k WEIGHT L_k; ``anomaly``
    is mean_k(E_k) for the robust method, None otherwise; ``ranks`` holds,
    per mode, the number of nonzero values of the last shrunk spectrum, so
    a solve that zeroes every value reports ranks (0, 0, 0)."""

    recovered: np.ndarray
    anomaly: np.ndarray
    iterations: int
    converged: bool
    objective_history: tuple
    ranks: tuple


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
    dims, size = y.shape, y.size
    robust = cfg.method == "rtcpfnc"
    rho = cfg.rho
    lam = cfg.lam if cfg.lam is not None else default_lambda(dims)
    rules = [
        RULES[cfg.method](WEIGHT / rho,
                          min(round(cfg.truncation_rate * n), min(n, size // n) - 1))
        for n in dims
    ]

    # C-ordered; hidden and observed give the products of 1 - mask and mask
    m = np.multiply(y, mask, order="C")
    # y is not read again: without this name, a caller that keeps no
    # reference to it gets its memory back for the loop
    del y
    hidden = np.logical_not(mask, order="C")
    observed = ~hidden
    lk = np.zeros((3,) + dims)
    tk = np.zeros((3,) + dims)
    # U_k = T_k + rho E_k; without E_k it is T_k itself
    uk = np.zeros((3,) + dims) if robust else tk
    # each mode's shrunk spectrum, the kernel's warm start for that mode
    sigmas = [None, None, None]
    history = []

    # The workspace: one flat buffer A, which all three modes reuse, with
    # L_k's own slot as the kernel's first buffer (see the module
    # docstring), and one block of scratch for the elementwise steps.  A
    # holds M before the constraint once the three kernels have run.
    a = np.empty(size)
    tmp = np.empty(min(BLOCK, size))
    starts = range(0, size, BLOCK)

    def block_views(i):
        """Views of block i of every array the elementwise steps touch:
        M before and after the constraint, hidden, observed, a block of
        scratch, and the rows of L, T and U."""
        b = slice(i, i + BLOCK)
        return (a[b], m.reshape(-1)[b], hidden.reshape(-1)[b],
                observed.reshape(-1)[b], tmp[: len(a[b])],
                *(list(x.reshape(3, -1)[:, b]) for x in (lk, tk, uk)))

    blocks = [block_views(i) for i in starts]
    # the kernel's inputs and buffer pairs: modes 0 and 2 shrink C-order
    # views of A, in the tensor's own layout (mode 2 as the transpose of
    # its unfolding), with their output in L_k's slot; mode 1 shrinks its
    # Fortran-order unfolding in L_1's slot, filled from A, with its output
    # in A, and both copies go through the fold views made here
    slot1 = lk[1].reshape(-1)
    inputs = [a.reshape(dims[0], -1),
              slot1.reshape((dims[1], size // dims[1]), order="F"),
              a.reshape(-1, dims[2])]
    works = [(lk[0].reshape(-1), a), (a, slot1), (lk[2].reshape(-1), a)]
    into_slot1 = fold(inputs[1], 1, dims)
    from_a = fold(a.reshape((dims[1], size // dims[1]), order="F"), 1, dims)

    def elementwise_steps(p, mb, hb, ob, t, lb, tb, ub):
        """Consensus, constraint and multiplier steps on one block, with the
        robust method's U_k read off the clip of its multipliers."""
        np.add(lb[0], lb[1], out=p)
        p += lb[2]
        p /= 3.0
        np.add(ub[0], ub[1], out=t)
        t += ub[2]
        t /= 3.0 * rho
        p += t
        # p*hidden + M*observed: M equals P(Y) on the observed entries, so
        # these are the products and the sum of apply_constraint(m_pre, y,
        # mask) up to the sign of an exact zero
        np.multiply(p, hb, out=t)
        mb *= ob
        mb += t
        for k in range(3):
            np.subtract(lb[k], mb, out=t)
            t *= rho
            if robust:
                # v = T_k + rho (L_k - M) clipped to [-lam, lam] is the new
                # T_k, and rho E_k is what the clip removed, so U_k is
                # (T_k - v) + T_k (the consensus has read the old one)
                t += tb[k]
                np.clip(t, -lam, lam, out=tb[k])
                np.subtract(tb[k], t, out=ub[k])
                ub[k] += tb[k]
            else:
                tb[k] += t

    # Overflow is caught by the per-iteration finite check; silence the
    # interim numpy warnings so the error surfaces once, with context.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iters + 1):
            for k in range(3):
                # z is built in blocks in A; L_k is dead until its new
                # value is written, so its slot is the kernel's other buffer
                for p, mb, *_, ub in blocks:
                    np.divide(ub[k], rho, out=p)
                    np.subtract(mb, p, out=p)
                if k == 1:
                    np.copyto(into_slot1, a.reshape(dims))
                _, sigmas[k] = apply_shrinkage(inputs[k], rules[k], sigmas[k],
                                               works[k])
                if k == 1:
                    np.copyto(lk[1], from_a)
            for block in blocks:
                elementwise_steps(*block)

            # the snapshot is taken before sum |E_k| overwrites A, which
            # holds M before the constraint
            state = None if iter_hook is None else SolverState(
                m=m.copy(),
                lk=tuple(x.copy() for x in lk),
                ek=tuple((uk - tk) / rho) if robust else None,
                tk=tuple(x.copy() for x in tk),
                m_pre_constraint=a.reshape(dims).copy(),
            )
            obj = 0.0
            for k in range(3):
                obj += WEIGHT * rules[k].penalty(sigmas[k])
            if robust:
                # sum |E_k| with E_k = (U_k - T_k) / rho formed in A
                e, l1 = a.reshape(dims), 0.0
                for k in range(3):
                    np.subtract(uk[k], tk[k], out=e)
                    e /= rho
                    l1 += float(np.sum(np.abs(e, out=e)))
                obj += lam * l1
            # max and min propagate NaN, so both are finite iff all of m is
            if not (np.isfinite(obj) and np.isfinite(m.max())
                    and np.isfinite(m.min())):
                raise NumericError(
                    f"{cfg.method}: non-finite values at iteration {it}"
                )
            history.append(obj)
            if state is not None:
                iter_hook(state)

            if check_convergence(history, cfg.tol):
                break

    # (E_0 + E_1 + E_2) / 3 in M's buffer, with each E_k formed in U_k's
    # slot, and then (W L_0 + W L_1) + W L_2 with W = WEIGHT in A, with T_0
    # as scratch: neither is a view of the stacks, which would keep them
    # alive as long as the result
    anomaly = None
    if robust:
        uk -= tk
        uk /= rho
        anomaly = np.add(uk[0], uk[1], out=m)
        anomaly += uk[2]
        anomaly /= 3.0
    recovered = np.multiply(lk[0], WEIGHT, out=a.reshape(dims))
    for k in (1, 2):
        recovered += np.multiply(lk[k], WEIGHT, out=tk[0])
    return SolverResult(
        recovered=recovered,
        anomaly=anomaly,
        iterations=len(history),
        converged=check_convergence(history, cfg.tol),
        objective_history=tuple(history),
        ranks=tuple(int(np.count_nonzero(s)) for s in sigmas),
    )


__all__ = [
    "METHODS",
    "RULES",
    "SolverConfig",
    "SolverState",
    "SolverResult",
    "WEIGHT",
    "check_convergence",
    "complete",
    "default_lambda",
]
