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
   smaller side (:func:`prox.apply_shrinkage`), not a full SVD.  Every mode
   shrinks a C-order matrix: mode 0 ``z.reshape(n1, -1)``, its unfolding up
   to a permutation of the columns, and modes 1 and 2 the transposes of
   their unfoldings, ``(n1*n3, n2)`` and ``(n1*n2, n3)``, mode 2's up to a
   permutation of the rows.  A permutation or a transpose leaves the
   shrinkage unchanged.
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
``y.size`` entries, and it borrows the slots of the ``L_k``: the previous
``L_k`` was last read by the previous iteration's elementwise steps and
the hook, so each slot is free until the mode that writes it.

The modes do not depend on each other within an iteration, so the loop
runs them in the order 1, 0, 2, which changes no bit.  Each mode builds
``z`` in blocks, in C order, and the kernel always leaves its output in
its first buffer, in C order (:func:`prox.apply_shrinkage`):

* mode 1 builds ``z`` in ``A`` and copies it into the transpose of its
  unfolding, the C-order ``(n1*n3, n2)`` view of ``L_1``'s slot, while
  mode 0 builds its ``z`` in ``L_2``'s slot; mode 1 shrinks that view
  with ``A`` as the first buffer, and one copy moves the output into
  ``L_1``;
* mode 0 shrinks a C-order view of ``L_2``'s slot with ``L_0``'s slot as
  the first buffer;
* mode 2 builds ``z`` in ``A`` once mode 1's output is in ``L_1``, and
  shrinks a C-order view of it with ``L_2``'s slot as the first buffer,
  which mode 0's output product has read by then.

Both copies of mode 1 go through fold views made once.  The plan needs
no tensor beyond ``A``, and it leaves each mode's output product free to
run while the loop builds and decomposes the next mode.  When
:func:`use_helper` allows it, the kernel hands the product to ``submit``
and the loop queues it, and mode 1's two copies, on one helper thread,
which runs them in order under the loop's error state.  The loop waits
for the first copy before mode 1's kernel, for the second before it
builds mode 2's ``z``, and for every queued call before the elementwise
steps.  The helper runs only BLAS products and copies, which release the
GIL, and each product still runs on one BLAS thread, so the outputs are
the serial loop's bit for bit.  The
helper starts only for at least :data:`PIPELINE_MIN` entries, with two
CPUs or more allowed and BLAS set to one thread: on smaller tensors its
hand-offs cost more than it saves, and a helper product next to a
multi-threaded BLAS call oversubscribes the cores.  It is shut down on
every way out of the loop.

After the elementwise steps ``A`` holds ``M`` before the constraint, and
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
``sum |E_k|``) runs over the whole array, the kernel sees the operands
of that loop (C-order views of ``z`` for modes 0 and 2 and the transpose
of the unfolding, C-ordered too, for mode 1), and the scaling by 2**-e
and back is exact short of subnormal values, so seeded solves are
bit-identical to it; ``tests/test_solvers.py`` keeps it as the
reference.  The one difference is the sign of an exact zero: the
constraint adds ``M * observed`` where that loop adds ``Y * mask``, and
the two can differ in the sign of a zero term, so an entry that is
exactly 0 can come out as -0 in one and +0 in the other.
"""

import contextlib
import functools
import math
import os
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
# The fewest entries for which the loop runs the output products on a
# helper thread (see the module docstring).  With one BLAS thread on two
# cores, halrtc with the helper against without it took +47% per iteration
# at 30x24x14, +6% at 64x48x44, 0% at 72x56x40, -6% at 80x64x40, -15% at
# 96x72x48 and -13% at 120x96x60: below about 160000 entries the hand-offs
# cost more than the products save.  On one allowed CPU the helper has no
# core of its own: forced on against off (one BLAS thread, alternating
# in-process rounds, median time per iteration, two runs) it cost +4.6% and
# +1.5% for halrtc and +2.6% and +3.4% for tcpfnc at 72x64x60 (faster in 9,
# 7, 8 and 3 of 30 rounds), and +2.2% and -2.6% for halrtc at 120x96x60
# (faster in 2 and 6 of 12).  It gains nothing there, so use_helper also
# requires two CPUs.
PIPELINE_MIN = 1 << 18


def use_helper(size):
    """Whether a solve of ``size`` entries runs its output products on a
    helper thread: it does when the tensor has at least
    :data:`PIPELINE_MIN` entries, the process may run on two CPUs or more,
    and BLAS runs one thread, so that the helper takes an idle CPU.  The
    CPUs are those ``os.sched_getaffinity`` allows where it exists (Linux),
    and ``os.cpu_count()`` elsewhere.  The thread count is read as numpy's
    bundled OpenBLAS reads it: the first of its variables that holds a
    positive integer, and every CPU when none does.  OpenBLAS reads them
    once, when numpy is imported, and this function reads them when
    ``complete`` runs, so set them before numpy is imported: a value set
    later changes the gate but not BLAS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if size < PIPELINE_MIN or cpus < 2:
        return False
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


def _quietly(fn):
    """Run ``fn`` on the helper under the loop's error state, which the
    helper does not share: numpy's ``errstate`` is context-local."""
    with np.errstate(over="ignore", invalid="ignore"):
        fn()


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


def _converged(history, tol):
    """Relative-change stopping rule |o_last - o_prev| / |o_prev| < tol.

    False with fewer than two entries; when |o_prev| underflows the absolute
    difference is compared to tol instead.  So two objectives of exactly 0
    read as converged whatever ``tol`` is.  In practice that branch stops
    ``tnn`` once the rule zeroes every mode's tail, which makes its penalty
    exactly 0 while the exempt components still move: the criterion-4 desk
    solves stop after 9-13 iterations, at ranks (r_0, r_1, r_2) and held-out
    errors of 5-11 times the noise, with ``converged=True``, at ``tol=1e-300``
    as at 1e-8.
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

    # The workspace: one flat buffer A, which modes 1 and 2 reuse, with the
    # L_k slots as the kernels' other buffers (see the module docstring),
    # and one block of scratch for the elementwise steps.  A holds M before
    # the constraint once the elementwise steps have run.
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
    # the kernel's input and buffer pair of each mode, and mode 1's copies
    # of z from A into the transpose of its unfolding and of its output
    # back into L_1, through fold views made once (see the module docstring)
    slot0, slot1, slot2 = (x.reshape(-1) for x in lk)
    inputs = [slot2.reshape(dims[0], -1), slot1.reshape(-1, dims[1]),
              a.reshape(-1, dims[2])]
    works = [(slot0, slot2), (a, slot1), (slot2, a)]
    copy_in = functools.partial(np.copyto, fold(inputs[1].T, 1, dims),
                                a.reshape(dims))
    copy_back = functools.partial(np.copyto, lk[1],
                                  fold(a.reshape(-1, dims[1]).T, 1, dims))

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

    def build(k):
        """z = M - U_k/rho in blocks, in L_2's slot for mode 0 and in A
        otherwise: each is free until the mode that writes it."""
        for p, mb, _, _, _, lb, _, ub in blocks:
            q = lb[2] if k == 0 else p
            np.divide(ub[k], rho, out=q)
            np.subtract(mb, q, out=q)

    def shrink(k):
        sigmas[k] = apply_shrinkage(inputs[k], rules[k], sigmas[k], works[k],
                                    submit=later)[1]

    # mode 1's two copies and the output products, queued on the helper in
    # order, or run at once without it
    pending = []

    def later(fn):
        if helper is None:
            fn()
        else:
            pending.append(helper.submit(_quietly, fn))

    def settle(n=None):
        """Wait for the first n queued calls, all by default, reading each
        result so that an error raised on the helper surfaces here."""
        for future in pending[:n]:
            future.result()

    pipelined = use_helper(size)
    if pipelined:
        # imported here, not at the top: importing concurrent.futures takes
        # 4-9 ms on a 2-core x86-64 host, which every `import tensorfill`
        # and every CLI call would pay for a helper that only large solves
        # start; CI checks that `import tensorfill` does not import it
        from concurrent.futures import ThreadPoolExecutor
    # Overflow is caught by the per-iteration finite check; silence the
    # interim numpy warnings so the error surfaces once, with context.
    # The helper, if any, is shut down on every way out of the loop.
    with (ThreadPoolExecutor(1) if pipelined else contextlib.nullcontext() as helper,
          np.errstate(over="ignore", invalid="ignore")):
        for it in range(1, cfg.max_iters + 1):
            # the modes in the order 1, 0, 2 (see the module docstring)
            build(1)
            later(copy_in)
            build(0)
            settle()
            shrink(1)
            later(copy_back)
            copied = len(pending)
            shrink(0)
            # A holds mode 1's output until it is copied into L_1
            settle(copied)
            build(2)
            shrink(2)
            settle()
            pending.clear()
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

            if _converged(history, cfg.tol):
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
        converged=_converged(history, cfg.tol),
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
    "complete",
    "default_lambda",
]
