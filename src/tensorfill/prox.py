"""Matrix proximal operators built on singular value shrinkage.

A shrinkage rule is one rank surrogate with its two parts:
``thresholds(sigma, sigma_prev)``, the per-singular-value thresholds of
its proximal step, and ``penalty(sigma)``, the surrogate's value at a
spectrum.  There are two rules:

* :class:`LogRule`: the log-determinant surrogate
  sum(log(sigma_i + epsilon)), thresholded by tau * 1/(sigma_prev + epsilon).
  Larger singular values receive smaller thresholds, so dominant structure
  is preserved while small (noise) values are shrunk hard.  epsilon is the
  constant :data:`DEFAULT_EPSILON`, not a parameter.
* :class:`TruncatedRule`: the truncated nuclear norm sum_{i >= r} sigma_i.
  The largest ``r`` values pass through unshrunk and the rest get the
  uniform threshold tau; with ``r = 0`` it is the plain nuclear norm and its
  prox, plain singular value thresholding.

``solvers.RULES`` is the one table that maps a completion method to its
rule.  Every rule goes through one spectral kernel, :func:`apply_shrinkage`,
which takes the eigendecomposition of the Gram matrix of the input's
smaller side instead of a full SVD and forms its output as one product.
An elementwise soft threshold (the l1 prox) rounds out the module.  The
exact thin SVD, :func:`svd`, returns the plain triple (u, sigma, vt) and
is the reference the kernel is tested against.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .tensor import check_scalar

DEFAULT_EPSILON = 1e-6


def svd(m):
    """Thin SVD with finiteness checking: the triple (u, sigma, vt) with
    m = u @ diag(sigma) @ vt and sigma descending.

    Raises NumericError on non-finite input or LAPACK non-convergence.
    """
    arr = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("SVD input contains non-finite values")
    try:
        return tuple(np.linalg.svd(arr, full_matrices=False))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc


def log_weights(sigma_prev, epsilon):
    """Reweighting vector 1/(sigma + epsilon); non-decreasing for descending sigma."""
    return 1.0 / (np.asarray(sigma_prev, dtype=np.float64) + epsilon)


@dataclass(frozen=True)
class LogRule:
    """Log-determinant surrogate with threshold scale ``tau`` (WEIGHT / rho
    in the solvers); its positivity constant is :data:`DEFAULT_EPSILON`."""

    tau: float

    def __post_init__(self):
        check_scalar("tau", self.tau, 0)

    def thresholds(self, sigma, sigma_prev=None):
        """tau / (base + epsilon), with base the previous iterate's spectrum
        ``sigma_prev``, or ``sigma`` itself on a cold start.  A spectrum is
        >= 0: a negative or NaN base raises UsageError, since it would give
        a negative threshold that grows a singular value."""
        base = np.asarray(sigma if sigma_prev is None else sigma_prev)
        if len(base) != len(sigma):
            raise UsageError(
                f"sigma_prev length {len(base)} does not match spectrum "
                f"size {len(sigma)}"
            )
        if not np.all(base >= 0):
            raise UsageError("a spectrum must be >= 0, got a negative or NaN value")
        # a huge tau overflows to an infinite threshold, which zeroes its
        # value as any threshold above it would
        with np.errstate(over="ignore"):
            return self.tau * log_weights(base, DEFAULT_EPSILON)

    def penalty(self, sigma):
        """sum_i log(sigma_i + epsilon)."""
        return float(np.sum(np.log(sigma + DEFAULT_EPSILON)))


@dataclass(frozen=True)
class TruncatedRule:
    """Truncated nuclear norm with threshold ``tau``; the ``r`` largest
    singular values are exempt, and ``r = 0`` is the nuclear norm."""

    tau: float
    r: int = 0

    def __post_init__(self):
        check_scalar("tau", self.tau, 0)
        check_scalar("r", self.r, 0, integer=True)

    def thresholds(self, sigma, sigma_prev=None):
        """0 on the first ``r`` values and tau on the rest; requires
        r < len(sigma)."""
        n = len(sigma)
        if self.r >= n:
            raise UsageError(
                f"r={self.r} must be < {n} (the number of singular values)"
            )
        t = np.full(n, self.tau)
        t[: self.r] = 0.0
        return t

    def penalty(self, sigma):
        """sum_{i >= r} sigma_i."""
        return float(np.sum(sigma[self.r:]))


def apply_shrinkage(z, rule, sigma_prev=None, work=None, submit=None):
    """Shrink the singular values of ``z`` by the thresholds of ``rule``.

    Returns (matrix, shrunk_sigma) where shrunk_sigma holds the output's
    singular values max(sigma_i - threshold_i, 0), still descending for
    both rules.

    With A the input, the kernel takes ``w, U = eigh(G)`` with G the Gram
    matrix of A's smaller side: ``A A^T`` for a wide or square A, whose
    left singular vectors U then holds, and ``A^T A`` for a tall A, whose
    right singular vectors it holds; the other singular vectors are never
    formed.  sigma = sqrt(max(w, 0)).  The output is the one product ``(U_r
    diag(shrunk_r / sigma_r) U_r^T) A``, or ``A (U_r diag(shrunk_r /
    sigma_r) U_r^T)^T`` for a tall A, over the components r whose shrunk
    value is nonzero; no other component is divided by.  A is first scaled
    by 2**-e, with e the exponent that puts the peak max|A| in [1, 2), so
    that the largest entry of the Gram matrix lies in [1, 4 m] for m
    entries along the longer side and neither overflows nor underflows.
    The product is formed from the scaled A too, and the small factor ``U_r
    diag(shrunk_r / sigma_r)``, whose entries are at most 1, is scaled by
    2**e, at most 2**1023, before it meets U_r^T, so the output comes out
    in the scale of the input.  Scaling by a power of two is exact and
    commutes with every rounding in the products, unless an entry or
    product is subnormal.  Squaring A squares its condition number:
    singular values below about sqrt(machine epsilon) * sigma_max carry an
    absolute error of that order (an exact zero can come out as large as
    about 1e-8 * sigma_max), and so does shrunk_sigma.  The output matrix
    is built from A rather than from sigma, and against the exact SVD it
    agreed to 1e-14 * sigma_max on wide, tall and rank-deficient inputs.

    ``work`` is a pair of flat float64 arrays of at least ``z.size``
    entries each; without it the kernel allocates the pair itself.  Its
    matrices are the C-order views ``work[k][:z.size].reshape(z.shape)``:
    the scaled A in the second, which the output product reads, and the
    output in the first, which only the product writes.  The returned
    matrix is that view of the first buffer, so the output is C-ordered
    whatever the layout of ``z``, and it is bit for bit the output of the
    C-order copy of ``z``.  ``z`` either shares no memory with ``work`` or
    is a view of ``work[1]``; when it is the C view above, A is scaled in
    place, which is how ``solvers.complete`` runs a mode update in two
    buffers.

    ``submit``, if given, is called with the output product, a function of
    no arguments that runs its one ``np.matmul``, instead of the kernel
    running it; everything else, up to the thresholds, runs in the call.
    The matrix returned holds the output once that function has run, and
    until then the product reads the second buffer and writes the first.
    ``solvers.complete`` passes a ``submit`` that queues the product on a
    helper thread.

    Raises NumericError on non-finite input or eigensolver non-convergence.
    """
    a = np.asarray(z, dtype=np.float64)
    if work is None:
        work = (np.empty(a.size), np.empty(a.size))
    tall = a.shape[0] > a.shape[1]
    # max|a| without a full-size |a| temporary; NaN propagates through both
    peak = np.maximum(a.max(), -a.min())
    if not np.isfinite(peak):
        raise NumericError("shrinkage input contains non-finite values")
    exponent = int(np.frexp(peak)[1]) - 1
    a = np.ldexp(a, -exponent, out=work[1][: a.size].reshape(a.shape))
    try:
        w, u = np.linalg.eigh(a.T @ a if tall else a @ a.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition did not converge: {exc}") from exc
    sigma = np.ldexp(np.sqrt(np.maximum(w[::-1], 0.0)), exponent)
    shrunk = np.maximum(sigma - rule.thresholds(sigma, sigma_prev), 0.0)
    # thresholds are >= 0, so sigma >= shrunk > 0 on every kept component
    keep = shrunk > 0.0
    u = u[:, ::-1][:, keep]
    # 2**e on the left factor undoes the scaling of a
    left = np.ldexp(u * (shrunk[keep] / sigma[keep]), exponent) @ u.T
    mat = work[0][: a.size].reshape(a.shape)
    operands = (a, left.T) if tall else (left, a)
    product = functools.partial(np.matmul, *operands, out=mat)
    if submit is None:
        product()
    else:
        submit(product)
    return mat, shrunk


def soft_threshold(h, kappa):
    """Elementwise sgn(h) * max(|h| - kappa, 0)."""
    check_scalar("kappa", kappa, 0)
    h = np.asarray(h, dtype=np.float64)
    return np.sign(h) * np.maximum(np.abs(h) - kappa, 0.0)
