"""Matrix proximal operators built on singular value shrinkage.

A shrinkage rule is one rank surrogate with its two parts:
``thresholds(sigma, sigma_prev)``, the per-singular-value thresholds of
its proximal step, and ``penalty(sigma)``, the surrogate's value at a
spectrum.  There are two rules:

* :class:`LogRule`: the log-determinant surrogate
  sum(log(sigma_i + epsilon)), thresholded by tau * 1/(sigma_prev + epsilon).
  Larger singular values receive smaller thresholds, so dominant structure
  is preserved while small (noise) values are shrunk hard.
* :class:`TruncatedRule`: the truncated nuclear norm sum_{i >= r} sigma_i.
  The largest ``r`` values pass through unshrunk and the rest get the
  uniform threshold tau; with ``r = 0`` it is the plain nuclear norm and its
  prox, plain singular value thresholding.

``solvers.RULES`` is the one table that maps a completion method to its
rule.  Every rule goes through one spectral kernel, :func:`apply_shrinkage`,
which takes the eigendecomposition of the Gram matrix of the input's
smaller side instead of a full SVD.  An elementwise soft threshold (the l1
prox) rounds out the module.  The exact thin SVD, :func:`svd`, is the
reference the kernel is tested against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .tensor import check_scalar

DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of a matrix: u @ diag(sigma) @ vt, sigma descending."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


def svd(m):
    """Thin SVD with finiteness checking.

    Raises NumericError on non-finite input or LAPACK non-convergence.
    """
    arr = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("SVD input contains non-finite values")
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(u=u, sigma=s, vt=vt)


def log_weights(sigma_prev, epsilon):
    """Reweighting vector 1/(sigma + epsilon); non-decreasing for descending sigma."""
    return 1.0 / (np.asarray(sigma_prev, dtype=np.float64) + epsilon)


@dataclass(frozen=True)
class LogRule:
    """Log-determinant surrogate with threshold scale ``tau`` (alpha_k / rho
    in the solvers) and positivity constant ``epsilon``."""

    tau: float
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        check_scalar("tau", self.tau, 0)
        check_scalar("epsilon", self.epsilon, 0, open_low=True)

    def thresholds(self, sigma, sigma_prev=None):
        """tau / (base + epsilon), with base the previous iterate's spectrum
        ``sigma_prev``, or ``sigma`` itself on a cold start; all 0 when tau
        is 0."""
        base = sigma if sigma_prev is None else np.asarray(sigma_prev)
        if len(base) != len(sigma):
            raise UsageError(
                f"sigma_prev length {len(base)} does not match spectrum "
                f"size {len(sigma)}"
            )
        # a zero tau thresholds nothing, even where a subnormal epsilon
        # makes a weight infinite (0 * inf would be NaN)
        if self.tau == 0:
            return np.zeros(len(base))
        # a tiny epsilon or a huge tau overflows to an infinite threshold,
        # which zeroes its value as any threshold above it would
        with np.errstate(over="ignore"):
            return self.tau * log_weights(base, self.epsilon)

    def penalty(self, sigma):
        """sum_i log(sigma_i + epsilon)."""
        return float(np.sum(np.log(sigma + self.epsilon)))


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


def shrinkage_thresholds(rule, sigma, sigma_prev=None):
    """Per-singular-value threshold vector of ``rule`` at spectrum ``sigma``."""
    return rule.thresholds(sigma, sigma_prev)


def apply_shrinkage(z, rule, sigma_prev=None, work=None):
    """Shrink the singular values of ``z`` by the thresholds of ``rule``.

    Returns (matrix, shrunk_sigma) where shrunk_sigma holds the output's
    singular values max(sigma_i - threshold_i, 0), still descending for
    both rules.

    With A the input or its transpose, whichever is wide, the kernel takes
    ``w, U = eigh(A A^T)`` and sigma = sqrt(max(w, 0)), so U holds the left
    singular vectors and V^T is never formed.  The output is
    ``U_r diag(shrunk_r / sigma_r) U_r^T A`` over the components r whose
    shrunk value is nonzero; no other component is divided by.  A is first
    scaled by 2**-e, with e the exponent of max|A| (so the peak lies in
    [0.5, 1)), so that A A^T neither overflows nor underflows.  U_r^T A is
    formed from the scaled A too, and the small left factor
    ``U_r diag(shrunk_r / sigma_r)``, whose entries are at most 1, is
    scaled by 2**e (by 2**1023 and the output by 2 when e is 1024), so the
    output comes out in the scale of the input.  Scaling by a power of two
    is exact and commutes with every rounding in the products, unless an
    entry or product is subnormal.  Squaring A squares its condition
    number: singular values below about sqrt(machine epsilon) * sigma_max
    carry an absolute error of that order (an exact zero can come out as
    large as about 1e-8 * sigma_max), and so does shrunk_sigma.  The output
    matrix is built from U_r^T A rather than from sigma, and against the
    exact SVD it agreed to 1e-14 * sigma_max on wide, tall and
    rank-deficient inputs.

    ``work`` is a pair of flat float64 arrays of at least ``z.size``
    entries each: the first holds U_r^T A, the second the scaled A and
    then the output, and the returned matrix is a view of it.  Without
    ``work`` the kernel allocates the pair itself.  ``z`` either shares no
    memory with ``work`` or is ``work[1][:z.size]`` reshaped to its shape
    in C or Fortran order; then A is scaled in place and the output
    overwrites it, which is how ``solvers.complete`` runs a mode update in
    two buffers.

    Raises NumericError on non-finite input or eigensolver non-convergence.
    """
    a = np.asarray(z, dtype=np.float64)
    if work is None:
        work = (np.empty(a.size), np.empty(a.size))
    scratch, out = work
    tall = a.shape[0] > a.shape[1]
    if tall:
        a = a.T
    # max|a| without a full-size |a| temporary; NaN propagates through both
    peak = np.maximum(a.max(), -a.min())
    if not np.isfinite(peak):
        raise NumericError("shrinkage input contains non-finite values")
    exponent = int(np.frexp(peak)[1])
    # the layout np.ldexp would give a, so the products are unchanged; when
    # z is this view of work[1], the scaling runs in place
    a = np.ldexp(a, -exponent, out=out[: a.size].reshape(
        a.shape, order="F" if a.flags.f_contiguous else "C"))
    try:
        w, u = np.linalg.eigh(a @ a.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition did not converge: {exc}") from exc
    sigma = np.ldexp(np.sqrt(np.maximum(w[::-1], 0.0)), exponent)
    shrunk = np.maximum(sigma - rule.thresholds(sigma, sigma_prev), 0.0)
    # thresholds are >= 0, so sigma >= shrunk > 0 on every kept component
    keep = shrunk > 0.0
    u = u[:, ::-1][:, keep]
    rows = np.matmul(u.T, a, out=scratch[: u.shape[1] * a.shape[1]].reshape(
        u.shape[1], a.shape[1]))
    # a is not read again, so the output may take its memory; 2**e on the
    # left factor undoes the scaling of a, and a left factor entry of 1
    # times 2**1024 would overflow
    head = min(exponent, 1023)
    left = np.ldexp(u * (shrunk[keep] / sigma[keep]), head)
    mat = np.matmul(left, rows, out=out[: a.size].reshape(a.shape))
    if exponent > head:
        np.ldexp(mat, exponent - head, out=mat)
    return (mat.T if tall else mat), shrunk


def soft_threshold(h, kappa):
    """Elementwise sgn(h) * max(|h| - kappa, 0)."""
    check_scalar("kappa", kappa, 0)
    h = np.asarray(h, dtype=np.float64)
    return np.sign(h) * np.maximum(np.abs(h) - kappa, 0.0)
