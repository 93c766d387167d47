"""Matrix proximal operators built on singular value shrinkage.

Three shrinkage rules share one spectral kernel, :func:`apply_shrinkage`,
which takes the eigendecomposition of the Gram matrix of the input's
smaller side instead of a full SVD.  The rules differ only in how the
per-singular-value thresholds are formed:

* ``log_weighted``: thresholds tau * 1/(sigma_prev + epsilon), the proximal
  step of the log-determinant surrogate sum(log(sigma_i + epsilon)).  Larger
  singular values receive smaller thresholds, so dominant structure is
  preserved while small (noise) values are shrunk hard.
* ``plain``: uniform threshold tau, the nuclear-norm prox.
* ``truncated``: the largest ``truncation_r`` values pass through unshrunk,
  the remainder get the uniform threshold.

An elementwise soft threshold (the l1 prox) and the log-surrogate objective
evaluator round out the module.  The exact thin SVD, :func:`svd`, serves
the objective evaluators.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError

DEFAULT_EPSILON = 1e-6

SHRINKAGE_KINDS = ("log_weighted", "plain", "truncated")


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of a matrix: u @ diag(sigma) @ vt, sigma descending."""

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


@dataclass(frozen=True)
class ShrinkageSpec:
    """Which shrinkage rule to apply to an unfolded matrix.

    tau is the threshold scale (alpha_k / rho in the solvers), epsilon the
    positivity constant of the log surrogate, truncation_r the number of
    leading singular values exempt from shrinkage (truncated kind only).
    """

    kind: str
    tau: float
    epsilon: float = DEFAULT_EPSILON
    truncation_r: int = 0

    def __post_init__(self):
        if self.kind not in SHRINKAGE_KINDS:
            raise UsageError(f"unknown shrinkage kind {self.kind!r}")
        if self.tau < 0:
            raise UsageError(f"tau must be >= 0, got {self.tau}")
        if self.epsilon <= 0:
            raise UsageError(f"epsilon must be > 0, got {self.epsilon}")
        if self.truncation_r < 0:
            raise UsageError(
                f"truncation_r must be >= 0, got {self.truncation_r}"
            )


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


def shrinkage_thresholds(spec, sigma, sigma_prev=None):
    """Per-singular-value threshold vector for ``spec`` given current sigma.

    For the log_weighted kind the weights come from ``sigma_prev`` when
    available (the previous iterate's spectrum) and from ``sigma`` itself on
    a cold start.
    """
    n = len(sigma)
    if spec.kind == "plain":
        return np.full(n, spec.tau)
    if spec.kind == "truncated":
        if spec.truncation_r >= n:
            raise UsageError(
                f"truncation_r={spec.truncation_r} must be < {n} "
                "(the number of singular values)"
            )
        t = np.full(n, spec.tau)
        t[: spec.truncation_r] = 0.0
        return t
    base = sigma if sigma_prev is None else np.asarray(sigma_prev)
    if len(base) != n:
        raise UsageError(
            f"sigma_prev length {len(base)} does not match spectrum size {n}"
        )
    return spec.tau * log_weights(base, spec.epsilon)


def apply_shrinkage(z, spec, sigma_prev=None):
    """Shrink the singular values of ``z`` per ``spec``.

    Returns (matrix, shrunk_sigma) where shrunk_sigma holds the output's
    singular values max(sigma_i - threshold_i, 0), still descending for all
    three kinds.

    With A the input or its transpose, whichever is wide, the kernel takes
    ``w, U = eigh(A A^T)`` and sigma = sqrt(max(w, 0)), so U holds the left
    singular vectors and V^T is never formed.  The output is
    ``U_r diag(shrunk_r / sigma_r) U_r^T A`` over the components r whose
    shrunk value is nonzero; no other component is divided by.  A is first
    scaled by a power of two, which is exact, so that A A^T neither
    overflows nor underflows.  Squaring A squares its condition number:
    singular values below about sqrt(machine epsilon) * sigma_max carry an
    absolute error of that order (an exact zero can come out as large as
    about 1e-8 * sigma_max), and so does shrunk_sigma.  The output matrix is built
    from U_r^T A rather than from sigma, and against the exact SVD it agreed
    to 1e-14 * sigma_max on wide, tall and rank-deficient inputs.

    Raises NumericError on non-finite input or eigensolver non-convergence.
    """
    a = np.asarray(z, dtype=np.float64)
    tall = a.shape[0] > a.shape[1]
    if tall:
        a = a.T
    # max|a| without a full-size |a| temporary; NaN propagates through both
    peak = np.maximum(a.max(), -a.min())
    if not np.isfinite(peak):
        raise NumericError("shrinkage input contains non-finite values")
    exponent = int(np.frexp(peak)[1])
    scaled = np.ldexp(a, -exponent)
    try:
        w, u = np.linalg.eigh(scaled @ scaled.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition did not converge: {exc}") from exc
    sigma = np.ldexp(np.sqrt(np.maximum(w[::-1], 0.0)), exponent)
    thresholds = shrinkage_thresholds(spec, sigma, sigma_prev)
    shrunk = np.maximum(sigma - thresholds, 0.0)
    # thresholds are >= 0, so sigma >= shrunk > 0 on every kept component
    keep = shrunk > 0.0
    u = u[:, ::-1][:, keep]
    out = (u * (shrunk[keep] / sigma[keep])) @ (u.T @ a)
    return (out.T if tall else out), shrunk


def weighted_svt(z, tau, epsilon=DEFAULT_EPSILON, sigma_prev=None):
    """Log-surrogate weighted singular value thresholding.

    Computes U (Sigma - tau * diag(w))_+ V^T with w = 1/(sigma_prev + epsilon);
    when sigma_prev is None the weights come from z's own spectrum.  Returns
    (matrix, shrunk_sigma) like :func:`apply_shrinkage`.
    """
    spec = ShrinkageSpec(kind="log_weighted", tau=tau, epsilon=epsilon)
    return apply_shrinkage(z, spec, sigma_prev)


def plain_svt(z, tau):
    """Uniform singular value thresholding U (Sigma - tau I)_+ V^T.

    Returns (matrix, shrunk_sigma) like :func:`apply_shrinkage`.
    """
    return apply_shrinkage(z, ShrinkageSpec(kind="plain", tau=tau))


def truncated_svt(z, tau, r):
    """Thresholding that exempts the r largest singular values.

    Values beyond rank r are shrunk by tau and floored at zero; requires
    0 <= r < min(z.shape).  Returns (matrix, shrunk_sigma).
    """
    spec = ShrinkageSpec(kind="truncated", tau=tau, truncation_r=int(r))
    return apply_shrinkage(z, spec)


def soft_threshold(h, kappa):
    """Elementwise sgn(h) * max(|h| - kappa, 0)."""
    if kappa < 0:
        raise UsageError(f"kappa must be >= 0, got {kappa}")
    h = np.asarray(h, dtype=np.float64)
    return np.sign(h) * np.maximum(np.abs(h) - kappa, 0.0)


def log_surrogate(m, epsilon=DEFAULT_EPSILON):
    """Surrogate rank measure sum_i log(sigma_i(m) + epsilon)."""
    if epsilon <= 0:
        raise UsageError(f"epsilon must be > 0, got {epsilon}")
    return float(np.sum(np.log(svd(m).sigma + epsilon)))
