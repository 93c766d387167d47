"""Reproducible experiment inputs: missing masks, sparse corruption, synthetics.

Everything here is a pure function of its arguments and an integer seed
>= 0, each scalar checked by :func:`tensor.check_scalar` and the dims by
:func:`tensor.check_dims` (UsageError if bad).  The generator is Philox
(counter-based), so streams are stable across platforms and numpy
releases of the same major line.  Fractional counts round half to even.
Linear entry order is always first-index-fastest, matching the on-disk
layout, so drawn index sets are stable too.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import check_dims, check_mask, check_scalar, check_tensor


@dataclass(frozen=True)
class CorruptionSpec:
    """Uniform sparse corruption: a fraction gamma of observed entries gets
    y -> max(y + e, 0) with e ~ U(-s, s)."""

    gamma: float
    s: float
    seed: int

    def __post_init__(self):
        check_scalar("gamma", self.gamma, 0, 1)
        # U(-s, s) needs a finite width 2s >= 0, so -0.0 is stored as 0.0
        s = check_scalar("s", self.s, 0, np.finfo(np.float64).max / 2)
        object.__setattr__(self, "s", abs(s))
        check_scalar("seed", self.seed, 0, integer=True)


@dataclass(frozen=True)
class SyntheticSpec:
    """Low-rank ground truth: sum of ``rank`` positive outer products
    (random space factor, random-phase daily sinusoid, near-constant day
    factor) plus Gaussian noise of scale noise_sigma, clamped at 0."""

    dims: tuple
    rank: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        dims = check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        check_scalar("rank", self.rank, 1, min(dims), integer=True)
        check_scalar("noise_sigma", self.noise_sigma, 0)
        check_scalar("seed", self.seed, 0, integer=True)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _count(rate, n):
    # round half to even keeps fractional counts deterministic
    return int(round(rate * n))


def rm_mask(dims, missing_rate, seed):
    """Random-missing bool mask: exactly round(rate * n) entries unobserved
    (False), drawn uniformly without replacement."""
    n1, n2, n3 = dims = check_dims(dims)
    check_scalar("missing_rate", missing_rate, 0, 1)
    check_scalar("seed", seed, 0, integer=True)
    n = n1 * n2 * n3
    k = _count(missing_rate, n)
    flat = np.ones(n, dtype=bool)
    flat[_rng(seed).choice(n, size=k, replace=False)] = False
    return flat.reshape(dims, order="F")


def nm_mask(dims, missing_rate, seed):
    """Non-random-missing bool mask: whole mode-2 fibers dropped.

    round(rate * n1 * n3) of the (i1, i3) fiber positions are drawn uniformly
    and all n2 entries of each are marked missing, so the achieved missing
    fraction is within one fiber of the target.
    """
    n1, n2, n3 = dims = check_dims(dims)
    check_scalar("missing_rate", missing_rate, 0, 1)
    check_scalar("seed", seed, 0, integer=True)
    fibers = n1 * n3
    k = _count(missing_rate, fibers)
    p = _rng(seed).choice(fibers, size=k, replace=False)
    mask = np.ones(dims, dtype=bool)
    mask[p % n1, :, p // n1] = False
    return mask


def corrupt(y, mask, spec):
    """Plant uniform sparse outliers on a fraction gamma of observed entries.

    Returns (corrupted, omega_c, omega_o): corrupted entries are
    max(y + e, 0) with e ~ U(-s, s); other observed entries keep their
    values; unobserved entries are 0.  omega_c and omega_o are bool masks
    that partition the observed set.
    """
    y = check_tensor(y, "y")
    mask = check_mask(mask, y.shape)
    rng = _rng(spec.seed)
    observed = np.flatnonzero(mask.ravel(order="F"))
    k = _count(spec.gamma, observed.size)
    hit = observed[rng.choice(observed.size, size=k, replace=False)]
    flat = (y * mask).ravel(order="F")
    flat[hit] = np.maximum(flat[hit] + rng.uniform(-spec.s, spec.s, size=k), 0.0)
    omega_c = np.zeros(flat.size, dtype=bool)
    omega_c[hit] = True
    omega_c = omega_c.reshape(y.shape, order="F")
    return flat.reshape(y.shape, order="F"), omega_c, mask & ~omega_c


def synthesize(spec):
    """Generate the low-rank nonnegative ground-truth tensor for ``spec``."""
    n1, n2, n3 = spec.dims
    rng = _rng(spec.seed)
    x = np.zeros(spec.dims)
    hours = np.arange(n2)
    for _ in range(spec.rank):
        u = rng.uniform(5.0, 45.0, size=n1)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        v = 1.1 + np.sin(2.0 * np.pi * hours / n2 + phase)
        w = rng.uniform(0.5, 1.5, size=n3)
        x += np.einsum("i,j,k->ijk", u, v, w)
    if spec.noise_sigma > 0:
        x += rng.normal(0.0, spec.noise_sigma, size=spec.dims)
    return np.maximum(x, 0.0)
