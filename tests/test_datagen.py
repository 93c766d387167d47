"""Data generation tests: masks, corruption, synthetic tensors."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorfill.datagen import (
    CorruptionSpec,
    SyntheticSpec,
    corrupt,
    nm_mask,
    rm_mask,
    synthesize,
)
from tensorfill.errors import UsageError


def test_rm_mask_exact_missing_count():
    mask = rm_mask((10, 10, 10), 0.4, 7)
    assert mask.dtype == np.bool_
    assert mask.size - mask.sum() == 400
    assert 1.0 - mask.mean() == pytest.approx(0.400)


def test_rm_mask_rounds_half_to_even():
    # 0.25 * 2 = 0.5 entries rounds to 0; 0.75 * 2 = 1.5 rounds to 2.
    assert rm_mask((1, 1, 2), 0.25, 0).sum() == 2
    assert rm_mask((1, 1, 2), 0.75, 0).sum() == 0


def test_rm_mask_rate_zero_and_one():
    assert rm_mask((4, 5, 6), 0.0, 1).sum() == 120
    assert rm_mask((4, 5, 6), 1.0, 1).sum() == 0


def test_nm_mask_drops_whole_fibers():
    dims = (5, 12, 4)
    mask = nm_mask(dims, 0.6, 3)
    assert mask.dtype == np.bool_
    fiber_sums = mask.sum(axis=1)
    assert np.all((fiber_sums == 0) | (fiber_sums == 12))
    assert int(np.sum(fiber_sums == 0)) == 12


def test_nm_mask_missing_fraction_matches_fiber_count():
    dims = (6, 8, 5)
    mask = nm_mask(dims, 0.3, 11)
    dropped = int(np.sum(mask.sum(axis=1) == 0))
    assert dropped == 9  # round(0.3 * 30)
    assert 1.0 - mask.mean() == pytest.approx(dropped / 30.0)


@given(st.integers(0, 2 ** 31), st.sampled_from(["rm", "nm"]))
@settings(max_examples=25, deadline=None)
def test_masks_deterministic_in_seed(seed, pattern):
    fn = rm_mask if pattern == "rm" else nm_mask
    np.testing.assert_array_equal(
        fn((6, 7, 4), 0.35, seed), fn((6, 7, 4), 0.35, seed)
    )


def test_mask_rate_validation():
    with pytest.raises(UsageError):
        rm_mask((3, 3, 3), 1.5, 0)
    with pytest.raises(UsageError):
        nm_mask((3, 3, 3), -0.1, 0)
    for bad_seed in (-1, 1.5, None):
        with pytest.raises(UsageError):
            rm_mask((3, 3, 3), 0.5, bad_seed)
    for bad_dims in ((2, 2), (2.5, 2, 2), (True, 2, 2), (2, 2, 0), 4, None):
        for make in (rm_mask, nm_mask):
            with pytest.raises(UsageError):
                make(bad_dims, 0.5, 0)


def test_corrupt_count_and_containment():
    rng = np.random.default_rng(0)
    y = rng.uniform(1.0, 10.0, size=(8, 9, 5))
    mask = rm_mask((8, 9, 5), 0.3, 5)
    spec = CorruptionSpec(gamma=0.1, s=20.0, seed=9)
    corrupted, omega_c, omega_o = corrupt(y, mask, spec)
    n_obs = int(mask.sum())
    assert omega_c.sum() == round(0.1 * n_obs)
    assert omega_c.dtype == omega_o.dtype == np.bool_
    # Corrupted and clean sets partition the observed set.
    np.testing.assert_array_equal(omega_c | omega_o, mask)
    assert not np.any(omega_c & omega_o)


def test_corrupt_changes_only_corrupted_entries():
    rng = np.random.default_rng(1)
    y = rng.uniform(1.0, 10.0, size=(6, 6, 6))
    mask = rm_mask((6, 6, 6), 0.2, 2)
    corrupted, omega_c, _ = corrupt(y, mask, CorruptionSpec(0.15, 50.0, 3))
    untouched = (mask == 1.0) & (omega_c == 0.0)
    np.testing.assert_array_equal(corrupted[untouched], y[untouched])
    np.testing.assert_array_equal(corrupted[mask == 0.0], np.zeros(int((mask == 0).sum())))


def test_corrupt_output_non_negative():
    rng = np.random.default_rng(2)
    y = rng.uniform(0.0, 2.0, size=(7, 5, 4))
    mask = np.ones((7, 5, 4))
    corrupted, _, _ = corrupt(y, mask, CorruptionSpec(0.5, 100.0, 4))
    assert np.all(corrupted >= 0.0)


def test_corrupt_bounded_displacement():
    rng = np.random.default_rng(3)
    y = rng.uniform(1.0, 5.0, size=(6, 8, 3))
    mask = np.ones((6, 8, 3))
    s = 7.5
    corrupted, omega_c, _ = corrupt(y, mask, CorruptionSpec(0.2, s, 5))
    hit = omega_c == 1.0
    assert np.all(corrupted[hit] <= y[hit] + s + 1e-12)
    assert np.all(corrupted[hit] >= np.maximum(y[hit] - s, 0.0) - 1e-12)


def test_corrupt_gamma_zero_is_identity_on_observed():
    rng = np.random.default_rng(4)
    y = rng.uniform(1.0, 5.0, size=(5, 5, 5))
    mask = rm_mask((5, 5, 5), 0.4, 6)
    corrupted, omega_c, omega_o = corrupt(y, mask, CorruptionSpec(0.0, 10.0, 7))
    np.testing.assert_array_equal(corrupted, y * mask)
    assert omega_c.sum() == 0
    np.testing.assert_array_equal(omega_o, mask)


def test_corrupt_deterministic():
    y = np.full((4, 4, 4), 3.0)
    mask = np.ones((4, 4, 4))
    spec = CorruptionSpec(0.25, 5.0, 42)
    a = corrupt(y, mask, spec)
    # a float, an integer and a bool mask give the same outputs
    for same in (mask, mask.astype(int), mask.astype(bool)):
        b = corrupt(y, same, spec)
        for left, right in zip(a, b):
            assert left.dtype == right.dtype
            np.testing.assert_array_equal(left, right)


def test_synthesize_shape_and_positivity():
    spec = SyntheticSpec(dims=(9, 7, 5), rank=2, noise_sigma=0.5, seed=3)
    x = synthesize(spec)
    assert x.shape == (9, 7, 5)
    assert np.all(x >= 0.0)


def test_synthesize_deterministic():
    spec = SyntheticSpec(dims=(6, 8, 4), rank=3, noise_sigma=0.2, seed=12)
    np.testing.assert_array_equal(synthesize(spec), synthesize(spec))


def test_synthesize_noiseless_has_multilinear_rank_at_most_r():
    spec = SyntheticSpec(dims=(10, 12, 6), rank=3, noise_sigma=0.0, seed=5)
    x = synthesize(spec)
    from tensorfill.tensor import unfold

    for mode in range(3):
        sigma = np.linalg.svd(unfold(x, mode), compute_uv=False)
        assert sigma[3] <= 1e-8 * sigma[0]


def test_synthesize_noise_extends_same_factor_draw():
    """Same seed with noise keeps the same underlying factors."""
    clean = synthesize(SyntheticSpec(dims=(8, 6, 4), rank=2, noise_sigma=0.0, seed=9))
    noisy = synthesize(SyntheticSpec(dims=(8, 6, 4), rank=2, noise_sigma=0.01, seed=9))
    # Noise is zero-mean and small; the difference must be noise-scale only.
    assert np.abs(noisy - clean).max() < 0.1


def test_synthetic_spec_validation():
    with pytest.raises(UsageError):
        SyntheticSpec(dims=(4, 4, 4), rank=5, noise_sigma=0.0, seed=0)
    with pytest.raises(UsageError):
        SyntheticSpec(dims=(4, 4, 4), rank=0, noise_sigma=0.0, seed=0)
    with pytest.raises(UsageError):
        SyntheticSpec(dims=(4, 4, 4), rank=2, noise_sigma=-1.0, seed=0)
    with pytest.raises(UsageError):
        CorruptionSpec(gamma=1.5, s=1.0, seed=0)
    with pytest.raises(UsageError):
        CorruptionSpec(gamma=0.5, s=-1.0, seed=0)
    for bad in ({"rank": 1.5}, {"noise_sigma": np.nan}, {"noise_sigma": np.inf},
                {"seed": 1.5}, {"dims": (3.7, 3, 3)}, {"dims": (True, 3, 3)},
                {"dims": 5}, {"dims": (4, 4)}, {"dims": (4, 4, 4, 4)},
                {"dims": (4, 0, 4)}, {"dims": "444"}):
        with pytest.raises(UsageError):
            SyntheticSpec(**{"dims": (4, 4, 4), "rank": 2, **bad})
    # U(-s, s) needs 2s to be finite
    for bad in ({"s": np.nan}, {"s": np.inf}, {"s": 1e308}, {"seed": 1.5}):
        with pytest.raises(UsageError):
            CorruptionSpec(**{"gamma": 0.5, "s": 1.0, "seed": 0, **bad})


# The generator streams, pinned: the first 16 hex digits of the SHA-256 of
# each output's dtype, shape and first-index-fastest bytes.  The cases cover
# rate 0 and 1, gamma 0 and 1, and corruption of an all-missing mask; ``y``
# is the noisy tensor of the "synthesize" case.
DIMS = (5, 4, 3)
STREAMS = {
    "rm": (lambda y: (rm_mask(DIMS, 0.4, 7),), ["7e4f81c93a7423f5"]),
    "rm-rate-0": (lambda y: (rm_mask(DIMS, 0.0, 7),), ["ec035cd763ffb67c"]),
    "rm-rate-1": (lambda y: (rm_mask(DIMS, 1.0, 7),), ["7c08bfb8d59ac5f1"]),
    "nm": (lambda y: (nm_mask(DIMS, 0.4, 7),), ["9a60d0632f8c2a39"]),
    "nm-rate-0": (lambda y: (nm_mask(DIMS, 0.0, 7),), ["ec035cd763ffb67c"]),
    "nm-rate-1": (lambda y: (nm_mask(DIMS, 1.0, 7),), ["7c08bfb8d59ac5f1"]),
    "corrupt": (
        lambda y: corrupt(y, rm_mask(DIMS, 0.4, 7), CorruptionSpec(0.3, 5.0, 3)),
        ["1ef240656163fe06", "569bae8479c8b778", "a36eabb56f4f478d"]),
    "corrupt-gamma-0": (
        lambda y: corrupt(y, rm_mask(DIMS, 0.4, 7), CorruptionSpec(0.0, 5.0, 3)),
        ["b0aa01226404d3fe", "7c08bfb8d59ac5f1", "7e4f81c93a7423f5"]),
    "corrupt-gamma-1": (
        lambda y: corrupt(y, nm_mask(DIMS, 0.4, 7), CorruptionSpec(1.0, 5.0, 3)),
        ["096431788e23cee5", "9a60d0632f8c2a39", "7c08bfb8d59ac5f1"]),
    "corrupt-all-missing": (
        lambda y: corrupt(y, rm_mask(DIMS, 1.0, 7), CorruptionSpec(0.5, 5.0, 3)),
        ["2e8d1e03cfed2736", "7c08bfb8d59ac5f1", "7c08bfb8d59ac5f1"]),
    "synthesize": (lambda y: (y,), ["0db45705cf359627"]),
    "synthesize-noiseless": (
        lambda y: (synthesize(SyntheticSpec(DIMS, 2, 0.0, 9)),), ["ea808e7227cc036a"]),
}


@pytest.mark.parametrize("case", STREAMS)
def test_generator_streams_are_pinned(case):
    make, pinned = STREAMS[case]
    y = synthesize(SyntheticSpec(DIMS, 2, 0.5, 9))
    digests = [
        hashlib.sha256(f"{a.dtype.str}{a.shape}".encode()
                       + a.tobytes(order="F")).hexdigest()[:16]
        for a in make(y)
    ]
    assert digests == pinned
