"""Evaluation tests: MAPE/RMSE arithmetic and anomaly scoring."""

import math

import numpy as np
import pytest

from tensorfill.errors import InputError
from tensorfill.metrics import anomaly_score, evaluate


def _pair(truth_vals, rec_vals):
    """Wrap two value lists as 1x1xN tensors with a full evaluation set."""
    truth = np.array(truth_vals).reshape(1, 1, -1)
    rec = np.array(rec_vals).reshape(1, 1, -1)
    return truth, rec, np.ones_like(truth, dtype=bool)


def test_evaluate_worked_example():
    truth, rec, sel = _pair([100.0, 50.0], [90.0, 55.0])
    report = evaluate(truth, rec, sel)
    assert report.mape == pytest.approx(10.0)
    assert report.rmse == pytest.approx(math.sqrt(62.5), abs=1e-4)
    assert report.n_evaluated == 2
    assert report.n_excluded_zero == 0
    # a real or integer 0/1 evaluation set scores the same as the bool one
    for same in (sel.astype(float), sel.astype(np.uint8)):
        assert evaluate(truth, rec, same) == report


def test_evaluate_perfect_recovery():
    truth, rec, sel = _pair([3.0, 7.0, 1.0], [3.0, 7.0, 1.0])
    report = evaluate(truth, rec, sel)
    assert report.mape == 0.0
    assert report.rmse == 0.0


def test_evaluate_zero_truth_excluded_from_mape():
    truth, rec, sel = _pair([0.0, 10.0], [1.0, 10.0])
    report = evaluate(truth, rec, sel)
    assert report.mape == 0.0
    assert report.n_excluded_zero == 1
    assert report.n_evaluated == 1
    assert report.rmse == pytest.approx(math.sqrt(0.5))


def test_evaluate_all_zero_truth_gives_nan_mape():
    truth, rec, sel = _pair([0.0, 0.0], [1.0, 2.0])
    report = evaluate(truth, rec, sel)
    assert math.isnan(report.mape)
    assert report.rmse == pytest.approx(math.sqrt(2.5))
    assert report.n_evaluated == 0
    assert report.n_excluded_zero == 2


def test_evaluate_counts_partition_eval_set():
    rng = np.random.default_rng(0)
    truth = rng.uniform(0.0, 5.0, size=(4, 5, 3))
    truth[truth < 1.0] = 0.0
    rec = rng.uniform(0.0, 5.0, size=(4, 5, 3))
    sel = rng.uniform(size=(4, 5, 3)) < 0.6
    report = evaluate(truth, rec, sel.astype(float))
    assert report.n_evaluated + report.n_excluded_zero == int(sel.sum())


def test_evaluate_permutation_invariant():
    rng = np.random.default_rng(1)
    vals_t = rng.uniform(1.0, 9.0, size=24)
    vals_r = rng.uniform(1.0, 9.0, size=24)
    perm = rng.permutation(24)
    a = evaluate(*_pair(vals_t, vals_r))
    b = evaluate(*_pair(vals_t[perm], vals_r[perm]))
    assert a.mape == pytest.approx(b.mape, rel=1e-12)
    assert a.rmse == pytest.approx(b.rmse, rel=1e-12)


def test_evaluate_scaling_property():
    rng = np.random.default_rng(2)
    truth = rng.uniform(1.0, 9.0, size=(3, 4, 5))
    rec = rng.uniform(1.0, 9.0, size=(3, 4, 5))
    sel = np.ones((3, 4, 5), dtype=bool)
    base = evaluate(truth, rec, sel)
    scaled = evaluate(4.0 * truth, 4.0 * rec, sel)
    assert scaled.mape == pytest.approx(base.mape, rel=1e-12)
    assert scaled.rmse == pytest.approx(4.0 * base.rmse, rel=1e-12)


def test_rmse_matches_projected_frobenius():
    rng = np.random.default_rng(3)
    truth = rng.uniform(1.0, 9.0, size=(5, 4, 3))
    rec = rng.uniform(1.0, 9.0, size=(5, 4, 3))
    sel = (rng.uniform(size=(5, 4, 3)) < 0.5).astype(float)
    n = int(sel.sum())
    report = evaluate(truth, rec, sel)
    assert report.rmse == pytest.approx(
        np.linalg.norm((truth - rec) * sel) / math.sqrt(n), rel=1e-12
    )


def test_evaluate_rejects_empty_set_and_mismatch():
    truth = np.ones((2, 2, 2))
    with pytest.raises(InputError):
        evaluate(truth, truth, np.zeros((2, 2, 2)))
    with pytest.raises(InputError):
        evaluate(truth, np.ones((2, 2, 3)), np.ones((2, 2, 2)))


def test_anomaly_score_exact_indicator():
    omega_c = np.zeros((3, 3, 3))
    omega_c[0, 1, 2] = 1.0
    omega_c[2, 0, 0] = 1.0
    e_hat = 10.0 * omega_c
    assert anomaly_score(e_hat, omega_c, 5.0) == (1.0, 1.0, 1.0)


def test_anomaly_score_zero_estimate_misses_everything():
    omega_c = np.zeros((2, 2, 2))
    omega_c[0, 0, 0] = 1.0
    precision, recall, f1 = anomaly_score(np.zeros((2, 2, 2)), omega_c, 0.5)
    assert precision == 1.0  # empty predicted set convention
    assert recall == 0.0
    assert f1 == 0.0


def test_anomaly_score_empty_corruption_set():
    e_hat = np.zeros((2, 2, 2))
    e_hat[1, 1, 1] = 3.0
    precision, recall, f1 = anomaly_score(e_hat, np.zeros((2, 2, 2)), 1.0)
    assert recall == 1.0
    assert precision == 0.0
    assert f1 == 0.0


def test_anomaly_score_predictions_without_hits():
    """Predicted entries that are all outside omega_c give precision and
    recall 0, and F1 0 without dividing by zero."""
    omega_c = np.zeros((2, 2, 2))
    omega_c[0, 0, 0] = 1.0
    e_hat = np.zeros((2, 2, 2))
    e_hat[1, 1, 1] = 3.0
    assert anomaly_score(e_hat, omega_c, 1.0) == (0.0, 0.0, 0.0)


def test_anomaly_score_threshold_strictness():
    """Entries exactly at the threshold are not flagged."""
    omega_c = np.zeros((1, 1, 2))
    omega_c[0, 0, 0] = 1.0
    e_hat = np.zeros((1, 1, 2))
    e_hat[0, 0, 0] = 2.0
    assert anomaly_score(e_hat, omega_c, 2.0)[1] == 0.0
    assert anomaly_score(e_hat, omega_c, 1.999)[1] == 1.0


def test_anomaly_score_mixed_counts():
    omega_c = np.zeros((1, 1, 4))
    omega_c[0, 0, :2] = 1.0  # two true anomalies
    e_hat = np.zeros((1, 1, 4))
    e_hat[0, 0, 0] = 5.0  # true positive
    e_hat[0, 0, 2] = -5.0  # false positive (negative spike still counts)
    precision, recall, f1 = anomaly_score(e_hat, omega_c, 1.0)
    for same in (omega_c.astype(bool), omega_c.astype(int)):
        assert anomaly_score(e_hat, same, 1.0) == (precision, recall, f1)
    assert precision == pytest.approx(0.5)
    assert recall == pytest.approx(0.5)
    assert f1 == pytest.approx(0.5)
