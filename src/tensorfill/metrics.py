"""Recovery-quality metrics and anomaly-detection scoring.

MAPE = (100/n) * sum |y - yhat| / |y| over evaluation entries whose ground
truth is nonzero (|y| >= 1e-9); entries below that are excluded from MAPE
(counted in n_excluded_zero) because the ratio is undefined at y = 0.
RMSE is computed over every evaluation entry regardless.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .tensor import check_mask, check_scalar, check_tensor

ZERO_TRUTH_CUTOFF = 1e-9


@dataclass(frozen=True)
class EvalReport:
    """mape is NaN when every evaluation entry was zero-excluded."""

    mape: float
    rmse: float
    n_evaluated: int
    n_excluded_zero: int


def evaluate(truth, recovered, eval_set):
    """Score ``recovered`` against ``truth`` on the entries of ``eval_set``."""
    truth = check_tensor(truth, "truth")
    recovered = check_tensor(recovered, "recovered")
    eval_set = check_mask(eval_set, truth.shape, name="eval_set")
    if recovered.shape != truth.shape:
        raise InputError(
            f"recovered shape {recovered.shape} does not match truth "
            f"shape {truth.shape}"
        )
    if not np.any(eval_set):
        raise InputError("evaluation set is empty")
    y = truth[eval_set]
    yhat = recovered[eval_set]
    err = y - yhat
    rmse = float(np.sqrt(np.mean(err ** 2)))
    nonzero = np.abs(y) >= ZERO_TRUTH_CUTOFF
    n_eval = int(np.count_nonzero(nonzero))
    if n_eval:
        mape = float(
            100.0 * np.mean(np.abs(err[nonzero]) / np.abs(y[nonzero]))
        )
    else:
        mape = float("nan")
    return EvalReport(
        mape=mape,
        rmse=rmse,
        n_evaluated=n_eval,
        n_excluded_zero=int(y.size - n_eval),
    )


def anomaly_score(e_hat, omega_c, threshold):
    """Precision/recall/F1 of thresholded anomaly magnitudes against omega_c.

    Predicted positives are entries with |e_hat| > threshold.  Conventions:
    precision is 1 when nothing is predicted, recall is 1 when omega_c is
    empty, and F1 is 0 when precision + recall is 0.
    """
    check_scalar("threshold", threshold, 0)
    e_hat = check_tensor(e_hat, "e_hat")
    omega_c = check_mask(omega_c, e_hat.shape, name="omega_c")
    predicted = np.abs(e_hat) > threshold
    tp = float(np.count_nonzero(predicted & omega_c))
    n_pred = float(np.count_nonzero(predicted))
    n_act = float(np.count_nonzero(omega_c))
    precision = tp / n_pred if n_pred else 1.0
    recall = tp / n_act if n_act else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1
