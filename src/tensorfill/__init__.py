"""Low-rank completion of dense third-order tensors.

Recovers missing entries of a partially observed tensor by alternating
per-mode singular value shrinkage with a consensus step (ADMM), optionally
decomposing observations into low-rank structure plus sparse anomalies.
Includes mask/corruption generators and MAPE/RMSE evaluation for building
reproducible completion experiments.
"""

from .datagen import CorruptionSpec, SyntheticSpec, corrupt, nm_mask, rm_mask, synthesize
from .errors import InputError, NumericError, TensorfillError, UsageError
from .io import ingest_csv, read_mask, read_tensor, write_mask, write_tensor
from .metrics import EvalReport, anomaly_score, evaluate
from .prox import (
    DEFAULT_EPSILON,
    LogRule,
    TruncatedRule,
    apply_shrinkage,
    soft_threshold,
)
from .solvers import (
    METHODS,
    RULES,
    SolverConfig,
    SolverResult,
    SolverState,
    WEIGHT,
    complete,
    default_lambda,
)

__version__ = "0.1.0"
