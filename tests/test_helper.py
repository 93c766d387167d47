"""The helper thread of ``solvers.complete``: above :data:`PIPELINE_MIN`
entries, with two CPUs and one BLAS thread, each mode's output product runs
on a helper while the loop decomposes the next mode.  The helper changes
no bit, and it is gone when ``complete`` returns or raises.

Each test forces the gate, so that it does not depend on the CPUs or the
BLAS variables of the machine it runs on.
"""

import hashlib
import os
import threading
import time

import numpy as np
import pytest

from tensorfill import solvers
from tensorfill.datagen import SyntheticSpec, rm_mask, synthesize
from tensorfill.errors import NumericError
from tensorfill.solvers import METHODS, PIPELINE_MIN, SolverConfig, complete

DIMS = (72, 64, 60)
QUIETLY = solvers._quietly
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _instance():
    y = synthesize(SyntheticSpec(DIMS, 3, 0.5, 7))
    mask = rm_mask(DIMS, 0.4, 1007)
    return y * mask, mask


def _force(monkeypatch, helper, delay=0.0):
    """Force the gate to ``helper``; return the list of threads that ran a
    call on the helper, filled in as the solve runs.  Each call on the
    helper starts ``delay`` seconds late, so that a missing wait in the
    loop lets it read or write a buffer before the call is done."""
    threads = []

    def counted(fn):
        threads.append(threading.current_thread())
        time.sleep(delay)
        QUIETLY(fn)

    monkeypatch.setattr(solvers, "use_helper", lambda size: helper)
    monkeypatch.setattr(solvers, "_quietly", counted)
    return threads


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _run(monkeypatch, helper, observed, mask, cfg):
    threads = _force(monkeypatch, helper, delay=0.002)
    snapshots = []

    def hook(state):
        snapshots.append(_digest(state.m, state.m_pre_constraint, *state.lk,
                                 *state.tk, *(state.ek or ())))

    result = complete(observed, mask, cfg, iter_hook=hook)
    outputs = (
        result.recovered.tobytes(),
        None if result.anomaly is None else result.anomaly.tobytes(),
        np.array(result.objective_history).tobytes(),
        result.iterations, result.converged, result.ranks,
    )
    return outputs, snapshots, threads


def test_the_test_tensor_is_above_the_gate():
    assert np.prod(DIMS) >= PIPELINE_MIN


@pytest.mark.parametrize("method", METHODS)
def test_helper_gives_the_serial_bits(monkeypatch, method):
    """Every output and every hook snapshot is byte-equal with the helper
    on and off, and with it on, every queued call runs on the helper."""
    observed, mask = _instance()
    # at this rho the halrtc ranks fall below half of each side, so the
    # helper runs products whose left factor has low rank as well as full
    cfg = SolverConfig(method, rho=3e-4, tol=1e-300, max_iters=6,
                       truncation_rate=0.3)
    serial, serial_snaps, none = _run(monkeypatch, False, observed, mask, cfg)
    piped, piped_snaps, threads = _run(monkeypatch, True, observed, mask, cfg)
    assert none == []
    # three products and mode 1's two copies per iteration
    assert len(threads) == 5 * cfg.max_iters
    assert threading.main_thread() not in threads
    assert piped == serial
    assert piped_snaps == serial_snaps
    assert len(serial_snaps) == cfg.max_iters


def _overflowing():
    """Entries near 1e308: the first iteration's kernels overflow."""
    rng = np.random.default_rng(5)
    mask = rm_mask(DIMS, 0.4, 1005)
    return 1e308 * rng.uniform(0.5, 1.0, DIMS) * mask, mask


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_helper_is_shut_down_on_every_exit(monkeypatch, fails):
    start = threading.active_count()
    threads = _force(monkeypatch, True)
    cfg = SolverConfig("halrtc", rho=7e-4, tol=1e-300, max_iters=3)
    if fails:
        with pytest.raises(NumericError, match="iteration 1"):
            complete(*_overflowing(), cfg)
    else:
        complete(*_instance(), cfg)
    assert threads
    assert threading.active_count() == start


@pytest.mark.parametrize("method", METHODS)
def test_overflow_on_the_helper_is_a_numeric_error(monkeypatch, method):
    """The helper runs its calls under the loop's error state: under the
    suite's ``filterwarnings = error``, a RuntimeWarning raised there would
    come out of ``complete`` in place of the NumericError."""
    threads = _force(monkeypatch, True)
    with pytest.raises(NumericError, match=f"{method}: non-finite values"):
        complete(*_overflowing(), SolverConfig(method, rho=7e-4, max_iters=3))
    assert threads


def test_helper_calls_run_under_the_loop_error_state():
    """A queued call that overflows raises no warning on a thread of its
    own, whose error state is numpy's default.  No input to the solves above
    has made the helper's products raise one: an overflowing spectrum makes
    the kernel's left factor NaN on the loop's thread, and NaN propagates
    through the products quietly."""
    from concurrent.futures import ThreadPoolExecutor

    big = np.full((4, 4), 1e308)
    with ThreadPoolExecutor(1) as pool:
        pool.submit(QUIETLY, lambda: np.matmul(big, big)).result()


@pytest.mark.parametrize("size, cpus, env, expected", [
    (PIPELINE_MIN, 2, {"OPENBLAS_NUM_THREADS": "1"}, True),
    (PIPELINE_MIN - 1, 2, {"OPENBLAS_NUM_THREADS": "1"}, False),
    (PIPELINE_MIN, 1, {"OPENBLAS_NUM_THREADS": "1"}, False),
    # with no variable set, BLAS runs a thread per CPU
    (PIPELINE_MIN, 2, {}, False),
    (PIPELINE_MIN, 2, {"OPENBLAS_NUM_THREADS": "2"}, False),
    (PIPELINE_MIN, 2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    (PIPELINE_MIN, 2, {"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    (PIPELINE_MIN, 2, {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
    (PIPELINE_MIN, 2, {"OMP_NUM_THREADS": "1"}, True),
    # a value that is not a positive integer passes to the next variable
    (PIPELINE_MIN, 2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    (PIPELINE_MIN, 2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, False),
])
def test_gate_reads_size_cpus_and_blas_threads(monkeypatch, size, cpus, env,
                                               expected):
    # raising=False: the test also runs where os has no sched_getaffinity
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert solvers.use_helper(size) is expected


@pytest.mark.parametrize("cpus, expected", [(1, False), (2, True)])
def test_gate_counts_cpus_without_sched_getaffinity(monkeypatch, cpus,
                                                    expected):
    """Where os has no sched_getaffinity (macOS, Windows), the gate counts
    the CPUs with os.cpu_count() instead of raising AttributeError."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert solvers.use_helper(PIPELINE_MIN) is expected
