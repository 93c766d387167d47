"""Per-layer metrics of the traced run.

:func:`install` wraps the public tensorfill names that ``solvers``, ``prox``
and ``cli`` look up at call time (plus the datagen and metrics calls the
workloads make), giving each span a layer-qualified name.
:func:`layer_metrics` turns the recorded spans into the ``per_layer``
metrics of ``BENCHMARK.json``.  A metric whose span name could not be
wrapped, because a refactor removed the function, is left out rather than
reported as zero.
"""

import math

import numpy as np

import tensorfill
from tensorfill import cli, datagen, metrics, prox, solvers

from spans import self_times

METHODS = ("tcpfnc", "rtcpfnc", "halrtc", "tnn")
SOLVE = "solvers.complete"


def _solve_info(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return cfg.method, np.shape(args[0]), result.iterations, result.converged


def _shape(args, kwargs, result):
    return np.shape(args[0])


def _shrink_info(args, kwargs, result):
    return np.shape(args[0]), int(np.count_nonzero(result[1]))


def _nbytes(args, kwargs, result):
    """Bytes read from array arguments plus bytes of the returned array."""
    return sum(a.nbytes for a in args if isinstance(a, np.ndarray)) + result.nbytes


def _wrap_table():
    table = [
        (tensorfill, "complete", SOLVE, _solve_info),
        (cli, "complete", SOLVE, _solve_info),
        (solvers, "apply_shrinkage", "prox.apply_shrinkage", _shrink_info),
        (prox, "svd", "prox.svd", _shape),
        (solvers, "soft_threshold", "prox.soft_threshold", None),
        (solvers, "unfold", "tensor.unfold", _nbytes),
        (solvers, "fold", "tensor.fold", _nbytes),
        (solvers, "apply_constraint", "tensor.apply_constraint", _nbytes),
        (cli, "main", "cli.main", None),
        (cli, "read_tensor", "io.read", None),
        (cli, "read_mask", "io.read", None),
        (cli, "write_tensor", "io.write", None),
        (cli, "write_mask", "io.write", None),
        (cli, "atomic_write_bytes", "io.write", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (cli, "evaluate", "metrics.evaluate", None),
    ]
    for module in (datagen, cli):
        for attr in ("synthesize", "rm_mask", "nm_mask", "corrupt"):
            table.append((module, attr, "datagen", None))
    return table


def install(tracer):
    """Wrap every layer function; return the span names that got a wrapper."""
    return {name for module, attr, name, info in _wrap_table()
            if tracer.wrap(module, attr, name, info)}


# Loop layers: the span names inside a ``complete`` span and the metric
# each one's self time goes to.  Per-mode metrics get a ``.m<k>`` suffix.
LOOP_TIMES = {
    SOLVE: "solvers.self_us_per_iter",
    "prox.svd": "prox.svd_us",
    "prox.apply_shrinkage": "prox.shrink_self_us",
    "prox.soft_threshold": "prox.soft_threshold_us",
    "tensor.unfold": "tensor.unfold_us",
    "tensor.fold": "tensor.fold_us",
    "tensor.apply_constraint": "tensor.constraint_us",
}
PER_MODE = {"prox.svd", "prox.apply_shrinkage"}
TENSOR = ("tensor.unfold", "tensor.fold", "tensor.apply_constraint")


def _mode(shape, dims):
    """Mode k of a tensor of ``dims`` whose unfolding (or its transpose, or
    its Gram matrix) has ``shape``; None if no mode fits."""
    total = int(np.prod(dims))
    for k, n in enumerate(dims):
        if tuple(shape) in ((n, total // n), (total // n, n), (n, n)):
            return k
    return None


def layer_metrics(spans, n_setup, names, headline):
    """Per-layer metrics from a traced set-up (``spans[:n_setup]``) and cycle.

    Loop layers are self times per ADMM iteration over every solve of the
    cycle; io, cli, datagen and metrics are milliseconds per cycle.  Also
    returns whether the reported loop-layer times, times the iterations,
    add up to the solves' durations: they do not when a span inside a solve
    has a name or shape that no metric takes.
    """
    selfs = self_times(spans)
    cycle = range(n_setup, len(spans))
    # a solve that raised has no info; its run already counts as failed
    solves = [i for i in cycle if spans[i].name == SOLVE and spans[i].info]
    iters = sum(spans[i].info[2] for i in solves) or 1

    def dur(i):
        return spans[i].end - spans[i].start

    def solve_of(i):
        while i is not None and spans[i].name != SOLVE:
            i = spans[i].parent
        return i

    def mode_of(i):
        top = solve_of(i)
        info = None if top is None else spans[top].info
        shape = spans[i].info
        if spans[i].name == "prox.apply_shrinkage":
            shape = shape[0]
        return None if info is None else _mode(shape, info[1])

    # every span inside a traced solve goes to exactly one loop metric
    loop_ns, unattributed = {}, 0
    inside = set(solves)
    for i in cycle:
        if solve_of(i) not in inside:
            continue
        metric = LOOP_TIMES.get(spans[i].name)
        if spans[i].name in PER_MODE:
            k = mode_of(i)
            metric = None if k is None else f"{metric}.m{k}"
        if metric is None:
            unattributed += 1
            continue
        loop_ns[metric] = loop_ns.get(metric, 0) + selfs[i]

    out = {}
    for name, metric in LOOP_TIMES.items():
        if name not in names:
            continue
        for key in ([f"{metric}.m{k}" for k in range(3)]
                    if name in PER_MODE else [metric]):
            out[key] = loop_ns.get(key, 0) / iters / 1e3
    reported_ns = sum(out.values()) * iters * 1e3
    solve_ns = sum(dur(i) for i in solves)
    accounted = unattributed == 0 and math.isclose(
        reported_ns, solve_ns, rel_tol=1e-9, abs_tol=1e-3)

    by_name = {}
    for i in cycle:
        by_name.setdefault(spans[i].name, []).append(i)
    if set(TENSOR) <= names:
        moved = sum(spans[i].info for name in TENSOR
                    for i in by_name.get(name, ()))
        out["tensor.bytes_per_iter"] = moved / iters

    # rank of each mode at the last iteration of the headline solve
    if "prox.apply_shrinkage" in names:
        head = [i for i in solves if spans[i].info[0] == headline][:1]
        ranks = {}
        for i in by_name.get("prox.apply_shrinkage", ()):
            if solve_of(i) in head:
                ranks[mode_of(i)] = spans[i].info[1]
        for k in range(3):
            if k in ranks:
                out[f"prox.rank.m{k}"] = ranks[k]

    for method in METHODS:
        mine = [i for i in solves if spans[i].info[0] == method]
        n = sum(spans[i].info[2] for i in mine)
        out[f"solvers.iters.{method}"] = n
        out[f"solvers.converged.{method}"] = sum(spans[i].info[3] for i in mine)
        out[f"solvers.iter_ms.{method}"] = (
            sum(dur(i) for i in mine) / n / 1e6 if n else 0.0
        )

    for metric, name, measure in (
        ("io.read_ms", "io.read", dur),
        ("io.write_ms", "io.write", dur),
        ("cli.self_ms", "cli.main", lambda i: selfs[i]),
        ("metrics.evaluate_ms", "metrics.evaluate", dur),
    ):
        if name in names:
            out[metric] = sum(measure(i) for i in by_name.get(name, ())) / 1e6
    if "datagen" in names:
        out["datagen.gen_ms"] = sum(
            dur(i) for i in range(n_setup) if spans[i].name == "datagen"
        ) / 1e6
    return ({name: {"value": value, "unit": unit_of(name)}
             for name, value in out.items()}, accounted, unattributed)


def unit_of(metric):
    """Unit of a per-layer metric, read off its name."""
    for marker, unit in (("_us", "us"), ("_ms", "ms"), ("_pct", "%"),
                         ("bytes", "B")):
        if marker in metric:
            return unit
    return "count"
