#!/usr/bin/env python3
"""Run one tensorfill benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-rm --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the last
stdout line is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one extra, traced cycle.
Lines before it report the environment, each solve, and the recovery
quality.  Scratch files go to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One BLAS thread: the desk solves are steadier and no slower with it.  The
# library's per-mode pool stays at one thread too, which the tracer needs.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LIBRARY_THREADS = 1
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60


def pin_threads():
    """Set the BLAS and library thread counts for this process and its children.

    Must run before numpy is imported.  ``TENSORFILL_THREADS`` is the
    default of the CLI's ``--threads``; ``complete`` calls made directly
    use ``SolverConfig.threads``, whose default is also 1.
    """
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    os.environ["TENSORFILL_THREADS"] = str(LIBRARY_THREADS)
    return threads


def import_library():
    """Import tensorfill from this checkout's ``src/``, or exit nonzero."""
    init = SRC / "tensorfill" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no tensorfill source at {init}")
    sys.path.insert(0, str(SRC))
    import tensorfill

    if Path(tensorfill.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported tensorfill from {tensorfill.__file__}")
    return tensorfill


def git_commit():
    """The checkout's commit from ``.git``, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads_in_use():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(seed, threads):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_set": threads,
        "blas_threads_in_use": blas_threads_in_use(),
        "tensorfill_threads": LIBRARY_THREADS,
        "seed": seed,
        "commit": git_commit(),
    }


def setup_probe(workload, seed):
    """Time import plus input generation in this fresh interpreter."""
    start = time.perf_counter()
    import_library()
    import workloads

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workloads.WORKLOADS[workload].setup(seed, tmp)
        elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(workload, seed):
    """Median set-up time over fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_cycles(workload, inputs, seconds):
    """Whole cycles until the next one would end past ``seconds``; at least one."""
    cycles = []
    start = time.perf_counter()
    while True:
        cycles.append(workload.cycle(inputs))
        elapsed = time.perf_counter() - start
        if elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            return cycles


def traced_cycle(workload, seed, workdir, untraced_solve_s):
    """Set up and run one cycle under the tracer; return per-layer metrics."""
    import perlayer
    import spans

    tracer = spans.Tracer()
    names = perlayer.install(tracer)
    try:
        inputs = workload.setup(seed, workdir)
        n_setup = len(tracer.spans)
        cycle = workload.cycle(inputs)
    finally:
        tracer.restore()
    tracer.write(WORK / f"spans-{workload.name}-seed{seed}.jsonl")
    values, accounted, unattributed = perlayer.layer_metrics(
        tracer.spans, n_setup, names, workload.headline)
    values["trace.overhead_pct"] = {
        "value": 100.0 * (cycle.solve_s / untraced_solve_s - 1.0),
        "unit": "%"}
    audit = {"absent": tracer.missing, "unattributed_spans": unattributed,
             "self_times_accounted": accounted}
    return cycle, values, audit


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = pin_threads()
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(args.seed, threads)}))

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        inputs = workload.setup(args.seed, str(workdir / "run"))
        cycles = run_cycles(workload, inputs, args.seconds)
        solve_s = statistics.median(c.solve_s for c in cycles)
        if args.trace:
            traced, layer_values, audit = traced_cycle(
                workload, args.seed, str(workdir / "traced"), solve_s)
            cycles.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for c in cycles for op in c.ops]
    for op in ops:
        status = "ok" if op.ok else "FAILED"
        print(f"solve {op.method:8s} {op.seconds:9.3f} s  {status}  {op.detail}")
    failed = sum(not op.ok for op in ops)
    correct = failed == 0
    if args.trace:
        correct = correct and audit["self_times_accounted"]
        print(json.dumps(audit))
        metrics = layer_values
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "anomaly_f1": {"value": cycles[0].anomaly_f1, "unit": "1"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        # held-out errors of the headline solve: checked per workload but not
        # bounded, because they spread too widely from seed to seed
        report = dict(metrics, rmse={"value": cycles[0].rmse, "unit": "data"},
                      mape={"value": cycles[0].mape, "unit": "%"},
                      rmse_rel={"value": cycles[0].rmse_rel, "unit": "1"})
        for name, m in report.items():
            print(f"metric {name:12s} {m['value']:.6g} {m['unit']}")
        print(f"over {len(cycles)} cycle(s) of {args.workload}, "
              f"{len(ops)} solves attempted, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
