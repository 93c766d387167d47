"""Command-line front end for the tensor completion toolkit.

Subcommands
-----------
synth
    Generate a seeded synthetic low-rank tensor and write it as TNS1.
mask
    Generate a seeded observation mask (random or fiber missing) as MSK1.
corrupt
    Plant seeded sparse outliers on the observed entries of a tensor.
complete
    Run a completion method and write the recovered tensor, the anomaly
    tensor (robust method only), and a JSON run manifest.
eval
    Score a recovered tensor against the ground truth and emit the report
    as JSON plus a single CSV row.
ingest
    Convert a location-by-time CSV matrix into a TNS1 tensor and MSK1 mask.
rerun
    Replay the run a manifest records through the code of ``complete`` and
    ``eval``, and check that the outputs and the CSV row reproduce.

Outputs never overwrite inputs: ``complete`` exits 2, before it reads or
writes anything, when ``-o``, the anomaly path or ``--manifest`` names the
same file as another of them or as ``--tensor`` or ``--mask``, and exits
3 (``cannot write``) when the directory of one of them does not exist.
``eval`` exits 2 in the same way when ``--json-out``, ``--csv-out`` or the
``--manifest`` it rewrites names the same file as another of them or as
``--truth``, ``--mask`` or ``--recovered``.  ``rerun`` verifies every
recorded hash (the inputs and the eval truth and mask) before it writes
anything, and exits 2 with every file untouched, and ``--workdir`` not yet
created, when a replayed output under ``--workdir`` would land on the
manifest, on a file it records, or on another replayed output.

Exit codes: 0 success, 2 usage error, 3 input/format error, 4 numeric
error.  A failed rerun comparison exits 1.  The ``--threads`` flag of
``complete`` defaults to the ``TENSORFILL_THREADS`` environment variable;
a value of it that is not an integer is a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .datagen import (
    CorruptionSpec,
    SyntheticSpec,
    corrupt,
    nm_mask,
    rm_mask,
    synthesize,
)
from .errors import InputError, TensorfillError, UsageError
from .io import (
    atomic_write_bytes,
    ingest_csv,
    read_mask,
    read_tensor,
    write_mask,
    write_tensor,
)
from .metrics import evaluate
from .solvers import METHODS, SolverConfig, complete, default_lambda
from .tensor import check_dims

CSV_HEADER = "method,dims,pattern,rate,gamma,seed,mape,rmse,iters"
MANIFEST_VERSION = 1
# Keys of a manifest and of the records inside it that eval and rerun read,
# with the JSON types their values must have.
NUMBER = (int, float)
MANIFEST_KEYS = {"method": str, "config": dict, "inputs": list, "outputs": list,
                 "iterations": int, "eval": (dict, type(None)),
                 "csv_row": (str, type(None))}
FILE_KEYS = {"role": str, "path": str, "sha256": str}
# The labels of an eval record: the keyword arguments of _score.
EVAL_LABELS = {"on_observed": bool, "pattern": str, "rate": NUMBER,
               "gamma": NUMBER, "seed": int}
EVAL_KEYS = {"truth": dict, "mask": dict, **EVAL_LABELS}
CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(SolverConfig))


def _parse_dims(text):
    """Parse ``"n1,n2,n3"`` into a tuple of three positive ints."""
    try:
        return check_dims([int(p) for p in text.split(",")])
    except ValueError:
        raise UsageError(f"dims must be integers, got {text!r}")


def _parse_alpha(text):
    """Parse ``"a1,a2,a3"`` into a tuple of three floats."""
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected three comma-separated weights, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"weights must be numeric, got {text!r}")


def _sha256(path):
    """Return the hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return digest.hexdigest()


def _file_entry(role, path):
    return {"role": role, "path": os.fspath(path), "sha256": _sha256(path)}


def _verify_entry(entry):
    """Check a manifest file entry's hash, raising on any mismatch."""
    actual = _sha256(entry["path"])
    if actual != entry["sha256"]:
        raise InputError(
            f"hash mismatch for {entry['role']} file {entry['path']}: "
            f"manifest {entry['sha256'][:12]}.., actual {actual[:12]}.."
        )


def _fmt_float(value):
    """Format a metric for the CSV row, stable across reruns."""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.6f}"


def format_csv_row(method, dims, pattern, rate, gamma, seed, mape, rmse, iters):
    """Render the single report row of ``eval`` and ``rerun``."""
    return ",".join([method, "x".join(str(d) for d in dims), pattern,
                     f"{rate:g}", f"{gamma:g}", str(seed), _fmt_float(mape),
                     _fmt_float(rmse), str(iters)])


def _write_json(path, payload):
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    atomic_write_bytes(path, data)


def _require(record, keys, where):
    """Raise InputError unless ``record`` is a JSON object holding ``keys``,
    a mapping of each key to the type (or types) of its value, and the path
    of a file record holds no NUL byte (no file name can)."""
    if not isinstance(record, dict):
        raise InputError(f"{where} is not a JSON object")
    missing = [k for k in keys if k not in record]
    if missing:
        raise InputError(f"{where} lacks {', '.join(missing)}")
    mistyped = [k for k, kind in keys.items() if not isinstance(record[k], kind)]
    if mistyped:
        raise InputError(f"{where}: {', '.join(mistyped)} of the wrong type")
    if keys is FILE_KEYS and "\0" in record["path"]:
        raise InputError(f"{where}: path contains a NUL byte")


def _load_manifest(path):
    """Read a run manifest and check its schema, so that eval and rerun can
    index it freely."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read manifest {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # ValueError covers bytes that are not UTF-8 as well as bad JSON
        raise InputError(f"manifest {path} is not valid UTF-8 JSON: {exc}")
    where = f"manifest {path}"
    _require(manifest, {"manifest_version": int}, where)
    if manifest["manifest_version"] != MANIFEST_VERSION:
        raise InputError(f"{where} has unsupported version")
    _require(manifest, MANIFEST_KEYS, where)
    config = manifest["config"]
    _require(config, {"method": str}, f"{where}: config")
    unknown = sorted(set(config) - CONFIG_FIELDS)
    if unknown:
        raise InputError(f"{where}: unknown config keys {', '.join(unknown)}")
    for key in ("inputs", "outputs"):
        for entry in manifest[key]:
            _require(entry, FILE_KEYS, f"{where}: {key} entry")
    roles = {entry["role"] for entry in manifest["inputs"]}
    if not {"tensor", "mask"} <= roles:
        raise InputError(f"{where}: inputs need a tensor and a mask entry")
    if manifest["eval"] is not None:
        _require(manifest["eval"], EVAL_KEYS, f"{where}: eval")
        for key in ("truth", "mask"):
            _require(manifest["eval"][key], FILE_KEYS, f"{where}: eval {key}")
    return manifest


def _solver_config(args):
    threads = args.threads
    if threads is None:
        text = os.environ.get("TENSORFILL_THREADS", "1")
        try:
            threads = int(text)
        except ValueError:
            raise UsageError(f"TENSORFILL_THREADS must be an integer, got {text!r}")
    return SolverConfig(
        method=args.method,
        alpha=_parse_alpha(args.alpha),
        rho=args.rho,
        lam=args.lam,
        tol=args.tol,
        max_iters=args.max_iters,
        truncation_rate=args.trunc_rate,
        threads=threads,
    )


def cmd_synth(args):
    spec = SyntheticSpec(
        dims=_parse_dims(args.dims),
        rank=args.rank,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    tensor = synthesize(spec)
    write_tensor(args.out, tensor)
    print(f"synth: dims={args.dims} rank={spec.rank} seed={spec.seed} -> {args.out}")
    return 0


def cmd_mask(args):
    dims = _parse_dims(args.dims)
    if args.pattern == "rm":
        mask = rm_mask(dims, args.rate, args.seed)
    else:
        mask = nm_mask(dims, args.rate, args.seed)
    write_mask(args.out, mask)
    missing = 1.0 - mask.mean()
    print(f"mask: pattern={args.pattern} missing_fraction={missing:.3f} -> {args.out}")
    if args.pattern == "nm":
        fibers = int(np.sum(mask.sum(axis=1) == 0))
        print(f"mask: {fibers} fully missing fibers")
    return 0


def cmd_corrupt(args):
    tensor = read_tensor(args.tensor)
    mask = read_mask(args.mask)
    spec = CorruptionSpec(gamma=args.gamma, s=args.s, seed=args.seed)
    corrupted, omega_c, _ = corrupt(tensor, mask, spec)
    write_tensor(args.out, corrupted)
    write_mask(args.omega_out, omega_c)
    n_corrupt = int(omega_c.sum())
    print(
        f"corrupt: gamma={spec.gamma:g} s={spec.s:g} corrupted_entries={n_corrupt}"
        f" -> {args.out}"
    )
    return 0


def _check_targets(written, kept):
    """Raise UsageError if a (label, path) pair of ``written`` names the
    same file as another one or as a pair of ``kept``."""
    claimed = {os.path.realpath(path): label for label, path in kept}
    for label, path in written:
        real = os.path.realpath(path)
        if real in claimed:
            raise UsageError(f"{label} would overwrite {claimed[real]} ({path})")
        claimed[real] = label


def _check_directory(path):
    """Raise InputError, with the message of a failed write, if the
    directory ``path`` would be written into does not exist."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise InputError(f"cannot write {path}: no directory {directory}")


def _solve_and_write(cfg, inputs, outputs, written=(), kept=(), workdir=None):
    """The one solve-and-write step of ``complete`` and ``rerun``.

    Reads the tensor and mask at the paths ``inputs`` maps those roles to,
    runs :func:`complete`, and writes each (role, path) pair of ``outputs``
    (recovered, anomaly).  Before anything is read, exits through
    :func:`_check_targets` if an output would land on an input, on a
    (label, path) pair of ``kept``, on another output or on a pair of
    ``written`` (files the caller writes); then creates ``workdir``, if
    given, and raises InputError if the directory of an output or of a
    ``written`` path does not exist.  Returns the result, the output file
    records and the solve's wall-clock seconds.
    """
    _check_targets([*outputs, *written], [*inputs.items(), *kept])
    if workdir is not None:
        try:
            os.makedirs(workdir, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create {workdir}: {exc}")
    for _, path in [*outputs, *written]:
        _check_directory(path)
    tensor = read_tensor(inputs["tensor"])
    mask = read_mask(inputs["mask"])
    start = time.perf_counter()
    result = complete(tensor, mask, cfg)
    wall = time.perf_counter() - start
    records = []
    for role, path in outputs:
        write_tensor(path, result.recovered if role == "recovered" else result.anomaly)
        records.append(_file_entry(role, path))
    return result, records, wall


def cmd_complete(args):
    cfg = _solver_config(args)
    outputs = [("recovered", args.out)]
    if cfg.method == "rtcpfnc":
        root, ext = os.path.splitext(args.out)
        outputs.append(("anomaly", root + ".anomaly" + ext
                        if args.anomaly_out is None else args.anomaly_out))
    inputs = {"tensor": args.tensor, "mask": args.mask}
    result, records, wall = _solve_and_write(
        cfg, inputs, outputs, written=[("manifest", args.manifest)])

    shape = result.recovered.shape
    resolved_lam = cfg.lam if cfg.lam is not None else default_lambda(shape)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "tool": "tensorfill",
        "method": cfg.method,
        "config": dataclasses.asdict(dataclasses.replace(cfg, lam=resolved_lam)),
        "inputs": [_file_entry(role, path) for role, path in inputs.items()],
        "outputs": records,
        "wall_clock_sec": wall,
        "iterations": result.iterations,
        "converged": result.converged,
        "eval": None,
        "csv_row": None,
    }
    _write_json(args.manifest, manifest)
    print(
        f"complete: method={cfg.method} iterations={result.iterations}"
        f" converged={result.converged} wall={wall:.2f}s -> {args.out}"
    )
    return 0


def _score(truth_path, mask_path, recovered, method, iters, *, on_observed,
           pattern, rate, gamma, seed):
    """The one score-and-row step of ``eval`` and ``rerun``: score
    ``recovered`` against the truth on the held-out entries of the mask (the
    observed ones if ``on_observed``) and render the CSV row from the
    labels.  Returns the report and the row."""
    truth = read_tensor(truth_path)
    mask = read_mask(mask_path)
    eval_set = mask if on_observed else 1.0 - mask
    report = evaluate(truth, recovered, eval_set.astype(bool))
    row = format_csv_row(method, truth.shape, pattern, rate, gamma, seed,
                         report.mape, report.rmse, iters)
    return report, row


def cmd_eval(args):
    written = [(label, path) for label, path in (
        ("json report", args.json_out), ("csv report", args.csv_out),
        ("manifest", args.manifest)) if path is not None]
    _check_targets(written, [("truth", args.truth), ("mask", args.mask),
                             ("recovered", args.recovered)])
    recovered = read_tensor(args.recovered)
    method, iters, manifest = "-", 0, None
    if args.manifest is not None:
        manifest = _load_manifest(args.manifest)
        method, iters = manifest["method"], manifest["iterations"]
    labels = {key: getattr(args, key) for key in EVAL_LABELS}
    report, row = _score(args.truth, args.mask, recovered, method, iters, **labels)

    payload = dataclasses.asdict(report)
    if args.json_out is not None:
        _write_json(args.json_out, payload)
    if args.csv_out is not None:
        atomic_write_bytes(args.csv_out, (CSV_HEADER + "\n" + row + "\n").encode())
    if manifest is not None:
        manifest["eval"] = {
            "truth": _file_entry("truth", args.truth),
            "mask": _file_entry("mask", args.mask),
            **labels,
            "report": payload,
        }
        manifest["csv_row"] = row
        _write_json(args.manifest, manifest)
    print(f"eval: mape={_fmt_float(report.mape)} rmse={_fmt_float(report.rmse)}")
    print(row)
    return 0


def cmd_ingest(args):
    dims = _parse_dims(args.dims)
    tensor, mask = ingest_csv(args.csv, dims)
    write_tensor(args.out, tensor)
    write_mask(args.mask_out, mask)
    print(f"ingest: dims={args.dims} observed_fraction={mask.mean():.3f} -> {args.out}")
    return 0


def cmd_rerun(args):
    manifest = _load_manifest(args.manifest)
    info = manifest["eval"]
    scored = [] if info is None else [info["truth"], info["mask"]]
    for entry in manifest["inputs"] + scored:
        _verify_entry(entry)
    try:
        cfg = SolverConfig(**manifest["config"])
    except (UsageError, TypeError, ValueError) as exc:
        raise InputError(f"manifest {args.manifest}: bad config value: {exc}")

    recorded = manifest["outputs"]
    replay = [(e["role"], os.path.join(args.workdir, os.path.basename(e["path"])))
              for e in recorded]
    kept = [(f"recorded {e['role']}", e["path"]) for e in recorded + scored]
    result, outputs, _ = _solve_and_write(
        cfg, {e["role"]: e["path"] for e in manifest["inputs"]}, replay,
        kept=kept + [("manifest", args.manifest)], workdir=args.workdir)
    for entry, output in zip(recorded, outputs):
        if output["sha256"] != entry["sha256"]:
            print(f"rerun: output {entry['role']} differs")
            return 1

    if info is not None:
        _, row = _score(info["truth"]["path"], info["mask"]["path"],
                        result.recovered, manifest["method"], result.iterations,
                        **{key: info[key] for key in EVAL_LABELS})
        print(f"recorded: {manifest['csv_row']}")
        print(f"rerun:    {row}")
        if row != manifest["csv_row"]:
            print("rerun: CSV row differs")
            return 1
    print("rerun: identical")
    return 0


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensorfill",
        description="Dense third-order tensor completion toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic low-rank tensor")
    p.add_argument("--dims", required=True, help="tensor dims n1,n2,n3")
    p.add_argument("--rank", type=int, required=True, help="number of components")
    p.add_argument("--noise", type=float, default=0.0, help="noise sigma")
    _add_seed(p)
    p.add_argument("-o", "--out", required=True, help="output TNS1 path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mask", help="generate an observation mask")
    p.add_argument("--dims", required=True, help="tensor dims n1,n2,n3")
    p.add_argument("--pattern", required=True, choices=("rm", "nm"))
    p.add_argument("--rate", type=float, required=True, help="missing rate in [0,1]")
    _add_seed(p)
    p.add_argument("-o", "--out", required=True, help="output MSK1 path")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("corrupt", help="plant sparse outliers on observed entries")
    p.add_argument("--tensor", required=True, help="input TNS1 path")
    p.add_argument("--mask", required=True, help="observation MSK1 path")
    p.add_argument("--gamma", type=float, required=True, help="corruption rate")
    p.add_argument("--s", type=float, required=True, help="outlier magnitude bound")
    _add_seed(p)
    p.add_argument("-o", "--out", required=True, help="corrupted TNS1 path")
    p.add_argument("--omega-out", required=True, help="corrupted-set MSK1 path")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("complete", help="run a completion method")
    p.add_argument("--tensor", required=True, help="observed TNS1 path")
    p.add_argument("--mask", required=True, help="observation MSK1 path")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--rho", type=float, default=SolverConfig.rho, help="ADMM penalty")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="anomaly sparsity weight (robust method)")
    p.add_argument("--tol", type=float, default=SolverConfig.tol, help="stop tolerance")
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--trunc-rate", type=float, default=SolverConfig.truncation_rate,
                   help="truncation rate for the tnn method")
    # repr round-trips, so the default parses back to the library's weights
    p.add_argument("--alpha", default=",".join(map(repr, SolverConfig.alpha)),
                   help="mode weights a1,a2,a3 summing to 1")
    p.add_argument("--threads", type=int, default=None,
                   help="per-mode worker threads (default TENSORFILL_THREADS or 1)")
    p.add_argument("-o", "--out", required=True, help="recovered TNS1 path")
    p.add_argument("--anomaly-out", default=None,
                   help="anomaly TNS1 path (robust method; default <out>.anomaly)")
    p.add_argument("--manifest", required=True, help="run manifest JSON path")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("eval", help="score a recovered tensor")
    p.add_argument("--truth", required=True, help="ground-truth TNS1 path")
    p.add_argument("--recovered", required=True, help="recovered TNS1 path")
    p.add_argument("--mask", required=True, help="observation MSK1 path")
    p.add_argument("--on-observed", action="store_true",
                   help="evaluate on observed entries instead of held-out ones")
    p.add_argument("--manifest", default=None,
                   help="manifest JSON to annotate with the evaluation")
    p.add_argument("--pattern", default="-", help="mask pattern label for the row")
    p.add_argument("--rate", type=float, default=0.0, help="missing rate label")
    p.add_argument("--gamma", type=float, default=0.0, help="corruption rate label")
    _add_seed(p)
    p.add_argument("--json-out", default=None, help="report JSON path")
    p.add_argument("--csv-out", default=None, help="report CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ingest", help="convert a CSV matrix to TNS1 and MSK1")
    p.add_argument("--csv", required=True, help="input CSV path")
    p.add_argument("--dims", required=True, help="tensor dims n1,n2,n3")
    p.add_argument("-o", "--out", required=True, help="output TNS1 path")
    p.add_argument("--mask-out", required=True, help="output MSK1 path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rerun", help="replay a recorded completion run")
    p.add_argument("--manifest", required=True, help="run manifest JSON path")
    p.add_argument("--workdir", required=True, help="directory for replayed outputs")
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TensorfillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
