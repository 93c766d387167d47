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
same file as another of them or as ``--tensor`` or ``--mask``.  ``eval``
exits 2 in the same way when ``--json-out``, ``--csv-out`` or the
``--manifest`` it rewrites names the same file as another of them or as
``--truth``, ``--mask`` or ``--recovered``, and ``corrupt`` and ``ingest``
when one of their two outputs names the other or one of their inputs.
``rerun`` verifies every recorded hash (the inputs and the eval truth and
mask), then exits 2 with every file untouched, and ``--workdir`` not yet
created, when a replayed output would land on the manifest, on a file it
records, or on another replayed output.  Next, before reading an input
tensor, mask or CSV, each of these exits 3 (``cannot write <path>``) when
an output path is a directory or its directory does not exist, and so do
``synth`` and ``mask`` before they generate anything.  Every command
checks its parameters first, and ``complete --anomaly-out`` with a method
other than ``rtcpfnc``, which writes no anomaly tensor, exits 2.

``eval --manifest`` and ``rerun`` read a manifest through one check,
:func:`_load_manifest`, so both exit 3, before they write anything, on
the same manifests: a bad schema, a config value that :class:`SolverConfig`
refuses, a top-level ``method`` that is not the config's, inputs that are
not one tensor and one mask, and outputs that are not one file for each
role ``complete`` writes for the method.  ``eval --manifest`` also exits
3, before it writes anything, when ``--recovered`` is not the recovered
output the manifest records, by its sha256.

Exit codes: 0 success, 2 usage error, 3 input/format error, 4 numeric
error.  A failed rerun comparison exits 1.  Running out of memory, as
``synth`` does at dims whose tensor numpy cannot allocate, exits 3 with
one ``error:`` line and nothing written.
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
from .prox import DEFAULT_EPSILON
from .solvers import METHODS, WEIGHT, SolverConfig, complete, default_lambda
from .tensor import check_dims, check_scalar

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
# The config keys a manifest may record: the SolverConfig fields, and three
# of older manifests.  ``threads`` sized a removed per-mode thread pool whose
# results were bit-identical to serial, so _load_manifest checks it and
# ignores it.  ``epsilon`` and ``alpha``, once fields, are now the model's
# constants (the log rule's epsilon and the mode weights): _load_manifest
# accepts a manifest that records one only at its value in CONSTANTS.
CONSTANTS = {"epsilon": DEFAULT_EPSILON, "alpha": [WEIGHT] * 3}
CONFIG_KEYS = (frozenset(f.name for f in dataclasses.fields(SolverConfig))
               | {"threads"} | set(CONSTANTS))


def _parse_dims(text):
    """Parse ``"n1,n2,n3"`` into a tuple of three positive ints."""
    try:
        return check_dims([int(p) for p in text.split(",")])
    except ValueError:
        raise UsageError(f"dims must be integers, got {text!r}")


def _sha256(path):
    """Return the hex SHA-256 of a file's bytes."""
    try:
        with open(path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _check_hash(entry, path):
    """Raise InputError unless the file at ``path`` has the sha256 that the
    manifest's file record ``entry`` holds."""
    actual = _sha256(path)
    if actual != entry["sha256"]:
        raise InputError(
            f"hash mismatch for {entry['role']} file {path}: "
            f"manifest {entry['sha256'][:12]}.., actual {actual[:12]}..")


def _file_entry(role, path):
    return {"role": role, "path": os.fspath(path), "sha256": _sha256(path)}


def _write_json(path, payload):
    """Write ``payload`` as RFC 8259 JSON: a NaN or infinity raises."""
    data = (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode()
    atomic_write_bytes(path, data)


def _require(record, keys, where):
    """Raise InputError unless ``record`` is a JSON object holding ``keys``,
    a mapping of each key to the type (or types) of its value, and the path
    of a file record holds no NUL byte (no file name can).  A JSON true or
    false is a bool only, never an integer or a number."""
    if not isinstance(record, dict):
        raise InputError(f"{where} is not a JSON object")
    missing = [k for k in keys if k not in record]
    if missing:
        raise InputError(f"{where} lacks {', '.join(missing)}")
    mistyped = [k for k, kind in keys.items()
                if not isinstance(record[k], kind)
                or (isinstance(record[k], bool) and kind is not bool)]
    if mistyped:
        raise InputError(f"{where}: {', '.join(mistyped)} of the wrong type")
    if keys is FILE_KEYS and "\0" in record["path"]:
        raise InputError(f"{where}: path contains a NUL byte")


def _output_roles(method):
    """The files ``complete`` writes for ``method``, in order, named by the
    :class:`SolverResult` fields they hold."""
    return ("recovered", "anomaly") if method == "rtcpfnc" else ("recovered",)


def _load_manifest(path):
    """Read a run manifest and decide whether eval and rerun can use it.

    Checks its schema, so that they can index it freely, and builds the
    :class:`SolverConfig` it records.  The top-level method must be the
    config's, the inputs one tensor and one mask, and the outputs one file
    per role that ``complete`` writes for the method.  Returns the manifest
    and the config.
    """
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
    config = dict(manifest["config"])
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise InputError(f"{where}: unknown config keys {', '.join(unknown)}")
    try:
        if "threads" in config:
            check_scalar("threads", config.pop("threads"), 1, integer=True)
        for key, value in CONSTANTS.items():
            recorded = config.pop(key, value)
            if recorded != value:
                raise UsageError(f"{key} must be {value!r}, got {recorded!r}")
        cfg = SolverConfig(**config)
    except (UsageError, TypeError, ValueError) as exc:
        raise InputError(f"{where}: bad config value: {exc}")
    if manifest["method"] != cfg.method:
        raise InputError(f"{where}: method {manifest['method']!r} is not the "
                         f"config's {cfg.method!r}")
    for key, roles in (("inputs", ("tensor", "mask")),
                       ("outputs", _output_roles(cfg.method))):
        for entry in manifest[key]:
            _require(entry, FILE_KEYS, f"{where}: {key} entry")
        if sorted(entry["role"] for entry in manifest[key]) != sorted(roles):
            raise InputError(f"{where}: {key} must be one file for each of: "
                             f"{', '.join(roles)}")
    if manifest["eval"] is not None:
        _require(manifest["eval"], EVAL_KEYS, f"{where}: eval")
        for key in ("truth", "mask"):
            _require(manifest["eval"][key], FILE_KEYS, f"{where}: eval {key}")
        try:
            _check_labels(manifest["eval"])
        except UsageError as exc:
            raise InputError(f"{where}: bad eval value: {exc}")
    return manifest, cfg


def _check_labels(labels):
    """Raise UsageError unless rate and gamma lie in [0, 1] and seed is an
    integer >= 0, the domains of ``mask``, ``corrupt`` and every seed, and
    pattern holds no comma, double quote or line break, any of which would
    split or break the CSV row."""
    for name in ("rate", "gamma"):
        check_scalar(name, labels[name], 0, 1)
    check_scalar("seed", labels["seed"], 0, integer=True)
    if any(c in labels["pattern"] for c in ',"\r\n'):
        raise UsageError(f"pattern must hold no comma, double quote or line "
                         f"break, got {labels['pattern']!r}")


def cmd_synth(args):
    spec = SyntheticSpec(
        dims=_parse_dims(args.dims),
        rank=args.rank,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    _check_targets([("output", args.out)], [])
    tensor = synthesize(spec)
    write_tensor(args.out, tensor)
    print(f"synth: dims={args.dims} rank={spec.rank} seed={spec.seed} -> {args.out}")
    return 0


def cmd_mask(args):
    dims = _parse_dims(args.dims)
    # the generators check these too, but only after the output path
    check_scalar("missing_rate", args.rate, 0, 1)
    check_scalar("seed", args.seed, 0, integer=True)
    _check_targets([("output", args.out)], [])
    if args.pattern == "rm":
        mask = rm_mask(dims, args.rate, args.seed)
    else:
        mask = nm_mask(dims, args.rate, args.seed)
    write_mask(args.out, mask)
    missing = np.mean(~mask)
    print(f"mask: pattern={args.pattern} missing_fraction={missing:.3f} -> {args.out}")
    if args.pattern == "nm":
        fibers = int(np.sum(mask.sum(axis=1) == 0))
        print(f"mask: {fibers} fully missing fibers")
    return 0


def cmd_corrupt(args):
    spec = CorruptionSpec(gamma=args.gamma, s=args.s, seed=args.seed)
    _check_targets([("output", args.out), ("omega output", args.omega_out)],
                   [("tensor", args.tensor), ("mask", args.mask)])
    tensor = read_tensor(args.tensor)
    mask = read_mask(args.mask)
    corrupted, omega_c, _ = corrupt(tensor, mask, spec)
    write_tensor(args.out, corrupted)
    write_mask(args.omega_out, omega_c)
    n_corrupt = int(omega_c.sum())
    print(
        f"corrupt: gamma={spec.gamma:g} s={spec.s:g} corrupted_entries={n_corrupt}"
        f" -> {args.out}"
    )
    return 0


def _check_targets(written, kept, workdir=None):
    """Check the (label, path) pairs of ``written`` before any input is read.

    Raises UsageError if one names the same file as another one or as a
    pair of ``kept``.  Then creates ``workdir``, if given, and raises
    InputError, with the message of a failed write, if a path of
    ``written`` is a directory or lies in a directory that does not exist.
    """
    claimed = {os.path.realpath(path): label for label, path in kept}
    for label, path in written:
        real = os.path.realpath(path)
        if real in claimed:
            raise UsageError(f"{label} would overwrite {claimed[real]} ({path})")
        claimed[real] = label
    if workdir is not None:
        try:
            os.makedirs(workdir, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create {workdir}: {exc}")
    for _, path in written:
        if os.path.isdir(path):
            raise InputError(f"cannot write {path}: it is a directory")
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise InputError(f"cannot write {path}: no directory {directory}")


def _solve_and_write(cfg, inputs, outputs):
    """The one solve-and-write step of ``complete`` and ``rerun``, which
    check the output paths with :func:`_check_targets` first.

    Reads the mask and then the tensor at the paths ``inputs`` maps those
    roles to, runs :func:`complete`, and writes each (role, path) pair of
    ``outputs``: the result field the role names, to the path.  Returns the
    result, the output file records and the wall-clock seconds of the
    tensor read and the solve.  A solve whose ranks are all 0 gets one
    ``warning:`` line on stderr, since its output is all zeros.

    The tensor is read inside the call to :func:`complete` and no name here
    holds it, so ``complete`` frees it once it has formed ``M``: a call
    moves its argument references into the callee's frame.  The read, about
    12 ms at 120x96x60, is timed with the solve.
    """
    mask = read_mask(inputs["mask"])
    start = time.perf_counter()
    result = complete(read_tensor(inputs["tensor"]), mask, cfg)
    wall = time.perf_counter() - start
    if not any(result.ranks):
        print(f"warning: every singular value was zeroed, so the output is all"
              f" zeros: rho={cfg.rho:g} is too small for the data's scale",
              file=sys.stderr)
    records = []
    for role, path in outputs:
        write_tensor(path, getattr(result, role))
        records.append(_file_entry(role, path))
    return result, records, wall


def cmd_complete(args):
    cfg = SolverConfig(args.method, rho=args.rho, lam=args.lam, tol=args.tol,
                       max_iters=args.max_iters, truncation_rate=args.trunc_rate)
    roles = _output_roles(cfg.method)
    if args.anomaly_out is not None and "anomaly" not in roles:
        raise UsageError(f"--anomaly-out needs --method rtcpfnc, got {cfg.method}")
    root, ext = os.path.splitext(args.out)
    outputs = list(zip(roles, (args.out, root + ".anomaly" + ext
                               if args.anomaly_out is None else args.anomaly_out)))
    inputs = {"tensor": args.tensor, "mask": args.mask}
    _check_targets([*outputs, ("manifest", args.manifest)], inputs.items())
    result, records, wall = _solve_and_write(cfg, inputs, outputs)

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
        "ranks": list(result.ranks),
        "eval": None,
        "csv_row": None,
    }
    _write_json(args.manifest, manifest)
    print(
        f"complete: method={cfg.method} iterations={result.iterations}"
        f" converged={result.converged}"
        f" ranks={','.join(map(str, result.ranks))} wall={wall:.2f}s -> {args.out}"
    )
    return 0


def _score(truth_path, mask_path, recovered, method, iters, *, on_observed,
           pattern, rate, gamma, seed):
    """The one score-and-row step of ``eval`` and ``rerun``: score
    ``recovered`` against the truth on the held-out entries of the mask (the
    observed ones if ``on_observed``) and render the CSV row from the
    labels; an undefined MAPE renders as ``nan``.  Returns the report and
    the row."""
    truth = read_tensor(truth_path)
    mask = read_mask(mask_path)
    report = evaluate(truth, recovered, mask if on_observed else ~mask)
    row = ",".join([method, "x".join(map(str, truth.shape)), pattern,
                    f"{rate:g}", f"{gamma:g}", str(seed), f"{report.mape:.6f}",
                    f"{report.rmse:.6f}", str(iters)])
    return report, row


def cmd_eval(args):
    written = [(label, path) for label, path in (
        ("json report", args.json_out), ("csv report", args.csv_out),
        ("manifest", args.manifest)) if path is not None]
    labels = {key: getattr(args, key) for key in EVAL_LABELS}
    _check_labels(labels)
    _check_targets(written, [("truth", args.truth), ("mask", args.mask),
                             ("recovered", args.recovered)])
    recovered = read_tensor(args.recovered)
    method, iters, manifest = "-", 0, None
    if args.manifest is not None:
        manifest, cfg = _load_manifest(args.manifest)
        # the score and row go into the manifest only for the run it records
        _check_hash(next(e for e in manifest["outputs"]
                         if e["role"] == "recovered"), args.recovered)
        method, iters = cfg.method, manifest["iterations"]
    report, row = _score(args.truth, args.mask, recovered, method, iters, **labels)

    # JSON has no NaN or infinity: an undefined MAPE, or an RMSE that
    # overflowed, is written as null
    payload = {key: None if isinstance(value, float) and not math.isfinite(value)
               else value for key, value in dataclasses.asdict(report).items()}
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
    print(f"eval: mape={report.mape:.6f} rmse={report.rmse:.6f}")
    print(row)
    return 0


def cmd_ingest(args):
    dims = _parse_dims(args.dims)
    _check_targets([("output", args.out), ("mask output", args.mask_out)],
                   [("csv", args.csv)])
    tensor, mask = ingest_csv(args.csv, dims)
    write_tensor(args.out, tensor)
    write_mask(args.mask_out, mask)
    print(f"ingest: dims={args.dims} observed_fraction={mask.mean():.3f} -> {args.out}")
    return 0


def cmd_rerun(args):
    manifest, cfg = _load_manifest(args.manifest)
    info = manifest["eval"]
    scored = [] if info is None else [info["truth"], info["mask"]]
    for entry in manifest["inputs"] + scored:
        _check_hash(entry, entry["path"])

    recorded = manifest["outputs"]
    replay = [(e["role"], os.path.join(args.workdir, os.path.basename(e["path"])))
              for e in recorded]
    inputs = {e["role"]: e["path"] for e in manifest["inputs"]}
    kept = [(f"recorded {e['role']}", e["path"]) for e in recorded + scored]
    _check_targets(replay, [*inputs.items(), *kept, ("manifest", args.manifest)],
                   args.workdir)
    result, outputs, _ = _solve_and_write(cfg, inputs, replay)
    for entry, output in zip(recorded, outputs):
        if output["sha256"] != entry["sha256"]:
            print(f"rerun: output {entry['role']} differs")
            return 1

    if info is not None:
        _, row = _score(info["truth"]["path"], info["mask"]["path"],
                        result.recovered, cfg.method, result.iterations,
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a MemoryError, as numpy raises for an array it cannot allocate, is
    # reported as an input error: the input asked for too much
    except (TensorfillError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return getattr(exc, "exit_code", InputError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
