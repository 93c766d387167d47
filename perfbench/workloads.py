"""The benchmark's workloads: seeded inputs, one cycle of solves, and checks.

Each workload has ``setup(seed, workdir)``, which builds its inputs from the
seed alone, and ``cycle(inputs)``, which runs every solve of the workload
once and checks each result.  Seed offsets follow ``tests/test_acceptance.py``:
synthetic tensor ``s``, mask ``1000+s`` (rm) or ``2000+s`` (nm), corruption
``3000+s``.  Only public tensorfill names are called, always through their
module attribute, so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import tensorfill
from tensorfill import cli, datagen, metrics
from tensorfill import io as tio

DESK_DIMS = (30, 24, 14)
# No relative objective change is below this, so a solve runs its whole
# iteration budget.  Workloads that measure cost per iteration use it.
FIXED_BUDGET_TOL = 1e-300
# Largest held-out RMSE, in units of the noise sigma, that the desk-rm and
# large-cli headline solves may reach.  At the baseline they reach 1.05-1.10
# and 1.02-1.04 on every seed checked, so a solve that stops early or loses
# accuracy shows here first: the frozen criterion-4 bound of 1.2 (absolute)
# leaves a 25% loss unnoticed.
NOISE_FLOOR_BOUND = 1.2


@dataclass
class Op:
    """One solve: its wall time and whether its output passed the checks."""

    method: str
    seconds: float
    ok: bool
    detail: str = ""


@dataclass
class Cycle:
    """One pass over a workload's solves.

    ``rmse`` and ``mape`` are the held-out errors of the headline solve and
    ``rmse_rel`` is that RMSE over the noise sigma of the inputs: 1 is a
    recovery at the noise floor.  ``anomaly_f1`` scores the headline solve's
    anomaly tensor against the planted outliers.
    """

    ops: list = field(default_factory=list)
    rmse: float = float("nan")
    mape: float = float("nan")
    rmse_rel: float = float("nan")
    anomaly_f1: float = float("nan")

    @property
    def solve_s(self):
        return sum(op.seconds for op in self.ops)


def noise_sigma(dims, seed):
    """Noise level of the acceptance protocols: 1% of the noiseless mean."""
    clean = datagen.synthesize(datagen.SyntheticSpec(dims, 3, 0.0, seed))
    return 0.01 * float(clean.mean())


def desk_instance(dims, seed):
    """Rank-3 tensor with noise of standard deviation ``sigma``."""
    sigma = noise_sigma(dims, seed)
    return datagen.synthesize(datagen.SyntheticSpec(dims, 3, sigma, seed)), sigma


def anomaly_f1(anomaly, planted, threshold):
    """F1 of |anomaly| > threshold against the planted outliers.

    A solve without an anomaly term reports none; with no outliers planted
    either, ``anomaly_score`` scores that as a perfect 1.0.
    """
    if anomaly is None:
        anomaly = np.zeros(planted.shape)
    return metrics.anomaly_score(anomaly, planted, threshold)[2]


def _solve(observed, mask, cfg):
    """Time one ``complete`` call.  An exception is caught and reported: the
    benchmark counts the solve as failed and goes on with the next one."""
    start = time.perf_counter()
    try:
        result, error = tensorfill.complete(observed, mask, cfg), ""
    except Exception:  # noqa: BLE001 - any library failure is a failed solve
        result, error = None, traceback.format_exc(limit=-1).strip()
    return result, time.perf_counter() - start, error


def _finite(result, dims):
    return result.recovered.shape == dims and bool(
        np.all(np.isfinite(result.recovered))
    )


@dataclass(frozen=True)
class DeskRm:
    """Criterion-4 protocol for one seed: rm mask, three methods."""

    name = "desk-rm"
    headline = "tcpfnc"
    rmse_bound = 1.2  # frozen criterion-4 bound on tcpfnc RMSE
    dims: tuple = DESK_DIMS
    max_iters: int = 9000

    def setup(self, seed, workdir):
        y, sigma = desk_instance(self.dims, seed)
        mask = datagen.rm_mask(self.dims, 0.4, 1000 + seed)
        return {"y": y, "mask": mask, "observed": y * mask, "sigma": sigma}

    def cycle(self, inputs):
        y, mask = inputs["y"], inputs["mask"]
        held_out = (1.0 - mask).astype(bool)
        out = Cycle()
        for method, extra in (
            ("tcpfnc", {}),
            ("halrtc", {}),
            ("tnn", {"truncation_rate": 0.3}),
        ):
            cfg = tensorfill.SolverConfig(
                method, rho=7e-4, tol=1e-8, max_iters=self.max_iters, **extra
            )
            result, seconds, error = _solve(inputs["observed"], mask, cfg)
            if result is None:
                out.ops.append(Op(method, seconds, False, error))
                continue
            ok = _finite(result, self.dims)
            detail = f"iters={result.iterations}"
            if method == self.headline:
                report = metrics.evaluate(y, result.recovered, held_out)
                out.rmse, out.mape = report.rmse, report.mape
                out.rmse_rel = report.rmse / inputs["sigma"]
                out.anomaly_f1 = anomaly_f1(
                    result.anomaly, np.zeros(self.dims), 0.1 * np.abs(y).max()
                )
                ok = (ok and report.rmse <= self.rmse_bound
                      and out.rmse_rel <= NOISE_FLOOR_BOUND)
                detail += (f" rmse={report.rmse:.4f} bound={self.rmse_bound}"
                           f" rmse_rel={out.rmse_rel:.4f}")
            out.ops.append(Op(method, seconds, ok, detail))
        return out


@dataclass(frozen=True)
class DeskNmRobust:
    """Criterion-5 protocol for one seed: nm mask plus planted outliers.

    The 3000-iteration solves stay far above the noise floor, by a factor
    that depends on the seed, so ``rmse_rel`` gets no bound here.
    """

    name = "desk-nm-robust"
    headline = "rtcpfnc"
    dims: tuple = DESK_DIMS
    max_iters: int = 3000

    def setup(self, seed, workdir):
        y, sigma = desk_instance(self.dims, seed)
        mask = datagen.nm_mask(self.dims, 0.4, 2000 + seed)
        s = float(np.abs(y).max())
        corrupted, planted, _ = datagen.corrupt(
            y, mask, datagen.CorruptionSpec(0.1, s, 3000 + seed)
        )
        return {"y": y, "mask": mask, "observed": corrupted,
                "planted": planted, "s": s, "sigma": sigma}

    def cycle(self, inputs):
        y, mask = inputs["y"], inputs["mask"]
        held_out = (1.0 - mask).astype(bool)
        out = Cycle()
        mapes = {}
        for method, extra in (("rtcpfnc", {"lam": 1.5e-4}), ("tcpfnc", {})):
            cfg = tensorfill.SolverConfig(
                method, rho=5e-6, tol=FIXED_BUDGET_TOL,
                max_iters=self.max_iters, **extra
            )
            result, seconds, error = _solve(inputs["observed"], mask, cfg)
            if result is None:
                out.ops.append(Op(method, seconds, False, error))
                continue
            report = metrics.evaluate(y, result.recovered, held_out)
            mapes[method] = report.mape
            if method == self.headline:
                out.rmse, out.mape = report.rmse, report.mape
                out.rmse_rel = report.rmse / inputs["sigma"]
                out.anomaly_f1 = anomaly_f1(
                    result.anomaly, inputs["planted"], 0.1 * inputs["s"]
                )
            out.ops.append(Op(method, seconds, _finite(result, self.dims),
                              f"iters={result.iterations} mape={report.mape:.4f}"))
        # criterion 5: the robust solve must beat the plain one on MAPE
        robust = out.ops[0]
        robust.ok = robust.ok and len(mapes) == 2 and (
            mapes["rtcpfnc"] < mapes["tcpfnc"])
        return out


def _cli(argv):
    """Run one CLI subcommand in-process, keeping its report off stdout.

    Returns the exit code; an exception the CLI lets through is printed to
    stderr and returned as exit code 1.
    """
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # noqa: BLE001 - a traceback is a failed subcommand
        traceback.print_exc()
        return 1


@dataclass(frozen=True)
class LargeCli:
    """A 120x96x60 halrtc solve with a fixed iteration budget, via the CLI."""

    name = "large-cli"
    headline = "halrtc"
    dims: tuple = (120, 96, 60)
    max_iters: int = 30

    def setup(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        paths = {k: os.path.join(workdir, f)
                 for k, f in (("truth", "truth.tns"), ("mask", "obs.msk"),
                              ("recovered", "recovered.tns"),
                              ("manifest", "run.json"),
                              ("report", "report.json"))}
        dims = ",".join(str(d) for d in self.dims)
        sigma = noise_sigma(self.dims, seed)
        codes = [
            _cli(["synth", "--dims", dims, "--rank", "3", "--noise", repr(sigma),
                  "--seed", str(seed), "-o", paths["truth"]]),
            _cli(["mask", "--dims", dims, "--pattern", "rm", "--rate", "0.4",
                  "--seed", str(1000 + seed), "-o", paths["mask"]]),
        ]
        if any(codes):
            raise RuntimeError(f"{self.name} set-up exited with {codes}")
        return {"paths": paths, "seed": seed, "sigma": sigma}

    def mean_fill_rmse(self, paths):
        """Held-out RMSE of filling every missing entry with the observed mean."""
        truth = tio.read_tensor(paths["truth"])
        observed = tio.read_mask(paths["mask"]).astype(bool)
        return float(np.sqrt(np.mean(
            (truth[~observed] - truth[observed].mean()) ** 2)))

    def cycle(self, inputs):
        paths = inputs["paths"]
        start = time.perf_counter()
        # complete reads only the entries the mask marks observed
        code = _cli(["complete", "--tensor", paths["truth"],
                     "--mask", paths["mask"], "--method", self.headline,
                     "--rho", "7e-4", "--tol", repr(FIXED_BUDGET_TOL),
                     "--max-iters", str(self.max_iters),
                     "-o", paths["recovered"], "--manifest", paths["manifest"]])
        seconds = time.perf_counter() - start
        eval_code = _cli(["eval", "--truth", paths["truth"],
                          "--recovered", paths["recovered"],
                          "--mask", paths["mask"],
                          "--manifest", paths["manifest"], "--pattern", "rm",
                          "--rate", "0.4", "--seed", str(inputs["seed"]),
                          "--json-out", paths["report"]])
        out = Cycle()
        ok, detail = code == 0 and eval_code == 0, f"exit={code},{eval_code}"
        if ok:
            with open(paths["report"], encoding="utf-8") as fh:
                report = json.load(fh)
            with open(paths["manifest"], encoding="utf-8") as fh:
                iters = json.load(fh)["iterations"]
            out.rmse, out.mape = report["rmse"], report["mape"]
            out.rmse_rel = out.rmse / inputs["sigma"]
            out.anomaly_f1 = anomaly_f1(None, np.zeros(self.dims), 0.0)
            baseline = self.mean_fill_rmse(paths)
            ok = (iters == self.max_iters and out.rmse < baseline
                  and out.rmse_rel <= NOISE_FLOOR_BOUND)
            detail += (f" iters={iters} rmse={out.rmse:.4f}"
                       f" mean_fill={baseline:.4f} rmse_rel={out.rmse_rel:.4f}")
        out.ops.append(Op(self.headline, seconds, ok, detail))
        return out


WORKLOADS = {w.name: w for w in (DeskRm(), DeskNmRobust(), LargeCli())}
