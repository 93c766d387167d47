"""Tests of the benchmark itself: span arithmetic, metric names, and a
tiny-dims run of every workload's code path, traced and untraced.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

import perlayer
import run
import workloads
from spans import Span, Tracer, self_times

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "desk-rm": workloads.DeskRm(dims=(6, 5, 4), max_iters=40),
    "desk-nm-robust": workloads.DeskNmRobust(dims=(6, 5, 4), max_iters=40),
    "large-cli": workloads.LargeCli(dims=(8, 7, 6), max_iters=3),
}


def test_self_time_of_nested_spans():
    trace = [
        Span("solve", 0, 100, None),
        Span("a", 10, 30, 0),
        Span("b", 40, 70, 0),
        Span("b.inner", 50, 60, 2),
    ]
    assert self_times(trace) == [50, 20, 20, 10]


def test_self_time_counts_overlapping_children_once():
    trace = [
        Span("parent", 0, 100, None),
        Span("x", 10, 50, 0),
        Span("y", 30, 60, 0),
        Span("late", 90, 120, 0),  # runs past its parent: clipped
    ]
    assert self_times(trace)[0] == 100 - 50 - 10


DIMS = (6, 5, 4)
SOLVE_INFO = ("halrtc", DIMS, 2, False)


def test_loop_metrics_add_up_to_the_solve():
    names = set(perlayer.LOOP_TIMES)
    trace = [
        Span(perlayer.SOLVE, 0, 1000, None, SOLVE_INFO),
        Span("tensor.unfold", 10, 30, 0, 960),
        Span("prox.apply_shrinkage", 40, 400, 0, ((6, 20), 2)),
        Span("prox.svd", 50, 350, 2, (20, 6)),  # transposed unfolding
        Span("tensor.fold", 410, 440, 0, 960),
        Span("tensor.apply_constraint", 500, 600, 0, 1440),
        Span("prox.svd", 700, 900, 0, (5, 5)),  # Gram matrix of mode 1
    ]
    values, accounted, unattributed = perlayer.layer_metrics(
        trace, 0, names, "halrtc")
    assert accounted and unattributed == 0

    def per_iter_ns(metric):
        return values[metric]["value"] * 2 * 1e3

    assert per_iter_ns("prox.svd_us.m0") == pytest.approx(300)
    assert per_iter_ns("prox.svd_us.m1") == pytest.approx(200)
    assert per_iter_ns("prox.shrink_self_us.m0") == pytest.approx(60)
    assert per_iter_ns("solvers.self_us_per_iter") == pytest.approx(
        1000 - 20 - 360 - 30 - 100 - 200)
    assert values["tensor.bytes_per_iter"]["value"] == (960 + 960 + 1440) / 2


@pytest.mark.parametrize("span", [
    Span("prox.svd", 700, 900, 0, (7, 7)),  # no mode has this shape
    Span("tensor.reshape", 700, 900, 0),  # a layer no metric takes
])
def test_unattributed_time_fails_the_accounting(span):
    trace = [Span(perlayer.SOLVE, 0, 1000, None, SOLVE_INFO), span]
    _, accounted, unattributed = perlayer.layer_metrics(
        trace, 0, set(perlayer.LOOP_TIMES) | {span.name}, "halrtc")
    assert not accounted and unattributed == 1


def test_tracer_records_parents_and_restores():
    mod = types.ModuleType("fake")
    mod.outer = lambda x: mod.inner(x) + 1
    mod.inner = lambda x: 2 * x
    original = mod.inner
    tracer = Tracer()
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "inner", "inner", info=lambda a, k, r: r)
    tracer.wrap(mod, "gone", "gone")
    assert mod.outer(3) == 7
    tracer.restore()
    assert mod.inner is original
    assert tracer.missing == ["fake.gone"]
    assert [(s.name, s.parent, s.info) for s in tracer.spans] == [
        ("outer", None, None),
        ("inner", 0, 6),
    ]
    assert all(s.end >= s.start for s in tracer.spans)


def test_benchmark_json_names_and_units():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    for m in BENCHMARK["per_layer"]:
        assert perlayer.unit_of(m["name"]) == m["unit"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_cycle(name, tmp_path):
    workload = TINY[name]
    inputs = workload.setup(0, str(tmp_path))
    cycle = workload.cycle(inputs)
    assert len(cycle.ops) == {"desk-rm": 3, "desk-nm-robust": 2, "large-cli": 1}[name]
    assert all(op.seconds > 0 and "Traceback" not in op.detail for op in cycle.ops)
    assert np.isfinite([cycle.rmse, cycle.mape, cycle.rmse_rel,
                        cycle.anomaly_f1]).all()


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_contract_line(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: 0.5)
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in expected}
    units = {m["name"]: m["unit"] for m in expected}
    for metric, value in last["metrics"].items():
        assert value["unit"] == units[metric]
        assert np.isfinite(value["value"])
    if trace:
        # self times of each solve account for its whole span
        assert last["correct"] == (last["failed"] == 0)
        assert list(tmp_path.glob("spans-*.jsonl"))


def test_traced_metrics_skip_a_removed_layer(monkeypatch, tmp_path):
    """A wrapped name that no longer exists drops its metrics, nothing else."""
    from tensorfill import prox

    monkeypatch.delattr(prox, "svd")
    monkeypatch.setattr(prox, "apply_shrinkage", _shrink_without_svd)
    monkeypatch.setattr(workloads.tensorfill.solvers, "apply_shrinkage",
                        _shrink_without_svd)
    tracer = Tracer()
    names = perlayer.install(tracer)
    workload = TINY["desk-rm"]
    try:
        inputs = workload.setup(0, str(tmp_path))
        n_setup = len(tracer.spans)
        workload.cycle(inputs)
    finally:
        tracer.restore()
    assert "tensorfill.prox.svd" in tracer.missing
    values, accounted, unattributed = perlayer.layer_metrics(
        tracer.spans, n_setup, names, workload.headline)
    assert accounted and unattributed == 0
    assert not any(k.startswith("prox.svd_us") for k in values)
    assert "prox.shrink_self_us.m0" in values


def _shrink_without_svd(z, spec, sigma_prev=None):
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    from tensorfill.prox import shrinkage_thresholds

    shrunk = np.maximum(s - shrinkage_thresholds(spec, s, sigma_prev), 0.0)
    return (u * shrunk) @ vt, shrunk

