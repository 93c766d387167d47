"""CLI tests: subcommand contracts, manifests, exit codes, determinism."""

import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensorfill import cli
from tensorfill.cli import _load_manifest, main
from tensorfill.datagen import SyntheticSpec, synthesize
from tensorfill.errors import TensorfillError
from tensorfill.io import ingest_csv, read_mask, read_tensor, write_mask, write_tensor
from tensorfill.solvers import METHODS, SolverConfig, complete


def run(*argv):
    return main([str(a) for a in argv])


def test_module_run_with_help_exits_0():
    """``python -m tensorfill.cli`` runs ``main`` and exits with its code."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "tensorfill.cli", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")


def test_synth_file_size_and_content(tmp_path):
    out = tmp_path / "t.tns"
    assert run("synth", "--dims", "12,24,7", "--rank", "3", "--seed", "42", "-o", out) == 0
    assert out.stat().st_size == 16156
    expected = synthesize(SyntheticSpec((12, 24, 7), 3, 0.0, 42))
    np.testing.assert_array_equal(read_tensor(out), expected)


def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.tns", tmp_path / "b.tns"
    run("synth", "--dims", "6,5,4", "--rank", "2", "--seed", "9", "-o", a)
    run("synth", "--dims", "6,5,4", "--rank", "2", "--seed", "9", "-o", b)
    assert a.read_bytes() == b.read_bytes()


def test_synth_into_missing_directory_is_input_error(tmp_path, capsys):
    out = tmp_path / "nodir" / "t.tns"
    assert run("synth", "--dims", "4,4,4", "--rank", "1", "-o", out) == 3
    assert "cannot write" in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()


def test_out_of_memory_is_one_error_line(tmp_path, capsys):
    """numpy refuses the 7.1 PiB tensor before it touches any memory."""
    out = tmp_path / "x.tns"
    assert run("synth", "--dims", "100000,100000,100000", "--rank", "1",
               "-o", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_synth_invalid_rank_is_usage_error(tmp_path):
    assert run("synth", "--dims", "4,4,4", "--rank", "99", "-o", tmp_path / "x.tns") == 2


def test_synth_malformed_dims_is_usage_error(tmp_path):
    assert run("synth", "--dims", "4,4", "--rank", "1", "-o", tmp_path / "x.tns") == 2


def test_synth_non_integer_dims_is_usage_error(tmp_path, capsys):
    assert run("synth", "--dims", "3,x,4", "--rank", "1", "-o", tmp_path / "x.tns") == 2
    assert "dims must be integers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mask_reports_missing_fraction(tmp_path, capsys):
    out = tmp_path / "m.msk"
    assert run("mask", "--dims", "10,10,10", "--pattern", "rm", "--rate", "0.4",
               "--seed", "7", "-o", out) == 0
    assert "missing_fraction=0.400" in capsys.readouterr().out
    assert read_mask(out).sum() == 600


def test_mask_nm_reports_fiber_count(tmp_path, capsys):
    out = tmp_path / "m.msk"
    assert run("mask", "--dims", "5,12,4", "--pattern", "nm", "--rate", "0.6",
               "-o", out) == 0
    assert "12 fully missing fibers" in capsys.readouterr().out


def test_mask_unknown_pattern_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("mask", "--dims", "4,4,4", "--pattern", "diag", "--rate", "0.5",
            "-o", tmp_path / "m.msk")
    assert exc.value.code == 2


def _pipeline_files(tmp_path, dims="8,7,6", rate="0.3"):
    y, m = tmp_path / "y.tns", tmp_path / "m.msk"
    run("synth", "--dims", dims, "--rank", "2", "--seed", "1", "-o", y)
    run("mask", "--dims", dims, "--pattern", "rm", "--rate", rate, "--seed", "2", "-o", m)
    return y, m


def _no_input_is_made(monkeypatch):
    """Make the CLI's readers and generators fail if they are reached."""
    def not_reached(*args, **kwargs):
        raise AssertionError("an input was read or generated after a check "
                             "should have failed")

    for name in ("read_tensor", "read_mask", "ingest_csv", "synthesize",
                 "rm_mask", "nm_mask"):
        monkeypatch.setattr(cli, name, not_reached)


def test_corrupt_gamma_zero_matches_masked_input(tmp_path):
    y, m = _pipeline_files(tmp_path)
    out, omega = tmp_path / "c.tns", tmp_path / "oc.msk"
    assert run("corrupt", "--tensor", y, "--mask", m, "--gamma", "0", "--s", "5",
               "-o", out, "--omega-out", omega) == 0
    np.testing.assert_array_equal(read_tensor(out), read_tensor(y) * read_mask(m))
    assert read_mask(omega).sum() == 0


def test_corrupt_count_reported(tmp_path, capsys):
    y, m = _pipeline_files(tmp_path)
    out, omega = tmp_path / "c.tns", tmp_path / "oc.msk"
    run("corrupt", "--tensor", y, "--mask", m, "--gamma", "0.1", "--s", "100",
        "--seed", "3", "-o", out, "--omega-out", omega)
    n_obs = int(read_mask(m).sum())
    expected = round(0.1 * n_obs)
    assert f"corrupted_entries={expected}" in capsys.readouterr().out
    assert read_mask(omega).sum() == expected


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["synth", "corrupt"])
def test_non_finite_generator_parameter_is_usage_error(tmp_path, capsys, command, value):
    """synth --noise and corrupt --s reject NaN and infinity, writing nothing."""
    y, m = _pipeline_files(tmp_path)
    out = tmp_path / "out.tns"
    if command == "synth":
        argv = ("synth", "--dims", "8,7,6", "--rank", "2", "--noise", value, "-o", out)
    else:
        argv = ("corrupt", "--tensor", y, "--mask", m, "--gamma", "0.1",
                "--s", value, "-o", out, "--omega-out", tmp_path / "oc.msk")
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_corrupt_missing_input_is_input_error(tmp_path):
    _, m = _pipeline_files(tmp_path)
    assert run("corrupt", "--tensor", tmp_path / "nope.tns", "--mask", m,
               "--gamma", "0.1", "--s", "1", "-o", tmp_path / "c.tns",
               "--omega-out", tmp_path / "oc.msk") == 3


@pytest.mark.parametrize("flag, value", [("--gamma", "2"), ("--s", "-1"),
                                         ("--seed", "-1")])
def test_corrupt_bad_parameter_fails_before_reading(tmp_path, capsys,
                                                    monkeypatch, flag, value):
    """corrupt checks --gamma, --s and --seed before it reads its inputs, so
    a bad value exits 2 even when the input files do not exist."""
    _no_input_is_made(monkeypatch)
    params = {"--gamma": "0.1", "--s": "5", "--seed": "0", flag: value}
    assert run("corrupt", "--tensor", tmp_path / "nope.tns",
               "--mask", tmp_path / "nope.msk",
               *[a for item in params.items() for a in item],
               "-o", tmp_path / "c.tns", "--omega-out", tmp_path / "oc.msk") == 2
    err = capsys.readouterr().err
    assert f"{flag.lstrip('-')} must be" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_complete_full_mask_reproduces_input(tmp_path):
    dims = "8,7,6"
    y = tmp_path / "y.tns"
    m = tmp_path / "full.msk"
    run("synth", "--dims", dims, "--rank", "2", "--seed", "1", "-o", y)
    run("mask", "--dims", dims, "--pattern", "rm", "--rate", "0", "-o", m)
    rec, man = tmp_path / "rec.tns", tmp_path / "man.json"
    assert run("complete", "--tensor", y, "--mask", m, "--method", "tcpfnc",
               "--rho", "1e-2", "--max-iters", "200", "-o", rec,
               "--manifest", man) == 0
    truth = read_tensor(y)
    rel = np.abs(read_tensor(rec) - truth).max() / np.abs(truth).max()
    assert rel < 1e-3


def test_complete_writes_manifest_schema(tmp_path):
    y, m = _pipeline_files(tmp_path)
    rec, man = tmp_path / "rec.tns", tmp_path / "man.json"
    run("complete", "--tensor", y, "--mask", m, "--method", "tcpfnc",
        "--rho", "1e-3", "--max-iters", "10", "-o", rec, "--manifest", man)
    manifest = json.loads(man.read_text())
    assert manifest["method"] == "tcpfnc"
    assert manifest["config"]["rho"] == 1e-3
    assert isinstance(manifest["iterations"], int)
    assert isinstance(manifest["converged"], bool)
    assert manifest["wall_clock_sec"] > 0
    roles = {e["role"] for e in manifest["inputs"]}
    assert roles == {"tensor", "mask"}
    for entry in manifest["inputs"] + manifest["outputs"]:
        assert len(entry["sha256"]) == 64
    # the flags default to the library's values, so the bits match the API
    api = complete(read_tensor(y), read_mask(m),
                   SolverConfig("tcpfnc", rho=1e-3, max_iters=10))
    # the mode weights and epsilon are constants, not config
    assert not {"alpha", "epsilon"} & set(manifest["config"])
    np.testing.assert_array_equal(read_tensor(rec), api.recovered)


def test_complete_robust_emits_anomaly_file(tmp_path):
    y, m = _pipeline_files(tmp_path)
    rec = tmp_path / "rec.tns"
    run("complete", "--tensor", y, "--mask", m, "--method", "rtcpfnc",
        "--rho", "1e-3", "--lambda", "1e-2", "--max-iters", "10",
        "-o", rec, "--manifest", tmp_path / "man.json")
    anomaly = tmp_path / "rec.anomaly.tns"
    assert anomaly.exists()
    assert read_tensor(anomaly).shape == (8, 7, 6)


def _zero_rank_files(tmp_path):
    """A 12x10x8 tensor and mask on which halrtc at the default rho zeroes
    every singular value."""
    y, m = tmp_path / "y.tns", tmp_path / "m.msk"
    run("synth", "--dims", "12,10,8", "--rank", "2", "--noise", "0.5",
        "--seed", "0", "-o", y)
    run("mask", "--dims", "12,10,8", "--pattern", "rm", "--rate", "0.3",
        "--seed", "1", "-o", m)
    return y, m


def test_complete_reports_the_final_rank_of_each_mode(tmp_path, capsys):
    """At the default rho the nuclear threshold WEIGHT / rho zeroes every
    singular value of this tensor, so the solve stops at once with an
    all-zero output; the ranks on the complete line and in the manifest
    say so next to converged=True."""
    y, m = _zero_rank_files(tmp_path)
    rec, man = tmp_path / "rec.tns", tmp_path / "man.json"
    capsys.readouterr()
    assert run("complete", "--tensor", y, "--mask", m, "--method", "halrtc",
               "-o", rec, "--manifest", man) == 0
    assert "iterations=2 converged=True ranks=0,0,0 " in capsys.readouterr().out
    assert json.loads(man.read_text())["ranks"] == [0, 0, 0]
    assert not np.any(read_tensor(rec))


@pytest.mark.parametrize("rho, warned", [(None, True), ("1e-2", False)])
def test_complete_warns_when_every_rank_is_zero(tmp_path, capsys, rho, warned):
    """The all-zero solve above gets one warning line on stderr, with the
    same exit code and output; a solve that keeps a value gets none."""
    y, m = _zero_rank_files(tmp_path)
    rec = tmp_path / "rec.tns"
    capsys.readouterr()
    assert run("complete", "--tensor", y, "--mask", m, "--method", "halrtc",
               *(() if rho is None else ("--rho", rho)),
               "-o", rec, "--manifest", tmp_path / "man.json") == 0
    err = capsys.readouterr().err
    assert bool(np.any(read_tensor(rec))) is not warned
    if warned:
        assert err == ("warning: every singular value was zeroed, so the output"
                       " is all zeros: rho=0.0001 is too small for the data's"
                       " scale\n")
    else:
        assert err == ""


def test_complete_frees_the_input_tensor_during_the_solve(tmp_path):
    """The CLI holds no reference to the tensor it reads, so ``complete``
    frees it once M is formed: at 120x96x60 the traced peak of the command
    is the solve's state and one workspace buffer, about 8.5 tensors.  The
    input kept alive adds one tensor, and a second workspace buffer one
    more."""
    dims = "120,96,60"
    y, m = _pipeline_files(tmp_path, dims=dims, rate="0.4")
    nbytes = 120 * 96 * 60 * 8
    tracemalloc.start()
    try:
        code = run("complete", "--tensor", y, "--mask", m, "--method", "halrtc",
                   "--max-iters", "2", "-o", tmp_path / "r.tns",
                   "--manifest", tmp_path / "man.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 9 * nbytes


def test_complete_unknown_method_is_usage_error(tmp_path):
    y, m = _pipeline_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run("complete", "--tensor", y, "--mask", m, "--method", "bogus",
            "-o", tmp_path / "r.tns", "--manifest", tmp_path / "man.json")
    assert exc.value.code == 2


def test_complete_numeric_divergence_is_numeric_error(tmp_path):
    y, m = tmp_path / "huge.tns", tmp_path / "full.msk"
    write_tensor(y, np.full((2, 2, 2), 1.7e308))
    write_mask(m, np.ones((2, 2, 2)))
    assert run("complete", "--tensor", y, "--mask", m, "--method", "tcpfnc",
               "--max-iters", "5", "-o", tmp_path / "r.tns",
               "--manifest", tmp_path / "man.json") == 4


def test_complete_threads_flag_is_usage_error(tmp_path, capsys):
    """The solve takes no thread count, so there is no --threads to set."""
    y, m = _pipeline_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run("complete", "--tensor", y, "--mask", m, "--method", "tcpfnc",
            "--max-iters", "5", "--threads", "3", "-o", tmp_path / "r.tns",
            "--manifest", tmp_path / "man.json")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--threads" in err and "Traceback" not in err


def test_complete_alpha_flag_is_usage_error(tmp_path, capsys):
    """The mode weights are the constant WEIGHT, so there is no --alpha."""
    y, m = _pipeline_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run("complete", "--tensor", y, "--mask", m, "--method", "tcpfnc",
            "--max-iters", "5", "--alpha", "0.5,0.3,0.2", "-o", tmp_path / "r.tns",
            "--manifest", tmp_path / "man.json")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--alpha" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["tcpfnc", "halrtc", "tnn"])
def test_complete_anomaly_out_needs_the_robust_method(tmp_path, capsys,
                                                      monkeypatch, method):
    """Only rtcpfnc writes an anomaly tensor, so --anomaly-out with another
    method exits 2 before any input is read, and nothing is written."""
    y, m = _pipeline_files(tmp_path)
    before = _files(tmp_path)
    _no_input_is_made(monkeypatch)
    assert run("complete", "--tensor", y, "--mask", m, "--method", method,
               "--anomaly-out", tmp_path / "an.tns", "-o", tmp_path / "r.tns",
               "--manifest", tmp_path / "man.json") == 2
    err = capsys.readouterr().err
    assert "--anomaly-out" in err and "Traceback" not in err
    assert _files(tmp_path) == before


def test_eval_worked_fixture(tmp_path, capsys):
    truth, rec, m = tmp_path / "t.tns", tmp_path / "r.tns", tmp_path / "m.msk"
    write_tensor(truth, np.array([100.0, 50.0]).reshape(2, 1, 1))
    write_tensor(rec, np.array([90.0, 55.0]).reshape(2, 1, 1))
    write_mask(m, np.ones((2, 1, 1)))
    csv_out = tmp_path / "row.csv"
    assert run("eval", "--truth", truth, "--recovered", rec, "--mask", m,
               "--on-observed", "--csv-out", csv_out,
               "--json-out", tmp_path / "rep.json") == 0
    out = capsys.readouterr().out
    assert "mape=10.000000" in out
    assert "rmse=7.905694" in out
    header, row = csv_out.read_text().strip().split("\n")
    assert header == "method,dims,pattern,rate,gamma,seed,mape,rmse,iters"
    assert row == "-,2x1x1,-,0,0,0,10.000000,7.905694,0"


def test_eval_defaults_to_heldout_complement(tmp_path, capsys):
    truth, rec, m = tmp_path / "t.tns", tmp_path / "r.tns", tmp_path / "m.msk"
    write_tensor(truth, np.array([100.0, 50.0]).reshape(2, 1, 1))
    write_tensor(rec, np.array([90.0, 55.0]).reshape(2, 1, 1))
    mask = np.zeros((2, 1, 1))
    mask[0, 0, 0] = 1.0  # first entry observed; eval on the second only
    write_mask(m, mask)
    run("eval", "--truth", truth, "--recovered", rec, "--mask", m)
    assert "mape=10.000000" in capsys.readouterr().out  # |50-55|/50


def test_eval_missing_file_is_input_error(tmp_path):
    assert run("eval", "--truth", tmp_path / "no.tns",
               "--recovered", tmp_path / "no2.tns",
               "--mask", tmp_path / "no.msk") == 3


@pytest.mark.parametrize("flags", [("--rate", "inf"), ("--rate", "1.5"),
                                   ("--gamma", "nan"), ("--gamma", "-0.1"),
                                   ("--seed", "-3"), ("--pattern", "rm,x"),
                                   ("--pattern", 'r"m'), ("--pattern", "rm\n"),
                                   ("--pattern", "r\rm")])
def test_eval_label_outside_its_domain_is_usage_error(tmp_path, capsys, flags):
    """The row labels --rate and --gamma lie in [0, 1], --seed is an
    integer >= 0, the domains of mask --rate, corrupt --gamma and every
    other --seed, and --pattern holds no comma, double quote or line break,
    which would add a field to the CSV row or break it; eval writes nothing
    otherwise."""
    y, m = _pipeline_files(tmp_path)
    before = _files(tmp_path)
    assert run("eval", "--truth", y, "--recovered", y, "--mask", m, *flags,
               "--json-out", tmp_path / "r.json",
               "--csv-out", tmp_path / "r.csv") == 2
    err = capsys.readouterr().err
    assert flags[0].lstrip("-") in err and "Traceback" not in err
    assert _files(tmp_path) == before


def test_ingest_writes_tensor_and_mask(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("1,2,,4\n5,6,7,8\n")
    out, mask_out = tmp_path / "t.tns", tmp_path / "m.msk"
    assert run("ingest", "--csv", csv_path, "--dims", "2,2,2",
               "-o", out, "--mask-out", mask_out) == 0
    assert "observed_fraction=0.875" in capsys.readouterr().out
    tensor, mask = read_tensor(out), read_mask(mask_out)
    assert tensor[0, 0, 1] == 0.0
    assert mask[0, 0, 1] == 0.0
    assert mask.sum() == 7


def test_ingest_bad_cell_is_input_error(tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("1,x,3,4\n5,6,7,8\n")
    assert run("ingest", "--csv", csv_path, "--dims", "2,2,2",
               "-o", tmp_path / "t.tns", "--mask-out", tmp_path / "m.msk") == 3


def _recorded_run(tmp_path, method="rtcpfnc"):
    """synth -> mask -> corrupt -> complete -> eval, manifest annotated."""
    y, m = _pipeline_files(tmp_path)
    yc, oc = tmp_path / "yc.tns", tmp_path / "oc.msk"
    run("corrupt", "--tensor", y, "--mask", m, "--gamma", "0.1", "--s", "50",
        "--seed", "4", "-o", yc, "--omega-out", oc)
    rec, man = tmp_path / "rec.tns", tmp_path / "man.json"
    run("complete", "--tensor", yc, "--mask", m, "--method", method,
        "--rho", "1e-3", "--lambda", "1e-2", "--max-iters", "20",
        "-o", rec, "--manifest", man)
    run("eval", "--truth", y, "--recovered", rec, "--mask", m,
        "--manifest", man, "--pattern", "rm", "--rate", "0.3",
        "--gamma", "0.1", "--seed", "1")
    return man


def test_eval_annotates_manifest(tmp_path):
    man = _recorded_run(tmp_path)
    manifest = json.loads(man.read_text())
    assert manifest["csv_row"].startswith("rtcpfnc,8x7x6,rm,0.3,0.1,1,")
    assert manifest["eval"]["report"]["n_evaluated"] > 0


def test_eval_manifest_scores_only_the_recorded_output(tmp_path, capsys):
    """eval --manifest with a tensor other than the recorded recovered
    output (here the truth) exits 3 and writes nothing."""
    man = _recorded_run(tmp_path)
    before = _files(tmp_path)
    capsys.readouterr()
    y, m = tmp_path / "y.tns", tmp_path / "m.msk"
    assert run("eval", "--truth", y, "--recovered", y, "--mask", m,
               "--manifest", man, "--json-out", tmp_path / "r.json",
               "--csv-out", tmp_path / "r.csv") == 3
    err = capsys.readouterr().err
    assert "hash mismatch for recovered file" in err and "Traceback" not in err
    assert _files(tmp_path) == before


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_eval_undefined_mape_is_json_null(tmp_path):
    """On an all-zero truth the MAPE is undefined: the report and the
    manifest's eval record hold null, which is JSON, and the row holds nan."""
    man = _recorded_run(tmp_path)
    zero, m = tmp_path / "zero.tns", tmp_path / "m.msk"
    write_tensor(zero, np.zeros((8, 7, 6)))
    rep, row = tmp_path / "rep.json", tmp_path / "row.csv"
    assert run("eval", "--truth", zero, "--recovered", tmp_path / "rec.tns",
               "--mask", m, "--on-observed", "--manifest", man,
               "--json-out", rep, "--csv-out", row) == 0
    report = json.loads(rep.read_text(), parse_constant=_reject_constant)
    manifest = json.loads(man.read_text(), parse_constant=_reject_constant)
    assert report["mape"] is None and manifest["eval"]["report"] == report
    assert row.read_text().split("\n")[1].split(",")[6] == "nan"


def test_rerun_reproduces_identical_row(tmp_path, capsys):
    man = _recorded_run(tmp_path)
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 0
    assert "rerun: identical" in capsys.readouterr().out


@pytest.mark.parametrize("method", METHODS)
def test_rerun_replays_every_method_byte_for_byte(tmp_path, capsys, method):
    man = _recorded_run(tmp_path, method)
    manifest = json.loads(man.read_text())
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 0
    out = capsys.readouterr().out
    assert out.endswith("rerun: identical\n")
    assert f"rerun:    {manifest['csv_row']}\n" in out
    for entry in manifest["outputs"]:
        replayed = tmp_path / "replay" / Path(entry["path"]).name
        assert replayed.read_bytes() == Path(entry["path"]).read_bytes()


@pytest.mark.parametrize("method, role", [("halrtc", "recovered"),
                                          ("rtcpfnc", "anomaly")])
def test_rerun_detects_a_differing_output(tmp_path, capsys, method, role):
    """A replayed output whose hash is not the recorded one fails with exit
    1 and names its role."""
    def edit(manifest):
        next(e for e in manifest["outputs"] if e["role"] == role)["sha256"] = "0" * 64

    man = _edited_run(tmp_path, edit, method)
    capsys.readouterr()
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 1
    assert capsys.readouterr().out == f"rerun: output {role} differs\n"


def test_rerun_detects_tampered_input(tmp_path):
    man = _recorded_run(tmp_path)
    manifest = json.loads(man.read_text())
    tensor_path = next(e["path"] for e in manifest["inputs"] if e["role"] == "tensor")
    tampered = read_tensor(tensor_path)
    tampered[0, 0, 0] += 1.0
    write_tensor(tensor_path, tampered)
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 3


def test_rerun_detects_recorded_row_drift(tmp_path, capsys):
    man = _recorded_run(tmp_path)
    manifest = json.loads(man.read_text())
    manifest["csv_row"] = manifest["csv_row"].replace("rtcpfnc", "rtcpfnc") + "x"
    man.write_text(json.dumps(manifest))
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 1
    assert "differs" in capsys.readouterr().out


# Files that tensorfill wrote while it held masks as float64 in memory; its
# README gives the commands.
FLOAT_MASK_RUNS = Path(__file__).parent / "data" / "float_mask_runs"


@pytest.mark.parametrize("manifest", ["robust.json", "plain.json"])
def test_rerun_replays_a_run_recorded_with_float_masks(tmp_path, manifest):
    """The recovered and anomaly tensors and the CSV row of a run recorded
    before masks became bool replay bit for bit.  The outputs were recorded
    under OpenBLAS's Haswell kernels, which every x86-64 host with AVX2 can
    run, whatever kernel it would pick itself; the rerun runs under them in
    a process of its own."""
    shutil.copytree(FLOAT_MASK_RUNS, tmp_path / "runs")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "tensorfill.cli", "rerun", "--manifest",
         manifest, "--workdir", str(tmp_path / "w")],
        cwd=tmp_path / "runs", env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("rerun: identical\n")


def test_mask_and_corrupt_write_the_recorded_bytes(tmp_path, monkeypatch):
    """mask and corrupt write the MSK1 and TNS1 bytes they wrote when masks
    were float64 in memory."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(FLOAT_MASK_RUNS / "truth.tns", "truth.tns")
    for pattern, seed in (("nm", "4"), ("rm", "6")):
        assert run("mask", "--dims", "6,5,4", "--pattern", pattern, "--rate",
                   "0.3", "--seed", seed, "-o", f"{pattern}.msk") == 0
    assert run("corrupt", "--tensor", "truth.tns", "--mask", "nm.msk",
               "--gamma", "0.1", "--s", "20", "--seed", "5",
               "-o", "corrupted.tns", "--omega-out", "omega.msk") == 0
    for name in ("nm.msk", "rm.msk", "omega.msk", "corrupted.tns"):
        assert (tmp_path / name).read_bytes() == (FLOAT_MASK_RUNS / name).read_bytes()


def test_rerun_missing_manifest_is_input_error(tmp_path):
    assert run("rerun", "--manifest", tmp_path / "no.json",
               "--workdir", tmp_path / "w") == 3


def _edited_run(tmp_path, edit, method="rtcpfnc"):
    """The manifest of a recorded run, changed in place by ``edit``."""
    man = _recorded_run(tmp_path, method)
    manifest = json.loads(man.read_text())
    edit(manifest)
    man.write_text(json.dumps(manifest))
    return man


def _rerun_edited(tmp_path, edit):
    return run("rerun", "--manifest", _edited_run(tmp_path, edit),
               "--workdir", tmp_path / "replay")


def test_rerun_unknown_config_key_is_input_error(tmp_path, capsys):
    def edit(manifest):
        manifest["config"]["momentum"] = 0.9

    assert _rerun_edited(tmp_path, edit) == 3
    assert "unknown config keys momentum" in capsys.readouterr().err


def test_rerun_of_a_deleted_input_is_input_error(tmp_path, capsys):
    man = _recorded_run(tmp_path)
    gone = tmp_path / "yc.tns"
    gone.unlink()
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 3
    assert f"cannot read {gone}" in capsys.readouterr().err


def test_rerun_of_another_manifest_version_is_input_error(tmp_path, capsys):
    assert _rerun_edited(tmp_path, _set(None, "manifest_version", 2)) == 3
    assert "unsupported version" in capsys.readouterr().err


def test_rerun_manifest_without_inputs_is_input_error(tmp_path, capsys):
    def edit(manifest):
        del manifest["inputs"]

    assert _rerun_edited(tmp_path, edit) == 3
    assert "lacks inputs" in capsys.readouterr().err


def test_rerun_mistyped_config_value_is_input_error(tmp_path, capsys):
    """A recorded config value of the wrong type or out of range is input."""
    for key, value in (("rho", "fast"), ("max_iters", 2.5), ("threads", True),
                       ("rho", -1), ("epsilon", 2e-6), ("alpha", [0.5, 0.3, 0.2]),
                       ("alpha", 1 / 3)):
        def edit(manifest):
            manifest["config"][key] = value

        assert _rerun_edited(tmp_path, edit) == 3
        err = capsys.readouterr().err
        assert "bad config value" in err and "Traceback" not in err
        assert key in err and not (tmp_path / "replay").exists()


def test_rerun_replays_a_manifest_recording_threads(tmp_path, capsys):
    """Older manifests record the size of a since-removed thread pool,
    whose results were those of the serial loop: rerun ignores it."""
    def edit(manifest):
        manifest["config"]["threads"] = 3

    assert _rerun_edited(tmp_path, edit) == 0
    assert "rerun: identical" in capsys.readouterr().out


def test_rerun_replays_a_manifest_without_ranks(tmp_path, capsys):
    """Manifests written before complete recorded the ranks lack the key;
    rerun does not need it."""
    def edit(manifest):
        del manifest["ranks"]

    assert _rerun_edited(tmp_path, edit) == 0
    assert "rerun: identical" in capsys.readouterr().out


def test_rerun_replays_a_manifest_recording_epsilon(tmp_path, capsys):
    """Older manifests record the log rule's constant epsilon, once a config
    field; at its one value the run replays."""
    def edit(manifest):
        assert "epsilon" not in manifest["config"]
        manifest["config"]["epsilon"] = 1e-06

    assert _rerun_edited(tmp_path, edit) == 0
    assert "rerun: identical" in capsys.readouterr().out


def _both_refuse(tmp_path, capsys, edit, key, method="rtcpfnc"):
    """Assert that rerun and eval --manifest, given the manifest of a
    recorded run after ``edit``, each exit 3 before they write anything,
    with one error line that names ``key``."""
    man = _edited_run(tmp_path, edit, method)
    before = _files(tmp_path)
    y, m = tmp_path / "y.tns", tmp_path / "m.msk"
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 3
    assert run("eval", "--truth", y, "--recovered", y, "--mask", m,
               "--manifest", man, "--json-out", tmp_path / "r.json") == 3
    assert _files(tmp_path) == before and not (tmp_path / "replay").exists()
    errors = capsys.readouterr().err.replace(str(man), "").splitlines()
    assert len(errors) == 2
    assert all(e.startswith("error: ") and key in e for e in errors)


def _set(record, key, value):
    """An edit that sets ``key`` of the manifest, or of its ``record``."""
    def edit(manifest):
        (manifest[record] if record else manifest)[key] = value
    return edit


def test_mistyped_manifest_value_is_input_error(tmp_path, capsys):
    """A JSON true or false where a number is required, a method that is
    not the config's, and an eval label outside the domain of its flag,
    exit 3 in rerun and in eval --manifest, before anything is written."""
    for record, key, value in ((None, "manifest_version", True),
                               (None, "iterations", True),
                               ("eval", "rate", True),
                               ("eval", "rate", float("inf")),
                               ("eval", "rate", 1.5),
                               ("eval", "gamma", float("nan")),
                               ("eval", "seed", -3),
                               (None, "method", "tcpfnc,x"),
                               ("eval", "pattern", "rm,x")):
        _both_refuse(tmp_path, capsys, _set(record, key, value), key)


def _add_anomaly(manifest):
    recovered = manifest["outputs"][0]
    manifest["outputs"].append(dict(recovered, role="anomaly",
                                    path=recovered["path"] + ".anomaly"))


# Manifests that rerun and eval --manifest refuse alike: the method of the
# run, the edit, and the key the error names.
MALFORMED = {
    "rho-fast": ("rtcpfnc", _set("config", "rho", "fast"), "rho"),
    "epsilon": ("rtcpfnc", _set("config", "epsilon", 2e-6), "epsilon"),
    "config-method": ("rtcpfnc", _set("config", "method", "nosuch"), "method"),
    "method-not-config": ("rtcpfnc", _set(None, "method", "tcpfnc"), "method"),
    "no-outputs": ("rtcpfnc", _set(None, "outputs", []), "outputs"),
    "halrtc-anomaly": ("halrtc", _add_anomaly, "outputs"),
    "rtcpfnc-no-anomaly": ("rtcpfnc", lambda m: m["outputs"].pop(), "outputs"),
    "two-tensors": ("rtcpfnc", lambda m: m["inputs"].append(m["inputs"][0]),
                    "inputs"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_eval_and_rerun_refuse_the_same_manifests(tmp_path, capsys, case):
    method, edit, key = MALFORMED[case]
    _both_refuse(tmp_path, capsys, edit, key, method)


@pytest.mark.parametrize("flags", [
    ("--tol", "nan"),
    ("--rho", "nan"),
    ("--rho", "inf"),
    ("--trunc-rate", "nan"),
    ("--lambda", "nan"),
])
def test_complete_non_finite_parameter_is_usage_error(tmp_path, flags):
    y, m = _pipeline_files(tmp_path)
    assert run("complete", "--tensor", y, "--mask", m, "--method", "rtcpfnc",
               "--max-iters", "5", *flags, "-o", tmp_path / "r.tns",
               "--manifest", tmp_path / "man.json") == 2


NOT_UTF8 = b"\xff\xfe\x00bad"


@pytest.mark.parametrize("content", [NOT_UTF8, b"[" * 100000],
                         ids=["not-utf8", "too-deep"])
def test_unparseable_manifest_is_input_error(tmp_path, content):
    """Bytes that are not UTF-8, and JSON nested too deep to parse."""
    man = tmp_path / "man.json"
    man.write_bytes(content)
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "w") == 3
    truth, m = _pipeline_files(tmp_path)
    assert run("eval", "--truth", truth, "--recovered", truth, "--mask", m,
               "--manifest", man) == 3


def test_rerun_non_string_path_is_input_error(tmp_path, capsys):
    def edit(manifest):
        manifest["inputs"][0]["path"] = 7

    assert _rerun_edited(tmp_path, edit) == 3
    assert "path of the wrong type" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["inputs", "outputs"])
def test_rerun_nul_in_path_is_input_error(tmp_path, capsys, key):
    def edit(manifest):
        manifest[key][0]["path"] += "\0"

    assert _rerun_edited(tmp_path, edit) == 3
    assert "NUL byte" in capsys.readouterr().err


def test_rerun_unwritable_workdir_is_input_error(tmp_path):
    man = _recorded_run(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run("rerun", "--manifest", man, "--workdir", blocker / "w") == 3


def _files(root):
    """Every file under ``root`` with its bytes."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


# Flags of complete that make an output land on an input or another output;
# the defaults are -o rec.tns (anomaly rec.anomaly.tns) and --manifest man.json.
COLLISIONS = [
    {"-o": "y.tns"},
    {"-o": "m.msk"},
    {"-o": "sub/../y.tns"},
    {"--anomaly-out": "y.tns"},
    {"--anomaly-out": "m.msk"},
    {"--anomaly-out": "rec.tns"},
    {"--manifest": "y.tns"},
    {"--manifest": "m.msk"},
    {"--manifest": "rec.tns"},
    {"--manifest": "rec.anomaly.tns"},
    {"--anomaly-out": "a.tns", "--manifest": "a.tns"},
]


@pytest.mark.parametrize("flags", COLLISIONS, ids=lambda flags: ",".join(
    f"{flag.lstrip('-')}={name}" for flag, name in flags.items()))
def test_complete_output_collision_is_usage_error(tmp_path, capsys, flags):
    """complete exits 2, and leaves every file as it was, when an output
    names the same file as an input or as another output."""
    y, m = _pipeline_files(tmp_path)
    (tmp_path / "sub").mkdir()
    before = _files(tmp_path)
    paths = {"-o": "rec.tns", "--manifest": "man.json", **flags}
    argv = [a for flag, name in paths.items() for a in (flag, tmp_path / name)]
    assert run("complete", "--tensor", y, "--mask", m, "--method", "rtcpfnc",
               "--max-iters", "2", *argv) == 2
    assert "would overwrite" in capsys.readouterr().err
    assert _files(tmp_path) == before


# Flags of eval that make an output land on an input or another output;
# the files are y.tns, m.msk, rec.tns and man.json.
EVAL_COLLISIONS = [
    {"--json-out": "y.tns"},
    {"--json-out": "m.msk"},
    {"--json-out": "rec.tns"},
    {"--json-out": "sub/../y.tns"},
    {"--csv-out": "y.tns"},
    {"--csv-out": "rec.tns"},
    {"--manifest": "y.tns"},
    {"--manifest": "rec.tns"},
    {"--json-out": "man.json", "--manifest": "man.json"},
    {"--csv-out": "man.json", "--manifest": "man.json"},
    {"--json-out": "r.out", "--csv-out": "r.out"},
]


@pytest.mark.parametrize("flags", EVAL_COLLISIONS, ids=lambda flags: ",".join(
    f"{flag.lstrip('-')}={name}" for flag, name in flags.items()))
def test_eval_output_collision_is_usage_error(tmp_path, capsys, flags):
    """eval exits 2, and leaves every file as it was, when the report, the
    CSV or the manifest it rewrites names the same file as an input or as
    another of them."""
    y, m = _pipeline_files(tmp_path)
    rec = tmp_path / "rec.tns"
    run("complete", "--tensor", y, "--mask", m, "--method", "tcpfnc",
        "--max-iters", "2", "-o", rec, "--manifest", tmp_path / "man.json")
    (tmp_path / "sub").mkdir()
    before = _files(tmp_path)
    argv = [a for flag, name in flags.items() for a in (flag, tmp_path / name)]
    assert run("eval", "--truth", y, "--recovered", rec, "--mask", m,
               *argv) == 2
    assert "would overwrite" in capsys.readouterr().err
    assert _files(tmp_path) == before


# corrupt and ingest, each with an output landing on an input or on its
# other output; the files are y.tns, m.msk and d.csv.
GENERATOR_OPTIONS = {"corrupt": ("--gamma", "0.1", "--s", "5"),
                     "ingest": ("--dims", "2,2,2")}
GENERATOR_INPUTS = {"corrupt": {"--tensor": "y.tns", "--mask": "m.msk"},
                    "ingest": {"--csv": "d.csv"}}
GENERATOR_COLLISIONS = [
    ("corrupt", {"-o": "y.tns", "--omega-out": "oc.msk"}),
    ("corrupt", {"-o": "c.tns", "--omega-out": "m.msk"}),
    ("corrupt", {"-o": "m.msk", "--omega-out": "y.tns"}),
    ("corrupt", {"-o": "c.out", "--omega-out": "c.out"}),
    ("ingest", {"-o": "d.csv", "--mask-out": "x.msk"}),
    ("ingest", {"-o": "x.tns", "--mask-out": "d.csv"}),
    ("ingest", {"-o": "x.bin", "--mask-out": "x.bin"}),
]


@pytest.mark.parametrize("command, flags", GENERATOR_COLLISIONS, ids=lambda v: ",".join(
    f"{flag.lstrip('-')}={name}" for flag, name in v.items())
    if isinstance(v, dict) else None)
def test_generator_output_collision_is_usage_error(tmp_path, capsys, command, flags):
    """corrupt and ingest exit 2, and leave every file as it was, when an
    output names the same file as an input or as the other output."""
    _pipeline_files(tmp_path)
    (tmp_path / "d.csv").write_text("1,2,,4\n5,6,7,8\n")
    before = _files(tmp_path)
    paths = {**GENERATOR_INPUTS[command], **flags}
    argv = [a for flag, name in paths.items() for a in (flag, tmp_path / name)]
    assert run(command, *GENERATOR_OPTIONS[command], *argv) == 2
    assert "would overwrite" in capsys.readouterr().err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("flag", ["-o", "--anomaly-out", "--manifest"])
def test_complete_into_missing_directory_fails_before_solving(
        tmp_path, capsys, monkeypatch, flag):
    """A missing output directory is found before the inputs are read."""
    def not_reached(*args, **kwargs):
        raise AssertionError("complete ran although an output cannot be written")

    monkeypatch.setattr(cli, "complete", not_reached)
    y, m = _pipeline_files(tmp_path)
    before = _files(tmp_path)
    paths = {"-o": "rec.tns", "--manifest": "man.json", flag: "nodir/x.out"}
    argv = [a for f, name in paths.items() for a in (f, tmp_path / name)]
    assert run("complete", "--tensor", y, "--mask", m, "--method", "rtcpfnc",
               *argv) == 3
    assert "cannot write" in capsys.readouterr().err
    assert _files(tmp_path) == before
    assert not (tmp_path / "nodir").exists()


# Output paths that cannot be written: "dir" is an existing directory and
# "nodir" does not exist.  The inputs are y.tns, m.msk and d.csv, and c.tns,
# a copy of y.tns, is eval's recovered tensor; synth and mask read nothing.
UNWRITABLE_OPTIONS = {**GENERATOR_OPTIONS, "complete": ("--method", "rtcpfnc"),
                      "eval": (), "synth": ("--dims", "2,2,2", "--rank", "1"),
                      "mask": ("--dims", "2,2,2", "--pattern", "rm",
                               "--rate", "0.5")}
UNWRITABLE_INPUTS = {
    **GENERATOR_INPUTS, "synth": {}, "mask": {},
    "complete": {"--tensor": "y.tns", "--mask": "m.msk", "-o": "ok.tns",
                 "--manifest": "man.json"},
    "eval": {"--truth": "y.tns", "--recovered": "c.tns", "--mask": "m.msk"},
}
UNWRITABLE = [
    ("complete", {"-o": "dir"}),
    ("complete", {"--anomaly-out": "dir"}),
    ("complete", {"--manifest": "dir"}),
    ("eval", {"--json-out": "dir"}),
    ("eval", {"--json-out": "ok.json", "--csv-out": "dir"}),
    ("eval", {"--json-out": "ok.json", "--csv-out": "nodir/x.csv"}),
    ("corrupt", {"-o": "dir", "--omega-out": "oc.msk"}),
    ("corrupt", {"-o": "ok.tns", "--omega-out": "dir"}),
    ("corrupt", {"-o": "ok.tns", "--omega-out": "nodir/oc.msk"}),
    ("ingest", {"-o": "dir", "--mask-out": "x.msk"}),
    ("ingest", {"-o": "x.tns", "--mask-out": "nodir/x.msk"}),
    ("synth", {"-o": "dir"}),
    ("synth", {"-o": "nodir/x.tns"}),
    ("mask", {"-o": "dir"}),
    ("mask", {"-o": "nodir/x.msk"}),
]


@pytest.mark.parametrize("command, flags", UNWRITABLE, ids=lambda v: ",".join(
    f"{flag.lstrip('-')}={name}" for flag, name in v.items())
    if isinstance(v, dict) else None)
def test_unwritable_output_fails_before_reading(tmp_path, capsys, monkeypatch,
                                                command, flags):
    """An output path that is a directory, or whose directory does not
    exist, exits 3 before any input is read or generated, and no file is
    written."""
    y, _ = _pipeline_files(tmp_path)
    shutil.copy(y, tmp_path / "c.tns")
    (tmp_path / "d.csv").write_text("1,2,,4\n5,6,7,8\n")
    (tmp_path / "dir").mkdir()
    before = _files(tmp_path)
    _no_input_is_made(monkeypatch)
    paths = {**UNWRITABLE_INPUTS[command], **flags}
    argv = [a for flag, name in paths.items() for a in (flag, tmp_path / name)]
    assert run(command, *UNWRITABLE_OPTIONS[command], *argv) == 3
    bad = next(name for name in flags.values() if "dir" in name)
    assert f"cannot write {tmp_path / bad}" in capsys.readouterr().err
    assert _files(tmp_path) == before
    assert not any((tmp_path / "dir").iterdir())
    assert not (tmp_path / "nodir").exists()


def test_rerun_onto_a_directory_fails_before_reading(tmp_path, capsys,
                                                     monkeypatch):
    """A directory in --workdir that bears a replayed output's name exits 3
    before the inputs are read."""
    man = _recorded_run(tmp_path)
    blocker = tmp_path / "w" / "rec.tns"
    blocker.mkdir(parents=True)
    before = _files(tmp_path)
    _no_input_is_made(monkeypatch)
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "w") == 3
    assert f"cannot write {blocker}" in capsys.readouterr().err
    assert _files(tmp_path) == before
    assert not any(blocker.iterdir())


def test_rerun_into_truth_directory_leaves_truth_untouched(tmp_path, capsys):
    """The recovered tensor shares the truth's file name, so a replay into
    the truth's directory would overwrite it: rerun exits 2 instead."""
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    out.mkdir()
    y, m = _pipeline_files(data)
    rec, man = out / "y.tns", out / "man.json"
    run("complete", "--tensor", y, "--mask", m, "--method", "tcpfnc",
        "--rho", "1e-3", "--max-iters", "5", "-o", rec, "--manifest", man)
    run("eval", "--truth", y, "--recovered", rec, "--mask", m, "--manifest", man)
    before = _files(tmp_path)
    assert run("rerun", "--manifest", man, "--workdir", data) == 2
    assert "would overwrite recorded truth" in capsys.readouterr().err
    assert _files(tmp_path) == before


def test_rerun_onto_recorded_outputs_is_usage_error(tmp_path):
    man = _recorded_run(tmp_path)
    before = _files(tmp_path)
    assert run("rerun", "--manifest", man, "--workdir", tmp_path) == 2
    assert _files(tmp_path) == before


def test_rerun_outputs_sharing_a_path_is_usage_error(tmp_path, capsys):
    """Outputs recorded in two directories under one name would replay onto
    one path."""
    y, m = _pipeline_files(tmp_path)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    man = tmp_path / "man.json"
    run("complete", "--tensor", y, "--mask", m, "--method", "rtcpfnc",
        "--rho", "1e-3", "--max-iters", "5", "-o", tmp_path / "a" / "r.tns",
        "--anomaly-out", tmp_path / "b" / "r.tns", "--manifest", man)
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "w") == 2
    assert "anomaly would overwrite recovered" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_rerun_verifies_eval_files_before_writing(tmp_path):
    man = _recorded_run(tmp_path)
    truth = tmp_path / "y.tns"
    write_tensor(truth, read_tensor(truth) + 1.0)
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 3
    assert not (tmp_path / "replay").exists()


def test_complete_rho_too_small_is_usage_error(tmp_path, capsys):
    y, m = _pipeline_files(tmp_path)
    assert run("complete", "--tensor", y, "--mask", m, "--method", "tcpfnc",
               "--rho", "1e-310", "-o", tmp_path / "r.tns",
               "--manifest", tmp_path / "man.json") == 2
    err = capsys.readouterr().err
    assert "rho=1e-310 is too small" in err and "Traceback" not in err


def test_eval_and_rerun_refuse_a_recorded_rho_that_overflows(tmp_path, capsys):
    """A recorded rho for which WEIGHT / rho overflows is a config value
    that SolverConfig refuses: eval --manifest, given the recorded output,
    and rerun each exit 3 before they write anything."""
    man = _edited_run(tmp_path, _set("config", "rho", 1e-310))
    before = _files(tmp_path)
    assert run("eval", "--truth", tmp_path / "y.tns",
               "--recovered", tmp_path / "rec.tns", "--mask", tmp_path / "m.msk",
               "--manifest", man) == 3
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 3
    assert _files(tmp_path) == before and not (tmp_path / "replay").exists()
    err = capsys.readouterr().err
    assert err.count("rho=1e-310 is too small: alpha_k / rho is not finite") == 2


@pytest.mark.parametrize("content", [NOT_UTF8, b"1" * 200000],
                         ids=["not-utf8", "huge-field"])
def test_unparseable_csv_is_input_error(tmp_path, content):
    """Bytes that are not UTF-8, and a cell above the csv field size limit."""
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(content)
    assert run("ingest", "--csv", csv_path, "--dims", "1,1,1",
               "-o", tmp_path / "t.tns", "--mask-out", tmp_path / "m.msk") == 3


def test_ingest_huge_dims_fail_before_allocating(tmp_path, capsys):
    """The row count is checked before the n1 x n2n3 buffer (7 TiB here)."""
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("1,2\n3,4\n")
    assert run("ingest", "--csv", csv_path, "--dims", "100000,100000,100",
               "-o", tmp_path / "t.tns", "--mask-out", tmp_path / "m.msk") == 3
    assert "expected 100000 rows, found 2" in capsys.readouterr().err
    assert run("ingest", "--csv", csv_path, "--dims", "2,100000,100000",
               "-o", tmp_path / "t.tns", "--mask-out", tmp_path / "m.msk") == 3
    assert "row 1 has 2 columns, expected 10000000000" in capsys.readouterr().err


# Fuzzed reader inputs: arbitrary bytes, TNS1/MSK1 headers with arbitrary
# bodies, arbitrary JSON, manifests with arbitrary field values and CSV-like
# text.  Every reader either succeeds or raises a TensorfillError.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
FILE_ENTRY = st.fixed_dictionaries(
    {}, optional={"role": st.sampled_from(["tensor", "mask"]) | JSON,
                  "path": JSON, "sha256": JSON})
MANIFEST = st.fixed_dictionaries({}, optional={
    "manifest_version": st.just(1) | JSON,
    "method": st.just("halrtc") | JSON,
    "config": st.fixed_dictionaries({"method": st.just("halrtc") | JSON}) | JSON,
    "inputs": st.lists(FILE_ENTRY, max_size=3) | JSON,
    "outputs": st.lists(FILE_ENTRY, max_size=2) | JSON,
    "iterations": JSON,
    "eval": st.none() | st.fixed_dictionaries({}, optional={
        k: JSON | FILE_ENTRY
        for k in ("truth", "mask", "on_observed", "pattern", "rate", "gamma", "seed")
    }) | JSON,
    "csv_row": JSON,
})
HEADER = st.builds(
    lambda magic, dims, body: struct.pack("<4s3Q", magic, *dims) + body,
    st.sampled_from([b"TNS1", b"MSK1"]),
    st.tuples(*3 * [st.integers(0, 3) | st.integers(0, 2**64 - 1)]),
    st.binary(max_size=80),
)
FUZZ_BYTES = st.one_of(
    st.binary(max_size=120),
    HEADER,
    (JSON | MANIFEST).map(lambda v: json.dumps(v).encode()),
    st.text(alphabet="0123456789.,-+eEinfa \n\r\"x\x00", max_size=40).map(str.encode),
)
READERS = {
    "read_tensor": read_tensor,
    "read_mask": read_mask,
    "_load_manifest": _load_manifest,
    "ingest_csv": lambda path: ingest_csv(path, (2, 1, 2)),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@given(data=FUZZ_BYTES)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_readers_raise_only_tensorfill_errors(reader, data, tmp_path):
    path = tmp_path / "fuzzed"
    path.write_bytes(data)
    try:
        READERS[reader](path)
    except TensorfillError:
        pass
