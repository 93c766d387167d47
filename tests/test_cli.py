"""CLI tests: subcommand contracts, manifests, exit codes, determinism."""

import json

import numpy as np
import pytest

from tensorfill.cli import main
from tensorfill.datagen import SyntheticSpec, synthesize
from tensorfill.io import read_mask, read_tensor, write_mask, write_tensor


def run(*argv):
    return main([str(a) for a in argv])


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


def test_synth_invalid_rank_is_usage_error(tmp_path):
    assert run("synth", "--dims", "4,4,4", "--rank", "99", "-o", tmp_path / "x.tns") == 2


def test_synth_malformed_dims_is_usage_error(tmp_path):
    assert run("synth", "--dims", "4,4", "--rank", "1", "-o", tmp_path / "x.tns") == 2


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


def test_corrupt_missing_input_is_input_error(tmp_path):
    _, m = _pipeline_files(tmp_path)
    assert run("corrupt", "--tensor", tmp_path / "nope.tns", "--mask", m,
               "--gamma", "0.1", "--s", "1", "-o", tmp_path / "c.tns",
               "--omega-out", tmp_path / "oc.msk") == 3


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


def test_complete_robust_emits_anomaly_file(tmp_path):
    y, m = _pipeline_files(tmp_path)
    rec = tmp_path / "rec.tns"
    run("complete", "--tensor", y, "--mask", m, "--method", "rtcpfnc",
        "--rho", "1e-3", "--lambda", "1e-2", "--max-iters", "10",
        "-o", rec, "--manifest", tmp_path / "man.json")
    anomaly = tmp_path / "rec.anomaly.tns"
    assert anomaly.exists()
    assert read_tensor(anomaly).shape == (8, 7, 6)


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


def test_complete_threads_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("TENSORFILL_THREADS", "2")
    y, m = _pipeline_files(tmp_path)
    man = tmp_path / "man.json"
    run("complete", "--tensor", y, "--mask", m, "--method", "tcpfnc",
        "--rho", "1e-3", "--max-iters", "5", "-o", tmp_path / "r.tns",
        "--manifest", man)
    assert json.loads(man.read_text())["config"]["threads"] == 2


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


def _recorded_run(tmp_path):
    """synth -> mask -> corrupt -> complete -> eval, manifest annotated."""
    y, m = _pipeline_files(tmp_path)
    yc, oc = tmp_path / "yc.tns", tmp_path / "oc.msk"
    run("corrupt", "--tensor", y, "--mask", m, "--gamma", "0.1", "--s", "50",
        "--seed", "4", "-o", yc, "--omega-out", oc)
    rec, man = tmp_path / "rec.tns", tmp_path / "man.json"
    run("complete", "--tensor", yc, "--mask", m, "--method", "rtcpfnc",
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


def test_rerun_reproduces_identical_row(tmp_path, capsys):
    man = _recorded_run(tmp_path)
    assert run("rerun", "--manifest", man, "--workdir", tmp_path / "replay") == 0
    assert "rerun: identical" in capsys.readouterr().out


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


def test_rerun_missing_manifest_is_input_error(tmp_path):
    assert run("rerun", "--manifest", tmp_path / "no.json",
               "--workdir", tmp_path / "w") == 3


def _rerun_edited(tmp_path, edit):
    man = _recorded_run(tmp_path)
    manifest = json.loads(man.read_text())
    edit(manifest)
    man.write_text(json.dumps(manifest))
    return run("rerun", "--manifest", man, "--workdir", tmp_path / "replay")


def test_rerun_unknown_config_key_is_input_error(tmp_path, capsys):
    def edit(manifest):
        manifest["config"]["momentum"] = 0.9

    assert _rerun_edited(tmp_path, edit) == 3
    assert "unknown config keys momentum" in capsys.readouterr().err


def test_rerun_manifest_without_inputs_is_input_error(tmp_path, capsys):
    def edit(manifest):
        del manifest["inputs"]

    assert _rerun_edited(tmp_path, edit) == 3
    assert "lacks inputs" in capsys.readouterr().err


def test_rerun_mistyped_config_value_is_input_error(tmp_path, capsys):
    def edit(manifest):
        manifest["config"]["rho"] = "fast"

    assert _rerun_edited(tmp_path, edit) == 3
    assert "bad config value" in capsys.readouterr().err
