"""Command-line behavior: artifacts, exit codes, schema stability."""

import json

import numpy as np
import pytest
import yaml

from plmpc.cli import CSV_HEADER, _g17, build_summary, main, render_csv
from plmpc.config import SCHEMA, from_document, to_document
from plmpc.plant import RunLog, preset


def _tiny_log():
    n = 2
    return RunLog(
        k=np.arange(1, n + 1),
        y=np.array([0.11, -0.25]),
        u=np.array([0.0, 1.5]),
        r=np.array([0.0, 0.1569]),
        e_c=np.array([-0.11, 0.0]),
        e_p=np.array([0.0, 0.04]),
        theta=np.zeros((n, 3)),
        subiters=np.array([1, 2]),
        qp_ridge=np.array([False, True]),
        qp_iters=np.ones(n, dtype=int),
        fp_residual=np.zeros(n),
        wall_ms=np.ones(n),
    )


# --- rendering -----------------------------------------------------------------

def test_csv_header_and_zero_sentinel():
    text = render_csv(_tiny_log())
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    # column order: k,y,u,r,e_c,e_p,log10_abs_ec,log10_abs_ep,subiters,qp_ridge
    row1 = lines[1].split(",")
    assert row1[0] == "1"
    assert row1[5] == "0"        # e_p exactly zero
    assert row1[7] == "-16"      # its decimal log hits the floor sentinel
    assert float(row1[6]) == pytest.approx(np.log10(0.11))
    row2 = lines[2].split(",")
    assert row2[4] == "0" and row2[6] == "-16"
    assert row2[8] == "2" and row2[9] == "1"


def test_seventeen_digit_floats_round_trip():
    for x in (0.1, -1.1, np.pi, 1e-30, 123456.789, 5.04e20):
        assert float(_g17(x)) == x


def test_summary_echoes_config_and_hash(run_preset):
    cfg = preset("eg1")
    log = run_preset("eg1", steps=30)
    summary = build_summary(cfg, log, elapsed_s=0.5)
    assert summary["config"] == to_document(cfg)
    assert from_document(summary["config"]) == cfg
    assert len(summary["config_hash"]) == 64
    assert summary["aborted_at_step"] is None
    assert summary["rng"] == "pcg64"
    json.dumps(summary)  # must be serializable as-is


# --- run subcommand ----------------------------------------------------------------

def test_run_writes_three_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--preset", "eg1", "--steps", "40",
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    csv_text = (out / "eg1.csv").read_text()
    assert csv_text.splitlines()[0] == CSV_HEADER
    assert len(csv_text.splitlines()) == 41
    summary = json.loads((out / "eg1_summary.json").read_text())
    assert summary["steps"] == 40
    assert summary["config"]["schema"] == SCHEMA
    ghat = (out / "eg1_ghat.csv").read_text().splitlines()
    assert ghat[0] == "y,ghat_1"
    assert len(ghat) == 242
    assert capsys.readouterr().out == ""


def test_run_twice_same_seed_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "eg4-BL", "--steps", "60",
                 "--out-dir", str(a), "--quiet"]) == 0
    assert main(["run", "--preset", "eg4-BL", "--steps", "60",
                 "--out-dir", str(b), "--quiet"]) == 0
    assert (a / "eg4-BL.csv").read_bytes() == (b / "eg4-BL.csv").read_bytes()


def test_run_solver_failure_keeps_partial_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--preset", "eg4-FB3", "--out-dir", str(out), "--quiet"])
    assert code == 3
    assert "failed at step" in capsys.readouterr().err
    summary = json.loads((out / "eg4-FB3_summary.json").read_text())
    aborted = summary["aborted_at_step"]
    assert isinstance(aborted, int)
    rows = (out / "eg4-FB3.csv").read_text().splitlines()
    assert len(rows) == aborted + 1


def test_run_from_config_file(tmp_path):
    cfg_path = tmp_path / "custom.yaml"
    doc = to_document(preset("eg3"))
    doc["name"] = "custom-eg3"
    doc["sim"]["steps"] = 25
    cfg_path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out),
                 "--quiet"]) == 0
    assert (out / "custom-eg3.csv").exists()


def test_run_usage_errors_exit_two(tmp_path, capsys):
    assert main(["run", "--out-dir", str(tmp_path)]) == 2
    assert main(["run", "--preset", "nope", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "nope" in err
    assert main(["run", "--preset", "eg1", "--seed", "-1", "--out-dir", str(tmp_path)]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: wrong-schema\n")
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2


def test_run_config_theta_mismatch_cites_expected_length(tmp_path, capsys):
    cfg_path = tmp_path / "short.yaml"
    doc = to_document(preset("eg1"))
    doc["rls"]["theta0"] = [1.0]
    cfg_path.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "3" in err  # the structure's regressor length


def test_run_steps_out_of_range_exits_two(tmp_path, capsys):
    assert main(["run", "--preset", "eg1", "--steps", "0",
                 "--out-dir", str(tmp_path)]) == 2
    assert "steps" in capsys.readouterr().err


def test_run_snapshot_step_out_of_range_exits_two(tmp_path, capsys):
    assert main(["run", "--preset", "eg1", "--snapshot-step", "0",
                 "--out-dir", str(tmp_path)]) == 2
    assert "snapshot_step" in capsys.readouterr().err


def test_snapshot_step_override(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--preset", "eg1", "--steps", "20", "--snapshot-step", "5",
                 "--out-dir", str(out), "--quiet"]) == 0
    assert (out / "eg1_ghat.csv").exists()


# --- compare subcommand ---------------------------------------------------------------

def test_compare_two_presets_prints_ratio(capsys):
    code = main(["compare", "eg1", "eg3", "--seeds", "1", "--steps", "60",
                 "--window", "41:60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "eg1" in out and "eg3" in out
    assert "ratio eg3/eg1:" in out


def test_compare_single_preset_no_ratio(capsys):
    assert main(["compare", "eg1", "--seeds", "1", "--steps", "40",
                 "--window", "21:40"]) == 0
    assert "ratio" not in capsys.readouterr().out


def test_compare_usage_errors(capsys):
    assert main(["compare", "nope", "--seeds", "1", "--steps", "30",
                 "--window", "1:30"]) == 2
    assert main(["compare", "eg1", "--seeds", "1", "--steps", "30",
                 "--window", "badly"]) == 2
    assert main(["compare", "eg1", "--seeds", "1", "--steps", "30",
                 "--window", "1:500"]) == 2
    assert main(["compare", "eg1", "--seeds", "", "--steps", "30",
                 "--window", "1:30"]) == 2
    assert main(["compare", "eg1", "--seeds", "1", "--steps", "30",
                 "--window", "0:30"]) == 2
    assert main(["compare", "eg1", "--seeds", "1", "--steps", "30",
                 "--window", "30:10"]) == 2
    assert main(["compare", "eg1", "--seeds", "1,x", "--steps", "30",
                 "--window", "1:30"]) == 2
    assert main(["compare", "eg1", "--seeds", "-1", "--steps", "30",
                 "--window", "1:30"]) == 2
    assert capsys.readouterr().out == ""  # rejected before any run


def test_compare_steps_out_of_range_exits_two(capsys):
    assert main(["compare", "eg1", "--seeds", "1", "--steps", "0",
                 "--window", "1:1"]) == 2
    assert "steps" in capsys.readouterr().err


def _table_rows(out):
    """Preset name -> the other fields of its table line."""
    return {f[0]: f[1:] for f in map(str.split, out.splitlines()) if f and f[0].startswith("eg")}


def test_compare_reports_aborted_row_and_exits_three(capsys):
    code = main(["compare", "eg4-FB3", "eg4-BL", "--seeds", "1", "--steps", "400",
                 "--window", "301:400"])
    assert code == 3
    captured = capsys.readouterr()
    rows = _table_rows(captured.out)
    assert list(rows) == ["eg4-FB3", "eg4-BL"]
    assert rows["eg4-FB3"][:5] == ["-", "-", "1/1", "(step", "322)"]
    assert float(rows["eg4-BL"][0]) < 1e-5
    assert rows["eg4-BL"][2] == "0/1"
    assert "ratio" not in captured.out  # only one row has a median
    assert "1 of 2 runs aborted" in captured.err


def test_compare_family_prefix_expands_to_members(capsys):
    assert main(["compare", "eg4", "--seeds", "1", "--steps", "60",
                 "--window", "41:60"]) == 0
    rows = _table_rows(capsys.readouterr().out)
    assert list(rows) == ["eg4-BL", "eg4-PB2", "eg4-FB3", "eg4-CB4"]


# --- selftest subcommand -----------------------------------------------------------------

def test_selftest_passes_quietly(capsys):
    assert main(["selftest", "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
