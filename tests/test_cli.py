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


def test_summary_of_a_non_finite_run_is_strict_json(tmp_path, capsys):
    # y0 = 1e300 overflows the estimator at step 1: the identified
    # coefficients are NaN, and the summary writes them as null
    doc = to_document(preset("eg1"))
    doc["sim"]["y0"] = 1e300
    doc["sim"]["steps"] = 30
    cfg_path = tmp_path / "huge.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out), "--quiet"])
    assert code == 3
    assert "basis argument must be finite, got nan" in capsys.readouterr().err

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    summary = json.loads((out / "eg1_summary.json").read_text(), parse_constant=reject)
    assert summary["aborted_at_step"] == 1
    assert None in summary["final_theta"]


@pytest.mark.parametrize("key, value, code", [
    ("r0", 1e300, 2),           # the first forgetting step would overflow
    ("forgetting", 1e-320, 2),  # lambda * phi' R phi would underflow to 0
    ("r0", 1e150, 3),           # accepted; the run still fails, and says where
    ("forgetting", 1e-300, 3),
])
def test_rls_range_escapes_exit_two(tmp_path, capsys, key, value, code):
    doc = to_document(preset("eg4-BL"))
    doc["rls"][key] = value
    doc["sim"]["steps"] = 30
    cfg_path = tmp_path / "rls.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                     "--quiet"]) == code
    err = capsys.readouterr().err
    assert (f"rls: {key}" in err) == (code == 2)


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
    doc = to_document(preset("eg4-BL"))
    doc["sim"]["warmup_std"] = float("nan")
    bad.write_text(yaml.safe_dump(doc))
    capsys.readouterr()
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "sim.warmup_std" in capsys.readouterr().err
    doc = to_document(preset("eg4-BL"))
    doc["output"]["windows"] = [[10, 5]]
    bad.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "windows" in capsys.readouterr().err
    doc = to_document(preset("eg4-BL"))
    doc["name"] = "../escaped"  # the name is the stem of every output file
    bad.write_text(yaml.safe_dump(doc))
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert "name" in capsys.readouterr().err
    assert not (tmp_path / "escaped.csv").exists()


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
    out = capsys.readouterr().out
    rows = _table_rows(out)
    assert list(rows) == ["eg4-BL", "eg4-PB2", "eg4-FB3", "eg4-CB4"]
    assert "ratio" not in out  # a ratio line only for exactly two medians


# --- selftest subcommand -----------------------------------------------------------------

def test_selftest_passes_quietly(capsys):
    assert main(["selftest", "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
