"""Self-tests of the benchmark harness (not part of the library's test suite).

usage: python3 -m pytest -q bench/selftests.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from plmpc import config, plant  # noqa: E402


def _cfg(preset, steps=None, y0=None, **mpc):
    doc = config.to_document(plant.preset(preset))
    doc["mpc"].update(mpc)
    if steps is not None:
        doc["sim"]["steps"] = steps
    if y0 is not None:
        doc["sim"]["y0"] = y0
    return config.from_document(doc)


@pytest.mark.parametrize("preset", ["eg4-BL", "eg5-BL"])
def test_bounded_matched_pair_abort_counts_498_of_500(preset):
    # Known defect: with |u| <= 3 the active set does not settle at step 3.
    loop = bench.closed_loop(plant, _cfg(preset, u_min=-3.0, u_max=3.0), 0)
    assert loop.error.startswith("QpError at step 3: active set failed to settle within 41")
    assert (loop.steps, loop.completed, loop.failed) == (500, 2, 498)
    assert loop.failed / loop.steps == 498 / 500
    assert bench.check_loops([loop], workloads.WORKLOADS["single-solve"])


def test_raw_exception_is_counted_with_its_step():
    # An output-lag gain of 1e50 makes the estimator's forgetting step raise a
    # bare ValueError at step 4; run_closed_loop passes it on with no partial log.
    doc = config.to_document(plant.preset("eg4-PB2"))
    doc["plant"]["f"][0] = {"kind": "constant", "value": -1e50}
    with np.errstate(all="ignore"):
        loop = bench.closed_loop(plant, config.from_document(doc), 0)
    assert loop.error.startswith("ValueError at step 4: regressor carries no information")
    assert (loop.completed, loop.failed) == (3, 497)
    assert loop.sha256 is None and loop.wall_ms.size == 0


def test_outputs_beyond_the_divergence_bound_fail():
    loop = bench.closed_loop(plant, _cfg("eg4-BL", steps=30, subiterations=1), 0, 0.5)
    assert loop.error is None and loop.completed == 30
    assert 0 < loop.failed < 30


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_generates_the_same_config(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.documents(workload, 7, 4)
    again = workloads.documents(workload, 7, 4)
    assert first == again
    assert [config.from_document(d) for d in first] == [config.from_document(d) for d in again]
    other = workloads.documents(workload, 8, 4)
    assert [d["sim"]["y0"] for d in other] != [d["sim"]["y0"] for d in first]
    width = (workloads.Y0_HI - workloads.Y0_LO) / 4
    for i, doc in enumerate(first):
        assert doc["sim"]["seed"] == 7
        assert workloads.Y0_LO + i * width <= doc["sim"]["y0"] < workloads.Y0_LO + (i + 1) * width


def test_checks_flag_band_and_repeatability():
    workload = workloads.WORKLOADS["single-solve"]
    cfg = _cfg("eg4-BL", subiterations=1)
    loop = bench.closed_loop(plant, cfg, 0)
    assert bench.check_loops([loop, loop], workload) == []
    changed = bench.Loop(**{**vars(loop), "sha256": "0" * 64, "late_ec": 1.0})
    problems = bench.check_loops([loop, changed], workload)
    assert any("outside" in p for p in problems)
    assert any("differs on repeat" in p for p in problems)


def test_tracer_accounts_for_the_root_span_and_restores_the_library():
    import plmpc

    original = plant.run_closed_loop
    cfg = _cfg("eg6-FB5", steps=20)
    with spans.Tracer(plmpc) as tracer:
        plant.run_closed_loop(cfg)
        tracer.end_loop()
    assert plant.run_closed_loop is original
    table = tracer.spans()
    root = table[:, 3] < 0
    assert root.sum() == 1
    own = spans.self_times(table)
    assert own.sum() == pytest.approx(table[root, 2] - table[root, 1], rel=1e-9)
    assert (own >= -1e-9).all()
    assert len(tracer.plan_diags) == 20 and sum(d[0] for d in tracer.plan_diags) == len(tracer.qp_diags)
    assert set(table[:, 4]) == set(range(0, 21))


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "single-solve",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
