"""What the closed-loop benchmark in bench/ relies on from the library.

`bench/run.py` exits 1 when a loop fails a step, tracks outside its
workload's band or has per-step clocks that disagree with the outer clock,
and its last stdout line must be the JSON result. These tests run the same
checks on the first input of each workload, and check that the layer
functions the span tracer wraps still exist where it looks for them and are
all called, since a layer never called turns its per-call figures into NaN,
which is not JSON. bench/ is only read here.
"""

import json
import sys
from pathlib import Path

import pytest

import plmpc
from plmpc import config, plant

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name, owner_path, attr", spans.TRACED,
                         ids=[f"{owner}.{attr}" for _, owner, attr in spans.TRACED])
def test_traced_functions_resolve_on_their_owner(name, owner_path, attr):
    owner = plmpc
    for part in owner_path.split("."):
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{name}: {owner_path}.{attr} is gone"


# SHA-256 of the y and u trajectories of each workload's first seed-1 input.
# The workload bands sit on a chaotic map: a change in the last bit of one
# step redraws the late tracking of every input. A change that moves bits on
# purpose updates these and lists the new values in CHANGES.md.
GOLDEN_FIRST_INPUT_SHA256 = {
    "fixed-point": "4ff70bbaec40266d577cb16dd7ce7d3803fb61d746c07f99224de996f871b4c4",
    "single-solve": "404847dc1b6cfb5a0c68195f83bbeb64a5d5dc280be552393a716c42200c0903",
    "box-bounded": "b6ededee2293c8bb73dd1aee2a0832919f8b21b9ff5fdc82d39ccfe87f1dd1f0",
}


def _first_document(name, steps=None):
    doc = workloads.documents(workloads.WORKLOADS[name], 1, bench_run.INPUTS_PER_RUN)[0]
    if steps is not None:
        doc["sim"]["steps"] = steps
    return doc


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_input_passes_the_benchmark_checks(name, capsys):
    workload = workloads.WORKLOADS[name]
    loop = bench_run.closed_loop(plant, config.from_document(_first_document(name)), 0)
    assert capsys.readouterr().out == ""
    assert bench_run.check_loops([loop], workload) == []
    assert loop.sha256 == GOLDEN_FIRST_INPUT_SHA256[name]
    json.dumps(bench_run.end_to_end_metrics([loop], [1.0]), allow_nan=False)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known controller fault: this input reaches |y| = 205 "
                          "at step 27 (ROADMAP item 4)")
def test_fixed_point_seed_3_input_11_passes_the_benchmark_checks():
    # Seed 3's input 11 (y0 = 0.1301824) has 9 steps with |y| > 100, so
    # `bench/run.py --workload fixed-point --seed 3` exits 1 (seed 5's input
    # 12 has 4). Once the planner keeps this input bounded the test passes,
    # and being strict it fails the suite until the marker goes.
    workload = workloads.WORKLOADS["fixed-point"]
    doc = workloads.documents(workload, 3, bench_run.INPUTS_PER_RUN)[11]
    loop = bench_run.closed_loop(plant, config.from_document(doc), 11)
    assert bench_run.check_loops([loop], workload) == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_layer_metrics_are_strict_json(name):
    doc = _first_document(name, steps=60)
    cfg = config.from_document(doc)
    with spans.Tracer(plmpc) as tracer:
        loop = bench_run.closed_loop(plant, cfg, 0)
        tracer.end_loop()
    assert loop.error is None
    metrics = bench_run.layer_metrics(tracer, [loop], [loop], config, doc)
    json.dumps(metrics, allow_nan=False)
