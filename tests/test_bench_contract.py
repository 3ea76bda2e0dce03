"""What the closed-loop benchmark in bench/ relies on from the library.

`bench/run.py` exits 1 when a loop fails a step, tracks outside its
workload's band or has per-step clocks that disagree with the outer clock,
and its last stdout line must be the JSON result. These tests run the same
checks on the first input of each workload, and check that the layer
functions the span tracer wraps still exist where it looks for them.
bench/ is only read here.
"""

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


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_input_passes_the_benchmark_checks(name, capsys):
    workload = workloads.WORKLOADS[name]
    doc = workloads.documents(workload, 1, bench_run.INPUTS_PER_RUN)[0]
    loop = bench_run.closed_loop(plant, config.from_document(doc), 0)
    assert capsys.readouterr().out == ""
    assert bench_run.check_loops([loop], workload) == []
