"""Closed-loop benchmark of the plmpc adaptive controller.

usage: python3 bench/run.py [--workload fixed-point|single-solve|box-bounded|all]
                            [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ./src. One run
sets up (fresh interpreters time import + config + first step), runs one
untimed warm-up loop, then drives 500-step closed loops, cycling over the
inputs the seed generates (see workloads.py) until --seconds have passed and
every input ran once. It prints each metric by name with its
unit, an `info` JSON line (machine-speed probe, versions, git revision,
trajectory hashes), and as its last line a JSON object with the keys
correct, attempted, failed and metrics. `attempted` and `failed` count
control steps.

--trace 0 reports the end-to-end metrics. --trace 1 spends half of --seconds
untraced and half with every layer function wrapped in a span (spans.py),
reports the per-layer metrics and the tracing overhead, and writes the spans
to .bench_out/spans-<workload>.npz.

Exit status: 0 when every check passed, 1 on a correctness failure (a failed
step, tracking outside the workload's band, a non-repeatable trajectory, or
inconsistent clocks), 2 when the library sources are missing.
"""

import os

# Horizon-20 matrices gain nothing from BLAS threads, and thread start-up and
# contention on a small machine add noise; pin before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

INPUTS_PER_RUN = 16     # distinct y0 per run, each run at least once
SETUP_SAMPLES = 5       # fresh interpreters timed per run, after one untimed
MIN_TIMED_STEPS = 1000  # p99 needs at least ten samples beyond it
CLOCK_RATIO_MIN = 0.9   # sum of per-step wall_ms against the outer clock

END_TO_END = {
    "steps_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "track_late_abs_ec": "y",
    "completed_step_share": "share",
}

PER_LAYER = {
    "qp.solve_self_us": "us",
    "qp.iterations_per_solve": "count",
    "qp.active_bounds_per_solve": "count",
    "qp.ridge_share": "share",
    "qp.self_share": "share",
    "basis.points_per_evaluation": "count",
    "basis.self_us_per_step": "us",
    "basis.eval_self_us": "us",
    "basis.eval_grid_self_us": "us",
    "basis.self_share": "share",
    "mpc.rollout_self_us": "us",
    "mpc.build_sdc_self_us": "us",
    "mpc.assemble_self_us": "us",
    "mpc.us_per_evaluation": "us",
    "mpc.evaluations_per_step": "count",
    "mpc.accepted_per_evaluation": "share",
    "mpc.stagnated_steps": "per_500_steps",
    "mpc.diverged_steps": "per_500_steps",
    "mpc.subiterate_self_us": "us",
    "mpc.plan_self_us": "us",
    "mpc.anchor_self_us": "us",
    "mpc.self_share": "share",
    "rls.step_self_us": "us",
    "rls.forget_self_us": "us",
    "rls.update_share": "share",
    "rls.self_share": "share",
    "model.regressor_self_us": "us",
    "model.self_share": "share",
    "plant.step_self_us": "us",
    "plant.driver_self_us_per_step": "us",
    "plant.self_share": "share",
    "config.from_document_ms": "ms",
    "trace.overhead_share": "share",
    "trace.accounted_share": "share",
    "trace.spans_per_step": "count",
}


# --- one closed loop ------------------------------------------------------------

@dataclass
class Loop:
    """Outcome of one closed loop, failures included."""

    input_index: int
    steps: int            # attempted control steps
    completed: int        # steps finished before the run raised
    failed: int           # unfinished steps plus non-finite or out-of-bound outputs
    error: str | None     # exception type, step and message when the run raised
    elapsed_s: float      # outer clock around run_closed_loop
    wall_ms: np.ndarray   # per-step latency of the completed steps (RunLog.wall_ms)
    late_ec: float        # mean |r - y| over the last LATE_STEPS steps; nan if unfinished
    sha256: str | None    # hash of the completed y and u trajectories


def failing_step(exc: BaseException):
    """Step `run_closed_loop` was in when `exc` escaped, or None."""
    step = None
    tb = exc.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        if (frame.f_code.co_name == "run_closed_loop"
                and frame.f_globals.get("__name__") == "plmpc.plant"):
            step = frame.f_locals.get("k", step)
        tb = tb.tb_next
    return step


def closed_loop(plant, cfg, input_index: int, bound=workloads.DIVERGENCE_BOUND) -> Loop:
    """Run one loop and account for every way it can fail."""
    t0 = time.perf_counter()
    try:
        log = plant.run_closed_loop(cfg)
        elapsed = time.perf_counter() - t0
        completed, error = log.steps, None
    except plant.SimulationAborted as exc:
        elapsed = time.perf_counter() - t0
        log, completed = exc.partial, exc.step - 1
        error = f"{type(exc.cause).__name__} at step {exc.step}: {exc.cause}"
    except Exception as exc:  # any escape is a failed run, not a benchmark crash
        elapsed = time.perf_counter() - t0
        step = failing_step(exc)
        log, completed = None, 0 if step is None else step - 1
        error = f"{type(exc).__name__} at step {step}: {exc}"

    if log is None:
        y = u = e_c = wall_ms = np.empty(0)
    else:
        y, u, e_c = log.y[:completed], log.u[:completed], log.e_c[:completed]
        wall_ms = log.wall_ms[:completed].copy()
    bad_outputs = int(np.count_nonzero(~(np.abs(y) <= bound)))
    finished = completed == cfg.steps
    return Loop(
        input_index=input_index,
        steps=cfg.steps,
        completed=completed,
        failed=cfg.steps - completed + bad_outputs,
        error=error,
        elapsed_s=elapsed,
        wall_ms=wall_ms,
        late_ec=(float(np.mean(np.abs(e_c[-workloads.LATE_STEPS:])))
                 if finished and cfg.steps >= workloads.LATE_STEPS else math.nan),
        sha256=None if log is None else hashlib.sha256(y.tobytes() + u.tobytes()).hexdigest(),
    )


def measure(plant, cfgs, seconds, min_loops, after_loop=None) -> list:
    """Cycle over the inputs until `seconds` have passed and, unless a loop
    failed, at least `min_loops` loops ran and MIN_TIMED_STEPS steps completed."""
    loops = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (not any(lp.failed for lp in loops)
               and (len(loops) < min_loops
                    or sum(lp.completed for lp in loops) < MIN_TIMED_STEPS))):
        i = len(loops) % len(cfgs)
        loops.append(closed_loop(plant, cfgs[i], i))
        if after_loop is not None:
            after_loop()
    return loops


def input_weights(loops) -> np.ndarray:
    """Weight 1/repeats per loop: each input counts once however often it ran,
    so the inputs a run happened to repeat do not tilt its figures."""
    repeats = Counter(lp.input_index for lp in loops)
    return np.array([1.0 / repeats[lp.input_index] for lp in loops])


def steps_per_second(loops) -> float:
    weights = input_weights(loops)
    return (float(weights @ [lp.completed for lp in loops])
            / float(weights @ [lp.elapsed_s for lp in loops]))


def step_latency_ms(loops) -> tuple:
    """(p50, p99) of the per-step latency.

    p50 is each input's median step, averaged over the inputs. Fixed-point
    steps take 1 to 10 solves, so the median of all steps pooled falls in a
    thin stretch between modes and moves by a fifth with the draw of inputs;
    each input's own median moves far less.

    p99 is the median over consecutive blocks of MIN_TIMED_STEPS steps of
    each block's p99. A slow machine phase of a few seconds stretches the
    heaviest steps of a whole run's pooled tail, but only a block or two."""
    by_input = {}
    for lp in loops:
        by_input.setdefault(lp.input_index, []).append(lp.wall_ms)
    medians = [float(np.median(w)) for w in (np.concatenate(v) for v in by_input.values())
               if w.size]
    wall = np.concatenate([lp.wall_ms for lp in loops])
    if not wall.size:
        return math.nan, math.nan
    blocks = np.array_split(wall, max(1, wall.size // MIN_TIMED_STEPS))
    return (statistics.fmean(medians),
            statistics.median(float(np.percentile(b, 99)) for b in blocks))


# --- set-up, probe and run information -------------------------------------------

def setup_seconds(doc: dict, samples: int) -> list:
    """Import + config + first control step, each in a fresh interpreter.

    The first, untimed interpreter writes the bytecode caches a fresh
    checkout lacks; every later `plmpc run` starts with them in place."""
    one_step = copy.deepcopy(doc)
    one_step["sim"]["steps"] = 1
    payload = json.dumps(one_step)
    times = []
    for _ in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_child.py"), str(SRC)],
            input=payload, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def machine_probe_ms() -> float:
    """Median time of a fixed mix of interpreter and small-matrix work, a
    record of how fast the machine ran; it enters no metric."""
    a = np.linspace(0.0, 1.0, 400).reshape(20, 20)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(50000):
            acc += math.sin(i * 1e-3)
        for _ in range(5000):
            acc += float((a @ a.T)[0, 0])
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def git_revision() -> str:
    """Commit of the checkout from .git, or 'unknown' outside a git tree."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


# --- checks ----------------------------------------------------------------------

def check_loops(loops, workload) -> list:
    """Correctness problems of the loops of one run; empty when all is well."""
    problems = []
    for lp in loops:
        if lp.error is not None:
            problems.append(f"input {lp.input_index}: run raised {lp.error}")
        elif lp.failed:
            problems.append(f"input {lp.input_index}: {lp.failed} steps with non-finite "
                            f"or |y| > {workloads.DIVERGENCE_BOUND:g} outputs")
    lo, hi = workload.late_ec_band
    hashes = {}
    for lp in loops:
        if lp.error is None and not lo <= lp.late_ec <= hi:
            problems.append(f"input {lp.input_index}: late mean |e_c| {lp.late_ec:.6g} "
                            f"outside [{lo:g}, {hi:g}]")
        if lp.sha256 is not None and lp.error is None:
            if hashes.setdefault(lp.input_index, lp.sha256) != lp.sha256:
                problems.append(f"input {lp.input_index}: trajectory differs on repeat")
    done = [lp for lp in loops if lp.error is None]
    if done:
        ratio = sum(float(lp.wall_ms.sum()) for lp in done) / 1e3 / sum(lp.elapsed_s for lp in done)
        if not CLOCK_RATIO_MIN <= ratio <= 1.0:
            problems.append(f"per-step wall_ms sum to {ratio:.4f} of the outer clock")
    return problems


# --- metrics ---------------------------------------------------------------------

def end_to_end_metrics(loops, setup_times) -> dict:
    p50, p99 = step_latency_ms(loops)
    late = {}
    for lp in loops:
        late.setdefault(lp.input_index, lp.late_ec)
    attempted = sum(lp.steps for lp in loops)
    return {
        "steps_per_s": steps_per_second(loops),
        "step_p50_ms": p50,
        "step_p99_ms": p99,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "track_late_abs_ec": statistics.fmean(late.values()),
        "completed_step_share": 1.0 - sum(lp.failed for lp in loops) / attempted,
    }


def from_document_ms(config, doc) -> float:
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(100):
            config.from_document(doc)
        times.append((time.perf_counter() - t0) * 10.0)
    return statistics.median(times)


def layer_metrics(tracer, untraced, traced, config, doc) -> dict:
    table = tracer.spans()
    names = tracer.names
    nid = table[:, 0].astype(np.int64)
    own = spans.self_times(table)
    calls = dict(zip(names, np.bincount(nid, minlength=len(names))))
    self_s = dict(zip(names, np.bincount(nid, weights=own, minlength=len(names))))
    incl_s = dict(zip(names, np.bincount(nid, weights=table[:, 2] - table[:, 1],
                                         minlength=len(names))))
    traced_wall = sum(lp.elapsed_s for lp in traced)

    def ratio(a, b):
        return a / b if b else math.nan

    def self_us(name):
        return ratio(1e6 * self_s[name], calls[name])

    def share(module):
        return sum(v for k, v in self_s.items() if k.startswith(module + ".")) / traced_wall

    steps = calls["plant.step"]
    evaluations = calls["mpc.rollout"]
    qp = np.array(tracer.qp_diags, dtype=float).reshape(-1, 3)
    plan = np.array(tracer.plan_diags, dtype=float).reshape(-1, 4)
    planned, solves = len(plan), plan[:, 0].sum()
    # a basis point is a grid row, or a pointwise call not made by a grid
    eval_parents = table[nid == names.index("basis.eval"), 3].astype(np.int64)
    points = tracer.grid_points + int(np.count_nonzero(
        nid[eval_parents] != names.index("basis.eval_grid")))

    return {
        "qp.solve_self_us": self_us("qp.solve"),
        "qp.iterations_per_solve": ratio(qp[:, 0].sum(), len(qp)),
        "qp.active_bounds_per_solve": ratio(qp[:, 2].sum(), len(qp)),
        "qp.ridge_share": ratio(qp[:, 1].sum(), len(qp)),
        "qp.self_share": share("qp"),
        "basis.points_per_evaluation": ratio(points, evaluations),
        "basis.self_us_per_step": ratio(
            1e6 * (self_s["basis.eval"] + self_s["basis.eval_grid"]), steps),
        "basis.eval_self_us": self_us("basis.eval"),
        "basis.eval_grid_self_us": self_us("basis.eval_grid"),
        "basis.self_share": share("basis"),
        "mpc.rollout_self_us": self_us("mpc.rollout"),
        "mpc.build_sdc_self_us": self_us("mpc.build_sdc"),
        "mpc.assemble_self_us": self_us("mpc.assemble"),
        "mpc.us_per_evaluation": ratio(1e6 * sum(incl_s[name] for name in (
            "mpc.rollout", "mpc.build_sdc", "mpc.assemble", "qp.solve")), evaluations),
        "mpc.evaluations_per_step": ratio(solves, planned),
        "mpc.accepted_per_evaluation": ratio(plan[:, 1].sum(), solves),
        "mpc.stagnated_steps": ratio(500.0 * plan[:, 2].sum(), planned),
        "mpc.diverged_steps": ratio(500.0 * plan[:, 3].sum(), planned),
        "mpc.subiterate_self_us": self_us("mpc.subiterate"),
        "mpc.plan_self_us": self_us("mpc.plan"),
        "mpc.anchor_self_us": self_us("mpc.anchor_prediction"),
        "mpc.self_share": share("mpc"),
        "rls.step_self_us": self_us("rls.step"),
        "rls.forget_self_us": self_us("rls.directional_forget"),
        "rls.update_share": ratio(calls["rls.directional_forget"], calls["rls.step"]),
        "rls.self_share": share("rls"),
        "model.regressor_self_us": self_us("model.regressor"),
        "model.self_share": share("model"),
        "plant.step_self_us": self_us("plant.step"),
        "plant.driver_self_us_per_step": ratio(1e6 * self_s["plant.run_closed_loop"], steps),
        "plant.self_share": share("plant"),
        "config.from_document_ms": from_document_ms(config, doc),
        "trace.overhead_share": 1.0 - steps_per_second(traced) / steps_per_second(untraced),
        "trace.accounted_share": float(own.sum()) / traced_wall,
        "trace.spans_per_step": ratio(len(table), steps),
    }


# --- entry points ----------------------------------------------------------------

def run_workload(args) -> int:
    import plmpc
    from plmpc import config, plant

    workload = workloads.WORKLOADS[args.workload]
    docs = workloads.documents(workload, args.seed, INPUTS_PER_RUN)
    cfgs = [config.from_document(doc) for doc in docs]

    setup_times = [] if args.trace else setup_seconds(docs[0], SETUP_SAMPLES)
    # The warm-up is one whole untimed loop of the first input: it fills the
    # caches, and it repeats that input for the determinism check in every run.
    warm = closed_loop(plant, cfgs[0], 0)
    probe_before = machine_probe_ms()

    if args.trace:
        untraced = measure(plant, cfgs, args.seconds / 2, min_loops=1)
        with spans.Tracer(plmpc) as tracer:
            traced = measure(plant, cfgs, args.seconds / 2, min_loops=1,
                             after_loop=tracer.end_loop)
        timed = untraced + traced
        values = layer_metrics(tracer, untraced, traced, config, docs[0])
        units = PER_LAYER
    else:
        timed = measure(plant, cfgs, args.seconds, min_loops=len(cfgs))
        values = end_to_end_metrics(timed, setup_times)
        units = END_TO_END
    probe_after = machine_probe_ms()
    loops = [warm] + timed

    problems = check_loops(loops, workload)
    if args.trace:
        accounted = values["trace.accounted_share"]
        if not 0.95 <= accounted <= 1.0:
            problems.append(f"span self times account for {accounted:.4f} of traced wall time")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{workload.name}.npz")

    attempted = sum(lp.steps for lp in loops)
    failed = sum(lp.failed for lp in loops)
    width = max(map(len, units))
    print(f"workload {workload.name} (seed {args.seed}, {len(loops)} loops, "
          f"{sum(lp.completed for lp in loops)} steps, trace {args.trace})")
    for name, unit in units.items():
        print(f"  {name:<{width}}  {values[name]:.6g} {unit}")
    print(f"  failed_step_share{'':<{width - 17}}  {failed / attempted:.6g} share")
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "y0": [doc["sim"]["y0"] for doc in docs],
        "trajectory_sha256": {str(lp.input_index): lp.sha256 for lp in loops},
        "late_abs_ec": {str(lp.input_index): lp.late_ec for lp in loops},
        "errors": [lp.error for lp in loops if lp.error],
        "loop_steps_per_s": [lp.completed / lp.elapsed_s for lp in timed],
        "setup_s_samples": setup_times,
        "machine_probe_ms": [probe_before, probe_after],
        "git": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "problems": problems,
    }
    print("info " + json.dumps(info))
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, as the single-workload runs."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            status = status or 1
            continue
        results[name] = json.loads(lines[-1])
    metrics = {f"{name}.{metric}": value for name, result in results.items()
               for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": status == 0 and len(results) == len(workloads.WORKLOADS),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plmpc" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
