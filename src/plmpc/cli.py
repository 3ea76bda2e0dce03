"""Command-line front end: run experiments, compare presets, self-test.

Exit codes: 0 success, 2 configuration error, 3 runtime/solver error.
The per-step CSV schema is fixed: header
k,y,u,r,e_c,e_p,log10_abs_ec,log10_abs_ep,subiters,qp_ridge
with floats at 17 significant digits and a -16 sentinel for the decimal log
of an exact zero, so identical configs and seeds give identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time

import numpy as np

from . import __version__, config as config_mod, selftest as selftest_mod
from .model import coeff_g_grid
from .plant import (
    RunLog,
    SimulationAborted,
    log10_abs,
    metrics,
    preset,
    preset_names,
    run_closed_loop,
)

CSV_HEADER = "k,y,u,r,e_c,e_p,log10_abs_ec,log10_abs_ep,subiters,qp_ridge"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def render_csv(log: RunLog) -> str:
    ec_log = log10_abs(log.e_c)
    ep_log = log10_abs(log.e_p)
    lines = [CSV_HEADER]
    for i in range(log.steps):
        lines.append(",".join([
            str(int(log.k[i])),
            _g17(log.y[i]), _g17(log.u[i]), _g17(log.r[i]),
            _g17(log.e_c[i]), _g17(log.e_p[i]),
            _g17(ec_log[i]), _g17(ep_log[i]),
            str(int(log.subiters[i])), str(int(log.qp_ridge[i])),
        ]))
    return "\n".join(lines) + "\n"


def ghat_grid(cfg, log: RunLog) -> tuple[np.ndarray, np.ndarray]:
    """Output grid and the identified first input coefficient on it at the snapshot step."""
    step = min(cfg.output.snapshot_step, log.steps)
    ys = np.linspace(cfg.output.grid_lo, cfg.output.grid_hi, cfg.output.grid_points)
    return ys, coeff_g_grid(cfg.structure, log.theta[step - 1], 1, ys)


def render_ghat_grid(cfg, log: RunLog) -> str:
    lines = ["y,ghat_1"]
    for yv, gv in zip(*ghat_grid(cfg, log)):
        lines.append(f"{_g17(yv)},{_g17(gv)}")
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_summary(cfg, log: RunLog, elapsed_s: float, aborted_step=None) -> dict:
    doc = config_mod.to_document(cfg)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    window_metrics = {}
    for window in cfg.output.windows:
        if window[1] <= log.steps:
            m = metrics(log, window)
            window_metrics[f"{window[0]}-{window[1]}"] = {
                "mean_abs_ec": m.mean_abs_ec,
                "mean_abs_ep": m.mean_abs_ep,
                "max_abs_u": m.max_abs_u,
            }
    return {
        "schema_version": "1",
        "name": cfg.name,
        "seed": cfg.seed,
        "steps": log.steps,
        "aborted_at_step": aborted_step,
        "config": doc,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "metrics": window_metrics,
        "final_theta": [float(v) for v in log.theta[-1]] if log.steps else [],
        "rng": "pcg64",
        "warmup_noise": "standard-deviation",
        "timing": {
            "total_s": elapsed_s,
            "mean_step_ms": float(np.mean(log.wall_ms)) if log.steps else 0.0,
            "max_step_ms": float(np.max(log.wall_ms)) if log.steps else 0.0,
        },
        "versions": {
            "plmpc": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }


def write_outputs(cfg, log: RunLog, out_dir: str, elapsed_s: float,
                  aborted_step=None, quiet=False) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stem = cfg.name
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    _atomic_write(csv_path, render_csv(log))
    summary = build_summary(cfg, log, elapsed_s, aborted_step)
    _atomic_write(os.path.join(out_dir, f"{stem}_summary.json"),
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if log.steps:
        _atomic_write(os.path.join(out_dir, f"{stem}_ghat.csv"),
                      render_ghat_grid(cfg, log))
    if not quiet:
        for key, vals in summary["metrics"].items():
            print(f"{stem} steps {key}: mean|e_c|={vals['mean_abs_ec']:.6g} "
                  f"mean|e_p|={vals['mean_abs_ep']:.6g}")
        print(f"wrote {csv_path}")
    return csv_path


def _load_cfg(args) -> "config_mod.SimConfig":
    if bool(args.preset) == bool(args.config):
        raise config_mod.ConfigError("give exactly one of --preset or --config")
    if args.preset:
        try:
            cfg = preset(args.preset)
        except KeyError as exc:
            raise config_mod.ConfigError(str(exc.args[0])) from exc
    else:
        cfg = config_mod.load_config_file(args.config)
    return config_mod.with_overrides(
        cfg, seed=args.seed, steps=args.steps, snapshot_step=args.snapshot_step)


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    t0 = time.perf_counter()
    try:
        log = run_closed_loop(cfg)
    except SimulationAborted as exc:
        write_outputs(cfg, exc.partial, args.out_dir, time.perf_counter() - t0,
                      aborted_step=exc.step, quiet=args.quiet)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    write_outputs(cfg, log, args.out_dir, time.perf_counter() - t0, quiet=args.quiet)
    return EXIT_OK


def _expand_names(names: list[str]) -> list[str]:
    """Presets named outright or by family prefix (`eg4` -> `eg4-*`); none means all."""
    available = preset_names()
    if not names:
        return available
    expanded = []
    for name in names:
        members = [name] if name in available else [
            n for n in available if n.startswith(name + "-")]
        if not members:
            raise config_mod.ConfigError(
                f"unknown preset or family {name!r}; available: {', '.join(available)}")
        expanded.extend(members)
    return expanded


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise config_mod.ConfigError(
            f"seeds must be comma-separated integers, got {text!r}") from None
    if not seeds:
        raise config_mod.ConfigError("need at least one seed")
    return seeds


def _parse_window(text: str, steps: int) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in text.split(":"))
    except ValueError:
        raise config_mod.ConfigError(
            f"window must look like START:END, got {text!r}") from None
    if not 1 <= a <= b <= steps:
        raise config_mod.ConfigError(
            f"window {text} needs 1 <= START <= END <= {steps} (the run length)")
    return a, b


def cmd_compare(args) -> int:
    """Run presets x seeds, tabulate medians over completed runs, report aborts."""
    seeds = _parse_seeds(args.seeds)
    # Every config is built, and so validated, before anything runs;
    # a preset named twice runs once.
    runs = {}
    for name in _expand_names(args.presets):
        base = config_mod.with_overrides(preset(name), steps=args.steps)
        runs[name] = [config_mod.with_overrides(base, seed=seed) for seed in seeds]
    window = _parse_window(args.window, min(cfgs[0].steps for cfgs in runs.values()))

    width = max(map(len, ["preset", *runs]))
    print(f"{'preset':<{width}}  median mean|e_c|  median mean|e_p|  {'aborted':<14}  "
          f"ghat_1 range at snapshot   (steps {window[0]}..{window[1]}, {len(seeds)} seeds)")
    medians, n_aborted = [], 0
    for name, cfgs in runs.items():
        ecs, eps, abort_steps, gains = [], [], [], None
        for cfg in cfgs:
            try:
                log = run_closed_loop(cfg)
            except SimulationAborted as exc:
                abort_steps.append(exc.step)
                continue
            m = metrics(log, window)
            ecs.append(m.mean_abs_ec)
            eps.append(m.mean_abs_ep)
            if gains is None:
                gains = ghat_grid(cfg, log)[1]
        n_aborted += len(abort_steps)
        aborted = f"{len(abort_steps)}/{len(cfgs)}"
        if abort_steps:
            aborted += f" (step {min(abort_steps)})"
        if ecs:
            ec, ep = statistics.median(ecs), statistics.median(eps)
            medians.append((name, ec))
            print(f"{name:<{width}}  {ec:>16.4g}  {ep:>16.4g}  {aborted:<14}  "
                  f"[{gains.min():+.3g}, {gains.max():+.3g}]")
        else:
            print(f"{name:<{width}}  {'-':>16}  {'-':>16}  {aborted:<14}  -")

    for i, (na, ea) in enumerate(medians):
        for nb, eb in medians[i + 1:]:
            ratio = eb / ea if ea else float("inf")
            print(f"ratio {nb}/{na}: {ratio:.4g}")
    if n_aborted:
        print(f"error: {n_aborted} of {len(runs) * len(seeds)} runs aborted", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_selftest(args) -> int:
    report = (lambda _msg: None) if args.quiet else print
    failures = selftest_mod.run_checks(report=report)
    if failures:
        print(f"{len(failures)} of {len(selftest_mod.CHECKS)} checks failed",
              file=sys.stderr)
        return EXIT_RUNTIME
    if not args.quiet:
        print(f"all {len(selftest_mod.CHECKS)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plmpc",
        description="Adaptive receding-horizon control benchmarks for scalar "
                    "pseudo-linear systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one closed-loop experiment")
    run_p.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    run_p.add_argument("--config", help="path to a YAML config document")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--steps", type=int, default=None)
    run_p.add_argument("--out-dir", default="out")
    run_p.add_argument("--snapshot-step", type=int, default=None,
                       help="step whose coefficients feed the ghat grid table")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(fn=cmd_run)

    cmp_p = sub.add_parser("compare", help="run presets over seeds and compare errors")
    cmp_p.add_argument("presets", nargs="*",
                       help="preset names or family prefixes such as eg4 (default: all)")
    cmp_p.add_argument("--seeds", default="1,2,3,4,5")
    cmp_p.add_argument("--steps", type=int, default=None)
    cmp_p.add_argument("--window", default="301:500")
    cmp_p.set_defaults(fn=cmd_compare)

    st_p = sub.add_parser("selftest", help="run the built-in diagnostic checks")
    st_p.add_argument("--quiet", action="store_true")
    st_p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except config_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
