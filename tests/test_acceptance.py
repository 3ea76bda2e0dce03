"""Acceptance gate: twelve pinned checks combining exact invariants,
independent oracles, and desk-scale benchmark expectations.

Each test prints one summary line (visible under `pytest -s`) so a run
doubles as a report. Tolerances are part of the contract; do not relax them.
"""

import statistics
import time
from dataclasses import replace

import numpy as np

from plmpc import qp as qp_mod
from plmpc.basis import CubicHermiteSpline, Fourier
from plmpc.cli import render_csv
from plmpc.mpc import HorizonConfig, HorizonState, SdcTable, assemble, rollout_frozen
from plmpc.plant import metrics, preset, run_closed_loop
from plmpc.rls import DirectionalForgettingRls, directional_forget
from plmpc.selftest import batch_least_squares, dense_linear_plan, kkt_solve

SEEDS = (1, 2, 3, 4, 5)
LATE = (301, 500)


def _median_late_ec(name, seeds=SEEDS, window=LATE):
    vals = []
    for seed in seeds:
        log = run_closed_loop(replace(preset(name), seed=seed))
        vals.append(metrics(log, window).mean_abs_ec)
    return statistics.median(vals)


def test_01_estimator_inverse_invariant():
    """500 random updates keep the information/covariance pair mutually
    inverse to 1e-8 in the induced infinity norm, in under a second."""
    rng = np.random.default_rng(101)
    est = DirectionalForgettingRls(np.zeros(5), 1.0, 0.3, 1e-8)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        est.step(float(rng.normal()), rng.normal(size=5))
        gap = float(np.linalg.norm(est.cov @ est.info - np.eye(5), np.inf))
        worst = max(worst, gap)
        assert gap < 1e-8
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"[criterion 01] inverse pair: worst gap {worst:.3e} in {dt:.2f}s")


def test_02_directional_forgetting_identity():
    """The discount acts along the regressor by exactly the forgetting factor,
    on ten thousand random positive definite instances, within 1e-10."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10000):
        dim = int(rng.integers(1, 6))
        root = rng.normal(size=(dim, dim))
        info = root @ root.T / dim + 0.5 * np.eye(dim)
        cov = np.linalg.inv(info)
        phi = rng.normal(size=dim)
        lam = float(rng.uniform(0.05, 1.0))
        info_f, _ = directional_forget(info, cov, phi, lam)
        gap = abs(float(phi @ info_f @ phi) - lam * float(phi @ info @ phi))
        worst = max(worst, gap)
        assert gap < 1e-10
    print(f"[criterion 02] forgetting identity: worst gap {worst:.3e}")


def test_03_unit_forgetting_matches_batch_fit():
    """With the discount disabled the recursion equals the regularized batch
    solution after 5..50 random steps, within 1e-8 relative."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        theta0 = rng.normal(size=dim)
        r0 = float(rng.uniform(0.1, 2.0))
        est = DirectionalForgettingRls(theta0, r0, 1.0, 1e-10)
        ys, phis = [], []
        for _ in range(int(rng.integers(5, 51))):
            phi = rng.normal(size=dim)
            y = float(rng.normal())
            est.step(y, phi)
            ys.append(y)
            phis.append(phi)
        oracle = batch_least_squares(theta0, r0 * np.eye(dim), ys, phis)
        rel = float(np.max(np.abs(est.theta - oracle))) / (1.0 + float(np.max(np.abs(oracle))))
        worst = max(worst, rel)
        assert rel < 1e-8
    print(f"[criterion 03] batch equivalence: worst relative gap {worst:.3e}")


def test_04_structured_solver_matches_saddle_point_oracle():
    """500 random horizon problems: the elimination-based solve agrees with a
    dense saddle-point solve to 1e-9 and satisfies the equalities to 1e-10."""
    rng = np.random.default_rng(104)
    worst_x, worst_r = 0.0, 0.0
    for _ in range(500):
        horizon = int(rng.integers(1, 9))
        f_pred = np.tril(rng.normal(size=(horizon, horizon)) * 0.4, -1)
        g_pred = np.tril(rng.normal(size=(horizon, horizon)) * 0.8)
        diag = np.diag_indices(horizon)
        g_pred[diag] += np.sign(g_pred[diag]) + 0.5
        a_eq = np.hstack([np.eye(horizon) - f_pred, -g_pred])
        cost = np.zeros((2 * horizon, 2 * horizon))
        cost[:horizon, :horizon] = float(rng.uniform(0.2, 2.0)) * np.eye(horizon)
        cost[horizon:, horizon:] = float(rng.uniform(0.01, 1.0)) * np.eye(horizon)
        lin = np.concatenate([rng.normal(size=horizon), np.zeros(horizon)])
        problem = qp_mod.QpProblem(cost, lin, a_eq, rng.normal(size=horizon))
        x, _ = qp_mod.solve(problem)
        ref = kkt_solve(problem)
        gap = float(np.max(np.abs(x - ref))) / (1.0 + float(np.max(np.abs(ref))))
        resid = float(np.max(np.abs(problem.a_eq @ x - problem.b_eq)))
        worst_x, worst_r = max(worst_x, gap), max(worst_r, resid)
        assert gap < 1e-9
        assert resid < 1e-10
    print(f"[criterion 04] qp oracle: worst gap {worst_x:.3e}, residual {worst_r:.3e}")


def test_05_assembled_constraints_equal_frozen_recursion():
    """200 random frozen-coefficient sets: stacking [rollout; controls] into
    the equality block reproduces the right-hand side to 1e-12."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        order = int(rng.integers(1, 4))
        horizon = int(rng.integers(order, 10))
        table = SdcTable(f_coef=rng.normal(size=(horizon, order)),
                         g_coef=rng.normal(size=(horizon, order)),
                         offset=rng.normal(size=horizon))
        state = HorizonState(anchor=float(rng.normal()),
                             past_y=rng.normal(size=order - 1),
                             past_u=rng.normal(size=order - 1),
                             commands=rng.normal(size=horizon))
        controls = rng.normal(size=horizon)
        planned = rollout_frozen(table, state, controls)
        problem = assemble(table, state, HorizonConfig(horizon, 1, 1.0, 0.1))
        gap = float(np.max(np.abs(
            problem.a_eq @ np.concatenate([planned, controls]) - problem.b_eq)))
        worst = max(worst, gap)
        assert gap < 1e-12
    print(f"[criterion 05] constraint assembly: worst gap {worst:.3e}")


def test_06_single_solve_loop_equals_dense_linear_controller():
    """With constant dictionaries and a one-solve budget, every control the
    closed loop applies over 200 steps matches an independently coded dense
    tracking controller to 1e-9."""
    cfg = replace(preset("eg1"), steps=200)
    log = run_closed_loop(cfg)
    structure, horizon_cfg = cfg.structure, cfg.mpc
    worst = 0.0
    for k in range(1, cfg.steps):
        theta = log.theta[k - 1]
        # anchor from logged data: regressor for step k+1 is [-y_k, u_k, 0]
        anchor = float(theta[0] * -log.y[k - 1] + theta[1] * log.u[k - 1])
        state = HorizonState(
            anchor=anchor, past_y=np.empty(0), past_u=np.empty(0),
            commands=np.array([cfg.command(k + i)
                               for i in range(2, horizon_cfg.horizon + 2)]))
        ref = dense_linear_plan(structure, theta, state,
                                horizon_cfg.q_weight, horizon_cfg.r_weight)
        gap = abs(float(log.u[k]) - float(ref[0]))
        worst = max(worst, gap)
        assert gap < 1e-9, f"step {k}"
    print(f"[criterion 06] dense controller shadow: worst control gap {worst:.3e}")


def test_07_basis_suites():
    """Spline value bumps partition unity to 1e-12 on a grid, node values and
    finite-difference slopes interpolate to 1e-5, trig entries stay bounded."""
    spline = CubicHermiteSpline(4, -3.0, 5.0)
    nodes = spline.nodes
    xs = np.linspace(nodes[1], nodes[-2], 512)
    sums = spline.eval_grid(xs)[:, 0::2].sum(axis=1)
    pou = float(np.max(np.abs(sums - 1.0)))
    assert pou < 1e-12

    rng = np.random.default_rng(107)
    coef = rng.normal(size=spline.dim)
    h = 1e-6
    worst = 0.0
    for i in range(1, spline.interior_nodes + 1):
        val = float(coef @ spline.eval(nodes[i]))
        assert abs(val - coef[2 * i - 2]) < 1e-12
        fd = float(coef @ spline.eval(nodes[i] + h)
                   - coef @ spline.eval(nodes[i] - h)) / (2 * h)
        worst = max(worst, abs(fd - coef[2 * i - 1]))
        assert abs(fd - coef[2 * i - 1]) < 1e-5

    trig = Fourier(3, 6.0).eval_grid(np.linspace(-30, 30, 2001))
    assert float(np.max(np.abs(trig))) <= 1.0 + 1e-15
    print(f"[criterion 07] bases: partition {pou:.2e}, slope fd {worst:.2e}")


def test_08_adaptive_dictionary_beats_constant_gain_baseline():
    """Median late-window tracking error of the matched-dictionary controller
    is at most a third of the constant-gain controller's on the same plant,
    commands, and seeds; the ten runs finish inside 30 seconds."""
    t0 = time.perf_counter()
    lin = _median_late_ec("eg3")
    adaptive = _median_late_ec("eg4-BL")
    dt = time.perf_counter() - t0
    assert adaptive <= lin / 3.0, (adaptive, lin)
    assert dt < 30.0
    print(f"[criterion 08] eg4-BL {adaptive:.3e} vs eg3 {lin:.3e} "
          f"(ratio {adaptive / lin:.2e}) in {dt:.1f}s")


def test_09_second_harmonic_improves_on_first():
    """On the sine-gain plant the two-harmonic dictionary's median late-window
    tracking error is strictly below the one-harmonic dictionary's."""
    rich = _median_late_ec("eg6-FB5")
    poor = _median_late_ec("eg5-FB3")
    assert rich < poor, (rich, poor)
    print(f"[criterion 09] eg6-FB5 {rich:.4f} < eg5-FB3 {poor:.4f}")


def test_10_linear_benchmark_error_decays(run_preset):
    """The introductory benchmark's late-window mean tracking error sits at
    least ten times below its first hundred steps, fixed seed."""
    log = run_preset("eg1", seed=1, steps=500)
    early = metrics(log, (1, 100)).mean_abs_ec
    late = metrics(log, LATE).mean_abs_ec
    assert late <= early / 10.0, (early, late)
    print(f"[criterion 10] eg1 early {early:.3f} -> late {late:.3e} "
          f"({early / late:.0f}x)")


def test_11_performance_envelope():
    """A full 500-step spline-dictionary run (horizon 20, ten-solve budget)
    completes in under ten seconds with per-step diagnostics recorded."""
    cfg = preset("eg4-CB4")
    t0 = time.perf_counter()
    log = run_closed_loop(cfg)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    assert log.steps == 500
    assert np.all(log.subiters >= 1)
    assert np.all(log.subiters <= cfg.mpc.subiterations)
    assert np.all(log.qp_iters >= 1)
    assert np.all(log.wall_ms > 0.0)
    print(f"[criterion 11] eg4-CB4 500 steps in {dt:.2f}s "
          f"(mean {1e3 * dt / 500:.2f} ms/step)")


def test_12_repeat_runs_are_bytewise_identical():
    """Same preset and seed twice: the rendered per-step tables match byte for
    byte, including the nonlinear multi-solve path."""
    for name, steps in (("eg1", 500), ("eg6-FB5", 200)):
        cfg = replace(preset(name), steps=steps)
        a = render_csv(run_closed_loop(cfg)).encode()
        b = render_csv(run_closed_loop(cfg)).encode()
        assert a == b, name
    print("[criterion 12] determinism: identical bytes on repeat runs")
