"""Built-in diagnostic suite: independent oracles plus named invariant checks.

The oracles here deliberately avoid the production code paths they judge:
the batch least-squares oracle solves normal equations directly, the KKT
oracle solves the full saddle-point system of the QP's dense form
(`dense_form`), the frozen rollout steps the frozen recursion one row at a
time, and the linear planner oracle builds prediction matrices by probing
the recursion with unit control sequences. `run_checks` executes the static
check list and reports per-check pass/fail, so a broken build names the
property it violates.
"""

from __future__ import annotations

import math

import numpy as np

from . import basis as basis_mod
from . import model as model_mod
from . import mpc as mpc_mod
from . import plant as plant_mod
from . import qp as qp_mod
from . import rls as rls_mod
from .model import History, ModelStructure

__all__ = [
    "batch_least_squares",
    "dense_form",
    "kkt_solve",
    "rollout_frozen",
    "dense_linear_plan",
    "run_checks",
    "CHECKS",
]


# --- oracles -----------------------------------------------------------------

def batch_least_squares(theta0, r0_matrix, ys, phis) -> np.ndarray:
    """Regularized batch fit: minimize sum (y - theta phi)^2 + (theta - theta0) R0 (theta - theta0)'."""
    theta0 = np.asarray(theta0, dtype=float)
    r0_matrix = np.asarray(r0_matrix, dtype=float)
    gram = r0_matrix.copy()
    moment = theta0 @ r0_matrix
    for y, phi in zip(ys, phis):
        phi = np.asarray(phi, dtype=float)
        gram = gram + np.outer(phi, phi)
        moment = moment + float(y) * phi
    return np.linalg.solve(gram.T, moment)


def dense_form(problem: qp_mod.QpProblem):
    """Dense (cost_quad, cost_lin, a_eq, b_eq) of a horizon QP over x = [Y; U]:
    min x' cost_quad x + cost_lin' x  s.t.  a_eq x = b_eq."""
    m = problem.horizon
    cost_quad = np.zeros((2 * m, 2 * m))
    cost_quad[:m, :m] = problem.q_weight * np.eye(m)
    cost_quad[m:, m:] = problem.r_weight * np.eye(m)
    cost_lin = np.concatenate([problem.y_lin, np.zeros(m)])
    a_eq = np.hstack([np.eye(m) - problem.f_pred, -problem.g_pred])
    return cost_quad, cost_lin, a_eq, problem.b_eq


def kkt_solve(problem: qp_mod.QpProblem) -> np.ndarray:
    """Equality-constrained QP via the full dense saddle-point system."""
    h, cost_lin, a, b_eq = dense_form(problem)
    m = a.shape[0]
    kkt = np.block([[2.0 * h, a.T], [a, np.zeros((m, m))]])
    rhs = np.concatenate([-cost_lin, b_eq])
    return np.linalg.solve(kkt, rhs)[:2 * m]


def rollout_frozen(table: mpc_mod.SdcTable, state: mpc_mod.HorizonState,
                   controls: np.ndarray) -> np.ndarray:
    """Propagate the frozen linear recursion; same grid conventions as mpc.rollout."""
    n = table.order
    horizon = controls.size
    ys = np.empty(horizon + n)
    ys[:n - 1] = state.past_y
    ys[n - 1] = state.anchor
    us = np.empty(horizon + n - 1)
    us[:n - 1] = state.past_u
    us[n - 1:] = controls
    for r in range(horizon):
        acc = table.offset[r]
        for lag in range(1, n + 1):
            acc += table.f_coef[r, lag - 1] * ys[r + n - lag]
            acc += table.g_coef[r, lag - 1] * us[r + n - lag]
        ys[r + n] = acc
    return ys[n:]


def dense_linear_plan(structure: ModelStructure, theta, state: mpc_mod.HorizonState,
                      q_weight: float, r_weight: float) -> np.ndarray:
    """Horizon plan for constant-dictionary models by explicit prediction matrices.

    Probes the affine recursion with zero and unit control sequences to build
    Y = base + gain @ U column by column, then solves the normal equations of
    the tracking objective. Shares no code with the SDC/QP pipeline.
    """
    for spec in (*structure.f_specs, *structure.g_specs):
        if not isinstance(spec, basis_mod.Constant):
            raise ValueError("oracle requires constant dictionaries")
    if structure.h_spec is not None and not isinstance(
            structure.h_spec, (basis_mod.Constant, basis_mod.Zero)):
        raise ValueError("oracle requires a constant or zero offset dictionary")
    theta = np.asarray(theta, dtype=float)
    n = structure.order
    a_coef = [theta[structure.f_slice(i)][0] for i in range(1, n + 1)]
    b_coef = [theta[structure.g_slice(i)][0] for i in range(1, n + 1)]
    if structure.dim_h and isinstance(structure.h_spec, basis_mod.Constant):
        c_off = theta[structure.h_slice()][0]
    else:
        c_off = 0.0

    horizon = state.commands.size

    def simulate(controls):
        ys = list(state.past_y) + [state.anchor]
        us = list(state.past_u) + list(controls)
        out = []
        for r in range(horizon):
            acc = c_off
            for lag in range(1, n + 1):
                acc += -a_coef[lag - 1] * ys[r + n - 1 - (lag - 1)]
                acc += b_coef[lag - 1] * us[r + n - 1 - (lag - 1)]
            ys.append(acc)
            out.append(acc)
        return np.array(out)

    base = simulate(np.zeros(horizon))
    gain = np.empty((horizon, horizon))
    for j in range(horizon):
        probe = np.zeros(horizon)
        probe[j] = 1.0
        gain[:, j] = simulate(probe) - base
    lhs = q_weight * gain.T @ gain + r_weight * np.eye(horizon)
    rhs = q_weight * gain.T @ (state.commands - base)
    return np.linalg.solve(lhs, rhs)


# --- named checks ------------------------------------------------------------

def _check_spline_partition():
    spec = basis_mod.CubicHermiteSpline(4, -3.0, 5.0)
    nodes = spec.nodes
    xs = np.linspace(nodes[1], nodes[4], 257)
    values = spec.eval_grid(xs)
    sums = values[:, 0::2].sum(axis=1)
    worst = float(np.max(np.abs(sums - 1.0)))
    assert worst < 1e-12, f"value-bump sum off unity by {worst:.3e}"


def _check_spline_node_interpolation():
    spec = basis_mod.CubicHermiteSpline(3, -2.0, 2.0)
    rng = np.random.default_rng(7)
    coef = rng.normal(size=spec.dim)
    nodes = spec.nodes
    step = 1e-6
    for i in range(1, spec.interior_nodes + 1):
        val = float(coef @ spec.eval(nodes[i]))
        assert abs(val - coef[2 * i - 2]) < 1e-12, f"node {i} value mismatch"
        hi = float(coef @ spec.eval(nodes[i] + step))
        lo = float(coef @ spec.eval(nodes[i] - step))
        slope = (hi - lo) / (2 * step)
        assert abs(slope - coef[2 * i - 1]) < 1e-4, f"node {i} slope mismatch"


def _check_fourier_bounded():
    spec = basis_mod.Fourier(3, 6.0)
    xs = np.linspace(-30, 30, 1001)
    values = spec.eval_grid(xs)
    assert np.max(np.abs(values)) <= 1.0 + 1e-15, "trig entries must stay in [-1, 1]"


def _check_model_roundtrip():
    structure = ModelStructure(
        2,
        (basis_mod.Polynomial(2), basis_mod.Polynomial(2)),
        (basis_mod.Fourier(1, 4.0), basis_mod.Fourier(1, 4.0)),
        basis_mod.Constant())
    rng = np.random.default_rng(3)
    theta = rng.normal(size=structure.dim_phi)
    fs, gs, h = structure.split(theta)
    back = structure.join(fs, gs, h)
    assert np.array_equal(theta, back), "split/join must round-trip"


def _check_rls_inverse_pair():
    rng = np.random.default_rng(11)
    est = rls_mod.DirectionalForgettingRls(np.zeros(4), 0.5, 0.4, 1e-4)
    for _ in range(120):
        phi = rng.normal(size=4)
        est.step(rng.normal(), phi)
        gap = np.max(np.abs(est.cov @ est.info - np.eye(4)))
        assert gap < 1e-8, f"inverse pair drift {gap:.3e}"


def _check_rls_forgetting_identity():
    rng = np.random.default_rng(12)
    for _ in range(500):
        dim = int(rng.integers(2, 6))
        root = rng.normal(size=(dim, dim))
        info = root @ root.T / dim + 0.5 * np.eye(dim)
        cov = np.linalg.inv(info)
        phi = rng.normal(size=dim)
        lam = float(rng.uniform(0.05, 1.0))
        info_f, _ = rls_mod.directional_forget(info, cov, phi, lam)
        lhs = float(phi @ info_f @ phi)
        rhs = lam * float(phi @ info @ phi)
        assert abs(lhs - rhs) < 1e-10, f"forgetting identity off by {abs(lhs - rhs):.3e}"


def _check_rls_batch_equivalence():
    rng = np.random.default_rng(13)
    dim = 4
    theta0 = rng.normal(size=dim)
    r0 = 0.7
    est = rls_mod.DirectionalForgettingRls(theta0, r0, 1.0, 1e-8)
    ys, phis = [], []
    for _ in range(30):
        phi = rng.normal(size=dim)
        y = float(rng.normal())
        est.step(y, phi)
        ys.append(y)
        phis.append(phi)
    oracle = batch_least_squares(theta0, r0 * np.eye(dim), ys, phis)
    rel = np.max(np.abs(est.theta - oracle)) / (1.0 + np.max(np.abs(oracle)))
    assert rel < 1e-8, f"unit-forgetting recursion vs batch fit off by {rel:.3e}"


def _check_qp_matches_kkt():
    rng = np.random.default_rng(14)
    for _ in range(60):
        horizon = int(rng.integers(1, 9))
        problem = _random_problem(rng, horizon)
        x, _ = qp_mod.solve(problem)
        ref = kkt_solve(problem)
        gap = np.max(np.abs(x - ref)) / (1.0 + np.max(np.abs(ref)))
        assert gap < 1e-9, f"structured vs KKT solution gap {gap:.3e}"
        _, _, a_eq, b_eq = dense_form(problem)
        resid = np.max(np.abs(a_eq @ x - b_eq))
        assert resid < 1e-10, f"equality residual {resid:.3e}"


def _random_problem(rng, horizon):
    f_pred = np.tril(rng.normal(size=(horizon, horizon)) * 0.4, -1)
    g_pred = np.tril(rng.normal(size=(horizon, horizon)) * 0.8)
    g_pred[np.diag_indices(horizon)] += np.sign(g_pred[np.diag_indices(horizon)]) + 0.5
    q_weight = float(rng.uniform(0.2, 2.0))
    r_weight = float(rng.uniform(0.01, 1.0))
    y_lin = rng.normal(size=horizon)
    b_eq = rng.normal(size=horizon)
    return qp_mod.QpProblem(f_pred, g_pred, b_eq, q_weight, r_weight, y_lin)


def _check_constraints_match_recursion():
    rng = np.random.default_rng(15)
    for _ in range(60):
        order = int(rng.integers(1, 4))
        horizon = int(rng.integers(order, 9))
        table = mpc_mod.SdcTable(
            f_coef=rng.normal(size=(horizon, order)),
            g_coef=rng.normal(size=(horizon, order)),
            offset=rng.normal(size=horizon))
        state = mpc_mod.HorizonState(
            anchor=float(rng.normal()),
            past_y=rng.normal(size=order - 1),
            past_u=rng.normal(size=order - 1),
            commands=rng.normal(size=horizon))
        controls = rng.normal(size=horizon)
        planned = rollout_frozen(table, state, controls)
        problem = mpc_mod.assemble(
            table, state, mpc_mod.HorizonConfig(horizon, 1, 1.0, 0.1))
        _, _, a_eq, b_eq = dense_form(problem)
        x = np.concatenate([planned, controls])
        gap = np.max(np.abs(a_eq @ x - b_eq))
        assert gap < 1e-12, f"constraint vs recursion gap {gap:.3e}"


def _check_linear_planner_equivalence():
    cfg = plant_mod.preset("eg1")
    structure, horizon_cfg = cfg.structure, cfg.mpc
    est = rls_mod.DirectionalForgettingRls(
        cfg.theta0_array(), cfg.rls.r0, cfg.rls.forgetting, cfg.rls.filter_threshold)
    controller = mpc_mod.RecedingHorizonController(structure, horizon_cfg)
    y_hist, u_hist = History(1), History(1)
    y_hist.append(cfg.y0)
    u_hist.append(cfg.u0)
    u_next = cfg.u0
    for k in range(1, 61):
        y_k = plant_mod.plant_step(cfg.plant, y_hist, u_hist, k)
        y_hist.append(y_k)
        u_hist.append(u_next)
        phi = model_mod.regressor(structure, y_hist, u_hist, k)
        est.step(y_k, phi)
        u_next, _ = controller.plan(est.theta, y_hist, u_hist, k, cfg.command)
        anchor = mpc_mod.anchor_prediction(structure, est.theta, y_hist, u_hist, k)
        state = mpc_mod.HorizonState(
            anchor=anchor, past_y=np.empty(0), past_u=np.empty(0),
            commands=np.array([cfg.command(k + i) for i in range(2, horizon_cfg.horizon + 2)]))
        ref = dense_linear_plan(structure, est.theta, state,
                                horizon_cfg.q_weight, horizon_cfg.r_weight)
        gap = abs(u_next - ref[0])
        assert gap < 1e-9, f"planner vs dense linear oracle gap {gap:.3e} at step {k}"


def _check_loop_determinism():
    cfg = plant_mod.preset("eg4-BL")
    from dataclasses import replace
    cfg = replace(cfg, steps=60)
    first = plant_mod.run_closed_loop(cfg)
    second = plant_mod.run_closed_loop(cfg)
    for name in ("y", "u", "e_c", "e_p"):
        a, b = getattr(first, name), getattr(second, name)
        assert np.array_equal(a, b), f"column {name} differs between identical runs"


def _check_tracking_improves():
    cfg = plant_mod.preset("eg1")
    log = plant_mod.run_closed_loop(cfg)
    early = plant_mod.metrics(log, (1, 100)).mean_abs_ec
    late = plant_mod.metrics(log, (301, 500)).mean_abs_ec
    assert late < early, f"tracking error did not shrink: {early:.3g} -> {late:.3g}"


CHECKS = (
    ("spline-partition-of-unity", _check_spline_partition),
    ("spline-node-interpolation", _check_spline_node_interpolation),
    ("fourier-bounded", _check_fourier_bounded),
    ("model-coefficient-roundtrip", _check_model_roundtrip),
    ("rls-inverse-pair", _check_rls_inverse_pair),
    ("rls-directional-forgetting-identity", _check_rls_forgetting_identity),
    ("rls-batch-equivalence", _check_rls_batch_equivalence),
    ("qp-matches-kkt-oracle", _check_qp_matches_kkt),
    ("qp-constraints-match-recursion", _check_constraints_match_recursion),
    ("planner-matches-dense-linear-oracle", _check_linear_planner_equivalence),
    ("closed-loop-deterministic", _check_loop_determinism),
    ("closed-loop-tracking-improves", _check_tracking_improves),
)


def run_checks(report=print) -> list[tuple[str, str]]:
    """Run every named check; returns a list of (name, message) failures."""
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
        except AssertionError as exc:
            failures.append((name, str(exc)))
            report(f"FAIL {name}: {exc}")
        except Exception as exc:  # broken builds should still name the property
            failures.append((name, f"{type(exc).__name__}: {exc}"))
            report(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            report(f"PASS {name}")
    return failures
