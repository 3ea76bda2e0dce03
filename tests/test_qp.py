"""Structured QP solve: closed forms, saddle-point oracle, box handling."""

from dataclasses import replace

import numpy as np
import pytest

from plmpc import qp
from plmpc.qp import QpError, QpProblem, solve
from plmpc.selftest import dense_form, kkt_solve


def _scalar_problem(q, r, gain, offset, target, **kw):
    # one output, one control: y = offset + gain*u, cost q*(y-target)^2 + r*u^2
    return QpProblem(np.zeros((1, 1)), np.array([[gain]]), np.array([offset]),
                     q, r, np.array([-2.0 * q * target]), **kw)


def _random_problem(rng, horizon, bounded=False):
    f_pred = np.tril(rng.normal(size=(horizon, horizon)) * 0.4, -1)
    g_pred = np.tril(rng.normal(size=(horizon, horizon)) * 0.8)
    diag = np.diag_indices(horizon)
    g_pred[diag] += np.sign(g_pred[diag]) + 0.5
    q = float(rng.uniform(0.2, 2.0))
    r = float(rng.uniform(0.01, 1.0))
    lin = rng.normal(size=horizon)
    b_eq = rng.normal(size=horizon)
    if bounded:
        lim = float(rng.uniform(0.1, 0.8))
        return QpProblem(f_pred, g_pred, b_eq, q, r, lin, u_min=-lim, u_max=lim)
    return QpProblem(f_pred, g_pred, b_eq, q, r, lin)


def _objective(problem, x):
    cost_quad, cost_lin, _, _ = dense_form(problem)
    return float(x @ cost_quad @ x + cost_lin @ x)


# --- closed forms ---------------------------------------------------------------

def test_scalar_closed_form():
    # u* = q*gain*(target - offset) / (q*gain^2 + r)
    q, r, gain, offset, target = 1.0, 0.5, 2.0, -1.0, 3.0
    x, diag = solve(_scalar_problem(q, r, gain, offset, target))
    u_star = q * gain * (target - offset) / (q * gain ** 2 + r)
    assert x[1] == pytest.approx(u_star, abs=1e-12)
    assert x[0] == pytest.approx(offset + gain * u_star, abs=1e-12)
    assert not diag.ridge_applied
    assert diag.iterations == 1


def test_scalar_bound_clamps_active_side():
    problem = _scalar_problem(1.0, 0.5, 2.0, -1.0, 3.0, u_min=-1.0, u_max=1.0)
    x, diag = solve(problem)  # free optimum 16/9 sits above the box
    assert x[1] == pytest.approx(1.0, abs=1e-14)
    assert x[0] == pytest.approx(1.0, abs=1e-12)
    assert diag.active_bounds == 1


def test_wide_bounds_change_nothing():
    free, _ = solve(_scalar_problem(1.0, 0.5, 2.0, -1.0, 3.0))
    boxed, diag = solve(_scalar_problem(1.0, 0.5, 2.0, -1.0, 3.0,
                                        u_min=-100.0, u_max=100.0))
    assert np.allclose(free, boxed, atol=1e-12)
    assert diag.active_bounds == 0


def test_zero_effort_weight_reaches_target_exactly():
    x, _ = solve(_scalar_problem(1.0, 0.0, 2.0, -1.0, 3.0))
    assert x[0] == pytest.approx(3.0, abs=1e-12)


# --- oracle agreement --------------------------------------------------------------

def test_matches_saddle_point_oracle():
    rng = np.random.default_rng(23)
    for _ in range(120):
        problem = _random_problem(rng, int(rng.integers(1, 9)))
        x, _ = solve(problem)
        ref = kkt_solve(problem)
        assert np.max(np.abs(x - ref)) < 1e-9 * (1 + np.max(np.abs(ref)))
        _, _, a_eq, b_eq = dense_form(problem)
        assert np.max(np.abs(a_eq @ x - b_eq)) < 1e-10


def test_bounded_solution_beats_feasible_competitors():
    rng = np.random.default_rng(29)
    for _ in range(40):
        m = int(rng.integers(1, 6))
        problem = _random_problem(rng, m, bounded=True)
        x, _ = solve(problem)
        base = _objective(problem, x)
        assert np.all(x[m:] >= problem.u_min - 1e-12)
        assert np.all(x[m:] <= problem.u_max + 1e-12)
        _, _, a_eq, b_eq = dense_form(problem)
        lower = a_eq[:, :m]
        for _ in range(25):
            u = rng.uniform(problem.u_min, problem.u_max, size=m)
            y = np.linalg.solve(lower, b_eq - a_eq[:, m:] @ u)
            cand = np.concatenate([y, u])
            assert base <= _objective(problem, cand) + 1e-9


def test_initial_guess_only_seeds_the_active_set():
    rng = np.random.default_rng(31)
    problem = _random_problem(rng, 4, bounded=True)
    plain, _ = solve(problem)
    seeded = replace(problem, u_guess=np.full(4, 1e6))
    boxed, _ = solve(seeded)
    assert np.allclose(plain, boxed, atol=1e-9)


def _solve_with_dense_weights(problem):
    # solve's elimination with the weights as dense matrices q I and r I
    m = problem.horizon
    lower = np.eye(m) - problem.f_pred
    hy = problem.q_weight * np.eye(m)
    hu = problem.r_weight * np.eye(m)
    trans = qp._unit_lower_solve(lower, problem.g_pred)
    y_base = qp._unit_lower_solve(lower, problem.b_eq)
    h_red = trans.T @ hy @ trans + hu
    h_red = 0.5 * (h_red + h_red.T)
    f_red = 2.0 * (trans.T @ (hy @ y_base)) + trans.T @ problem.y_lin + np.zeros(m)
    if problem.u_min is None:
        u = qp._cho_solve(qp._factor(h_red), -0.5 * f_red)
    else:
        u = qp._active_set(problem, h_red, f_red)[0]
    return np.concatenate([y_base + trans @ u, u])


def test_scaled_weights_give_the_dense_weight_bits():
    rng = np.random.default_rng(37)
    for case in range(200):
        problem = _random_problem(rng, int(rng.integers(1, 21)), bounded=case % 3 == 0)
        if case % 4 == 0:
            problem = replace(problem, r_weight=0.0)
        if case % 5 == 0:  # signed zeros in the data and exact zero costs
            m = problem.horizon
            problem = replace(problem, b_eq=np.where(rng.random(m) < 0.5, -0.0, 0.0),
                              y_lin=np.full(m, -0.0))
        x, _ = solve(problem)
        assert x.tobytes() == _solve_with_dense_weights(problem).tobytes(), case


# --- degenerate Hessian paths ---------------------------------------------------------

def test_ridge_rescues_singular_reduced_hessian():
    # zero gain and zero effort weight leave no curvature in u at all
    x, diag = solve(_scalar_problem(1.0, 0.0, 0.0, -1.0, 3.0))
    assert diag.ridge_applied
    assert np.all(np.isfinite(x))
    assert x[0] == pytest.approx(-1.0, abs=1e-12)  # output is pinned by the equality


def test_indefinite_hessian_raises_after_ridge():
    with pytest.raises(QpError):
        solve(_scalar_problem(-1.0, 0.0, 1.0, 0.0, 0.0))


def test_infeasible_box_raises():
    with pytest.raises(QpError):
        solve(_scalar_problem(1.0, 0.5, 2.0, 0.0, 1.0, u_min=2.0, u_max=-2.0))


def test_non_finite_data_raises_value_error():
    # NaN or inf in the data, or a reduced Hessian that overflows (gain 1e200),
    # must stop the solve before it reaches LAPACK
    for gain, offset in ((2.0, np.nan), (np.inf, 0.0), (1e200, 0.0)):
        with pytest.raises(ValueError, match="infs or NaNs"), np.errstate(over="ignore"):
            solve(_scalar_problem(1.0, 0.5, gain, offset, 3.0))


# --- validation ------------------------------------------------------------------------

def test_problem_shape_validation():
    z1, one = np.zeros((1, 1)), np.ones((1, 1))
    with pytest.raises(ValueError):  # empty horizon
        QpProblem(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0), 1.0, 1.0, np.zeros(0))
    with pytest.raises(ValueError):  # b_eq not a vector
        QpProblem(z1, one, np.zeros((1, 1)), 1.0, 1.0, np.zeros(1))
    with pytest.raises(ValueError):  # f_pred wrong shape
        QpProblem(np.zeros((1, 2)), one, np.zeros(1), 1.0, 1.0, np.zeros(1))
    with pytest.raises(ValueError):  # g_pred wrong shape
        QpProblem(z1, np.ones((2, 2)), np.zeros(1), 1.0, 1.0, np.zeros(1))
    with pytest.raises(ValueError):  # y_lin wrong length
        QpProblem(z1, one, np.zeros(1), 1.0, 1.0, np.zeros(2))
    with pytest.raises(ValueError):  # u_guess wrong length
        QpProblem(z1, one, np.zeros(1), 1.0, 1.0, np.zeros(1), u_guess=np.zeros(2))
    with pytest.raises(ValueError):  # nonzero diagonal in f_pred
        QpProblem(np.array([[0.5]]), one, np.zeros(1), 1.0, 1.0, np.zeros(1))
    with pytest.raises(ValueError):  # nonzero upper entry in f_pred
        QpProblem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), np.zeros(2),
                  1.0, 1.0, np.zeros(2))
    with pytest.raises(ValueError):  # NaN upper entry in f_pred
        QpProblem(np.array([[0.0, np.nan], [0.0, 0.0]]), np.eye(2), np.zeros(2),
                  1.0, 1.0, np.zeros(2))
    with pytest.raises(ValueError):  # half a bound pair
        QpProblem(z1, one, np.zeros(1), 1.0, 1.0, np.zeros(1), u_min=0.0)
    # a strictly lower triangular f_pred passes
    QpProblem(np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(2), np.zeros(2), 1.0, 1.0, np.zeros(2))
