"""Horizon planning: rollouts, frozen-coefficient assembly, fixed-point loop."""

import math

import numpy as np
import pytest

from plmpc import qp
from plmpc.basis import (
    AtanPair,
    Constant,
    CubicHermiteSpline,
    Fourier,
    Polynomial,
    SinPair,
    Zero,
)
from plmpc.mpc import (
    HorizonConfig,
    HorizonState,
    RecedingHorizonController,
    RolloutDivergedError,
    SdcTable,
    anchor_prediction,
    assemble,
    build_sdc,
    rollout,
    subiterate,
)
from plmpc.model import History, ModelStructure
from plmpc.selftest import dense_form, rollout_frozen

LIN = ModelStructure(1, (Constant(),), (Constant(),), None)
ATAN = ModelStructure(1, (Constant(),), (AtanPair(),), None)
FOURIER = ModelStructure(1, (Constant(),), (Fourier(2, 6.0),), None)


def _hist(pad, values):
    h = History(pad)
    for v in values:
        h.append(v)
    return h


def _state(anchor, commands, order=1):
    return HorizonState(anchor=anchor,
                        past_y=np.zeros(order - 1), past_u=np.zeros(order - 1),
                        commands=np.asarray(commands, dtype=float))


# --- prediction grid ---------------------------------------------------------------

def test_anchor_prediction_hand_case():
    # theta [a, b] encodes y+ = -a*y + b*u; data y_2=0.5, u_2=2
    y = _hist(1, [0.0, 0.1, 0.5])
    u = _hist(1, [0.0, 0.0, 2.0])
    got = anchor_prediction(LIN, [0.7, 1.5], y, u, 2)
    assert got == pytest.approx(-0.7 * 0.5 + 1.5 * 2.0, abs=1e-15)


def test_rollout_first_order_hand_case():
    a, b = 0.7, 2.0
    state = _state(0.3, [0.0, 0.0])
    planned = rollout(LIN, [a, b], state, np.array([1.0, -1.0]))
    y2 = -a * 0.3 + b * 1.0
    y3 = -a * y2 + b * -1.0
    assert np.allclose(planned, [y2, y3], atol=1e-15)


def test_rollout_second_order_uses_both_lags():
    s2 = ModelStructure(2, (Constant(), Constant()), (Constant(), Constant()), None)
    theta = np.array([0.3, -0.2, 1.0, 0.5])  # a1, a2, b1, b2
    state = HorizonState(anchor=1.0, past_y=np.array([0.4]),
                         past_u=np.array([-2.0]), commands=np.zeros(2))
    planned = rollout(s2, theta, state, np.array([0.6, 0.0]))
    y2 = -0.3 * 1.0 - (-0.2) * 0.4 + 1.0 * 0.6 + 0.5 * -2.0
    y3 = -0.3 * y2 - (-0.2) * 1.0 + 1.0 * 0.0 + 0.5 * 0.6
    assert np.allclose(planned, [y2, y3], atol=1e-14)


def test_rollout_raises_on_overflow():
    state = _state(1.0, np.zeros(3))
    with pytest.raises(RolloutDivergedError):
        rollout(LIN, [-1e200, 0.0], state, np.zeros(3))


def test_frozen_rollout_matches_live_rollout_for_constant_dictionaries():
    rng = np.random.default_rng(2)
    theta = rng.normal(size=2)
    state = _state(float(rng.normal()), rng.normal(size=5))
    controls = rng.normal(size=5)
    planned = rollout(LIN, theta, state, controls)
    table = build_sdc(LIN, theta, state, planned)
    assert np.allclose(rollout_frozen(table, state, controls), planned, atol=1e-12)


# Dictionaries grouped by dimension: the lags of one side must share it.
_SPECS_BY_DIM = (
    (Constant(), Zero()),
    (AtanPair(), SinPair(), Polynomial(1)),
    (Fourier(1, 6.0), Polynomial(2)),
    (CubicHermiteSpline(2, -6.0, 6.0),),
)


def _rollout_per_point(structure, theta, state, controls):
    # the rollout with every coefficient formed at its own point, as
    # coef @ spec.eval(y), argument-free dictionaries included; None once
    # an output stops being finite
    n = structure.order
    fs, gs, h_row = structure.split(theta)
    ys = state.past_y.tolist() + [state.anchor]
    us = state.past_u.tolist() + controls.tolist()
    for r in range(controls.size):
        acc = 0.0
        for lag in range(1, n + 1):
            yl = ys[r + n - lag]
            acc += -(fs[lag - 1] @ structure.f_specs[lag - 1].eval(yl)) * yl
            acc += (gs[lag - 1] @ structure.g_specs[lag - 1].eval(yl)) * us[r + n - lag]
        if structure.h_spec is not None:
            acc += h_row @ structure.h_spec.eval(ys[r + n - 1])
        if not math.isfinite(acc):
            return None
        ys.append(acc)
    return np.array(ys[n:])


def _sdc_per_grid(structure, theta, state, planned):
    # build_sdc with every coefficient column formed as spec.eval_grid(args) @ coef
    n = structure.order
    horizon = planned.size
    fs, gs, h_row = structure.split(theta)
    grid = np.concatenate([state.past_y, [state.anchor], planned])
    f_coef = np.empty((horizon, n))
    g_coef = np.empty((horizon, n))
    for lag in range(1, n + 1):
        args = grid[n - lag:n - lag + horizon]
        f_coef[:, lag - 1] = -(structure.f_specs[lag - 1].eval_grid(args) @ fs[lag - 1])
        g_coef[:, lag - 1] = structure.g_specs[lag - 1].eval_grid(args) @ gs[lag - 1]
    if structure.h_spec is None:
        return f_coef, g_coef, np.zeros(horizon)
    return f_coef, g_coef, structure.h_spec.eval_grid(grid[n - 1:n - 1 + horizon]) @ h_row


def _random_structure(rng):
    order = int(rng.integers(1, 4))
    f_group, g_group = (_SPECS_BY_DIM[int(rng.integers(len(_SPECS_BY_DIM)))] for _ in "fg")
    h_choices = (None, Constant(), Zero(), SinPair(), Fourier(1, 6.0))
    return ModelStructure(
        order,
        tuple(f_group[int(rng.integers(len(f_group)))] for _ in range(order)),
        tuple(g_group[int(rng.integers(len(g_group)))] for _ in range(order)),
        h_choices[int(rng.integers(len(h_choices)))])


def _random_case(rng, structure, horizon=8):
    theta = rng.normal(size=structure.dim_phi) * 0.3
    # a -0.0 coefficient: a one-element product of it reads +0.0
    theta[rng.random(theta.size) < 0.2] = -0.0
    n = structure.order
    state = HorizonState(anchor=float(rng.normal()), past_y=rng.normal(size=n - 1),
                         past_u=rng.normal(size=n - 1), commands=np.zeros(horizon))
    return theta, state, rng.normal(size=horizon) * 0.5


def test_folded_rollout_and_sdc_match_per_point_coefficients_bitwise():
    rng = np.random.default_rng(31)
    folded = 0
    for _ in range(300):
        structure = _random_structure(rng)
        theta, state, controls = _random_case(rng, structure)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _rollout_per_point(structure, theta, state, controls)
        if want is None:
            with pytest.raises(RolloutDivergedError):
                rollout(structure, theta, state, controls)
            continue
        planned = rollout(structure, theta, state, controls)
        assert planned.tobytes() == want.tobytes(), structure
        table = build_sdc(structure, theta, state, planned)
        for got, ref in zip((table.f_coef, table.g_coef, table.offset),
                            _sdc_per_grid(structure, theta, state, planned)):
            assert got.tobytes() == ref.tobytes(), structure
        specs = (*structure.f_specs, *structure.g_specs, structure.h_spec)
        folded += any(s is not None and s.fixed_row is not None for s in specs)
    assert folded > 150


@pytest.mark.parametrize("structure", [
    LIN,
    ModelStructure(1, (Constant(),), (Constant(),), Zero()),
    ModelStructure(2, (Constant(), Zero()), (Zero(), Constant()), None),
    ModelStructure(3, (Zero(),) * 3, (Constant(),) * 3, Constant()),
    ModelStructure(2, (Constant(), Constant()), (SinPair(), AtanPair()), None),
], ids=["order1", "order1-offset", "order2", "order3-offset", "order2-varying-g"])
def test_non_finite_known_outputs_raise_the_per_point_error(structure):
    rng = np.random.default_rng(41)
    n = structure.order
    for anchor, past in [(math.nan, [0.5] * (n - 1)), (math.inf, [0.5] * (n - 1)),
                         (0.5, [-math.inf] + [0.5] * (n - 2)),
                         (math.nan, [math.inf] * (n - 1))]:
        if len(past) != n - 1:
            continue
        theta = rng.normal(size=structure.dim_phi)
        state = HorizonState(anchor=anchor, past_y=np.array(past, dtype=float),
                             past_u=np.zeros(n - 1), commands=np.zeros(4))
        controls = rng.normal(size=4)
        with pytest.raises(ValueError) as ref:
            _rollout_per_point(structure, theta, state, controls)
        with pytest.raises(ValueError) as got:
            rollout(structure, theta, state, controls)
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith("basis argument must be finite, got ")
        planned = np.zeros(4)
        with pytest.raises(ValueError) as ref:
            _sdc_per_grid(structure, theta, state, planned)
        with pytest.raises(ValueError) as got:
            build_sdc(structure, theta, state, planned)
        assert str(got.value) == str(ref.value)


def test_state_accessors_index_the_grid():
    state = HorizonState(anchor=9.0, past_y=np.array([1.0, 2.0]),
                         past_u=np.array([3.0, 4.0]), commands=np.zeros(1))
    assert state.y_known(1) == 9.0
    assert state.y_known(0) == 2.0
    assert state.y_known(-1) == 1.0
    assert state.u_known(0) == 4.0
    assert state.u_known(-1) == 3.0


# --- coefficient freezing -------------------------------------------------------------

def test_sdc_freezes_coefficients_along_trajectory():
    theta = np.array([-1.1, 0.9, 0.5])  # y+ = 1.1*y + (0.9+0.5*atan(y))*u
    state = _state(0.3, [0.0, 0.0])
    planned = rollout(ATAN, theta, state, np.array([0.2, 0.0]))
    table = build_sdc(ATAN, theta, state, planned)
    assert np.allclose(table.f_coef[:, 0], [1.1, 1.1], atol=1e-15)
    assert table.g_coef[0, 0] == pytest.approx(0.9 + 0.5 * math.atan(0.3), abs=1e-15)
    assert table.g_coef[1, 0] == pytest.approx(0.9 + 0.5 * math.atan(planned[0]),
                                               abs=1e-15)
    assert np.array_equal(table.offset, np.zeros(2))


def test_assemble_two_step_hand_case():
    # frozen recursion y_i = -a*y_{i-1} + b*u_{i-1} with anchor 0.3
    a, b = 0.7, 2.0
    table = SdcTable(f_coef=np.full((2, 1), -a), g_coef=np.full((2, 1), b),
                     offset=np.zeros(2))
    state = _state(0.3, [1.0, -1.0])
    problem = assemble(table, state, HorizonConfig(2, 1, 1.0, 0.5))
    assert np.allclose(problem.f_pred, [[0.0, 0.0], [-a, 0.0]], atol=1e-15)
    assert np.allclose(problem.g_pred, [[b, 0.0], [0.0, b]], atol=1e-15)
    assert np.allclose(problem.b_eq, [-a * 0.3, 0.0], atol=1e-15)
    assert (problem.q_weight, problem.r_weight) == (1.0, 0.5)
    assert np.allclose(problem.y_lin, [-2.0, 2.0])
    cost_quad, cost_lin, a_eq, b_eq = dense_form(problem)
    assert np.allclose(a_eq,
                       [[1.0, 0.0, -b, 0.0],
                        [a, 1.0, 0.0, -b]], atol=1e-15)
    assert np.allclose(b_eq, [-a * 0.3, 0.0], atol=1e-15)
    assert np.allclose(cost_quad, np.diag([1.0, 1.0, 0.5, 0.5]))
    assert np.allclose(cost_lin, [-2.0, 2.0, 0.0, 0.0])


def test_assembled_constraints_agree_with_frozen_recursion():
    rng = np.random.default_rng(3)
    for _ in range(30):
        order = int(rng.integers(1, 4))
        horizon = int(rng.integers(order, 8))
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
        _, _, a_eq, b_eq = dense_form(problem)
        x = np.concatenate([planned, controls])
        assert np.max(np.abs(a_eq @ x - b_eq)) < 1e-12


# --- fixed-point loop ------------------------------------------------------------------

def test_single_step_horizon_recovers_closed_form():
    rng = np.random.default_rng(4)
    cfgs = 0
    while cfgs < 100:
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(0.2, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        yhat = float(rng.uniform(-3, 3))
        r = float(rng.uniform(-3, 3))
        q = float(rng.uniform(0.1, 2.0))
        rw = float(rng.uniform(0.01, 1.0))
        cfg = HorizonConfig(horizon=1, subiterations=4, q_weight=q, r_weight=rw)
        u, diag = subiterate(LIN, np.array([a, b]), _state(yhat, [r]), cfg,
                             np.zeros(1))
        u_star = q * b * (r + a * yhat) / (q * b * b + rw)
        assert abs(u[0] - u_star) < 1e-8, (a, b, yhat, r)
        assert not diag.diverged
        cfgs += 1


def test_constant_dictionary_map_converges_in_two_solves():
    # the relinearization map is constant for a linear model, so the second
    # solve already sits at the fixed point
    cfg = HorizonConfig(horizon=3, subiterations=6, q_weight=1.0, r_weight=0.1)
    state = _state(0.5, [1.0, 0.5, -0.2])
    u, diag = subiterate(LIN, np.array([0.8, 1.2]), state, cfg, np.ones(3))
    assert diag.qp_solves == 2
    assert diag.residual < cfg.fixed_point_tol * (1.0 + np.linalg.norm(u))
    assert len(diag.accepted_residuals) == 2


def test_single_solve_budget_reports_one_qp():
    cfg = HorizonConfig(horizon=3, subiterations=1, q_weight=1.0, r_weight=0.1)
    state = _state(0.5, [1.0, 0.5, -0.2])
    theta = np.array([0.8, 1.2])
    u, diag = subiterate(LIN, theta, state, cfg, np.ones(3))
    assert diag.qp_solves == 1
    # reproduce the one relinearization by hand
    planned = rollout(LIN, theta, state, np.ones(3))
    table = build_sdc(LIN, theta, state, planned)
    problem = assemble(table, state, cfg, u_guess=np.ones(3))
    x, _ = qp.solve(problem)
    assert np.allclose(u, x[3:], atol=1e-14)


def test_accepted_residuals_never_increase():
    cfg = HorizonConfig(horizon=8, subiterations=10, q_weight=1.0, r_weight=4e-3)
    commands = [math.pi * math.sin(0.05 * k) for k in range(3, 11)]
    theta = np.array([-1.05, 0.6, 0.4])
    u, diag = subiterate(ATAN, theta, _state(0.4, commands), cfg, np.zeros(8))
    assert diag.qp_solves <= 10
    res = diag.accepted_residuals
    assert res, "at least the first residual must be recorded"
    assert all(b <= a + 1e-15 for a, b in zip(res, res[1:]))


# The two states below came out of a random search for the retry path; their
# plans are pinned as regression values.

def test_rejected_retry_stagnates_at_the_accepted_iterate():
    # start and one plain step accepted, then the quasi-Newton step and its
    # plain retry from the accepted iterate both grow the residual
    cfg = HorizonConfig(horizon=8, subiterations=10, q_weight=1.0, r_weight=4e-3)
    commands = [-0.06, -0.21, -0.37, -0.53, -0.68, -0.83, -0.98, -1.13]
    theta = np.array([-1.09, 0.27, 0.59])
    u, diag = subiterate(ATAN, theta, _state(-0.61, commands), cfg, np.zeros(8))
    assert (diag.qp_solves, len(diag.accepted_residuals), diag.stagnated) == (4, 2, True)
    assert not diag.diverged
    assert diag.residual == diag.accepted_residuals[-1]
    expected = [-5.084759788082192, 0.6104244608313406, 0.02477992579461957,
                0.954653132790183, 1.6281941849480437, 1.3469949483196784,
                0.7662265337306282, 0.3930213449029642]
    assert np.max(np.abs(u - expected)) < 1e-12


def test_accepted_retry_resumes_the_quasi_newton_loop():
    # the fourth solve's quasi-Newton step is rejected and its plain retry
    # accepted; the loop then runs on until the budget is spent
    cfg = HorizonConfig(horizon=8, subiterations=10, q_weight=1.0, r_weight=4e-2)
    commands = [3.14, 3.13, 3.11, 3.08, 3.04, 3.0, 2.95, 2.89]
    theta = np.array([-1.28, 0.69, 0.39, 0.28, -0.21, -0.38])
    u, diag = subiterate(FOURIER, theta, _state(0.27, commands), cfg, np.zeros(8))
    assert (diag.qp_solves, len(diag.accepted_residuals), diag.stagnated) == (10, 9, False)
    assert not diag.diverged
    res = diag.accepted_residuals
    assert all(b <= a for a, b in zip(res, res[1:]))
    expected = [3.2302204673830417, -0.5677626835098298, -0.7398315840525197,
                -0.750009982950931, -0.7543303785330474, -0.7499039784000392,
                -0.7525735583124965, -0.7297589626575194]
    assert np.max(np.abs(u - expected)) < 1e-12


def test_no_control_authority_yields_zero_plan():
    cfg = HorizonConfig(horizon=2, subiterations=3, q_weight=1.0, r_weight=0.5)
    u, diag = subiterate(LIN, np.array([0.5, 0.0]), _state(1.0, [2.0, 2.0]),
                         cfg, np.array([1.0, 1.0]))
    assert np.allclose(u, 0.0, atol=1e-12)
    assert not diag.diverged


def test_divergent_first_rollout_returns_start_flagged():
    cfg = HorizonConfig(horizon=3, subiterations=5, q_weight=1.0, r_weight=0.1)
    u_init = np.array([0.3, 0.2, 0.1])
    u, diag = subiterate(LIN, np.array([-1e200, 0.0]), _state(1.0, np.zeros(3)),
                         cfg, u_init)
    assert diag.diverged
    assert diag.qp_solves == 0
    assert np.array_equal(u, u_init)


# --- controller wrapper -------------------------------------------------------------------

def test_plan_only_reads_data_through_current_step():
    seen = []

    class Spy(History):
        def at(self, idx):
            seen.append(idx)
            return super().at(idx)

    y = Spy(1)
    u = Spy(1)
    for v in range(9):
        y.append(0.1 * v)
        u.append(0.01 * v)
    controller = RecedingHorizonController(LIN, HorizonConfig(4, 2, 1.0, 0.1))
    controller.plan(np.array([0.5, 1.0]), y, u, 5, lambda k: 0.0)
    assert max(seen) <= 5


def test_reset_restores_cold_start_plan():
    controller = RecedingHorizonController(ATAN, HorizonConfig(5, 6, 1.0, 0.01))
    y = _hist(1, [0.0, 0.3])
    u = _hist(1, [0.0, 0.1])
    theta = np.array([-1.1, 0.9, 0.5])
    first, _ = controller.plan(theta, y, u, 1, lambda k: math.sin(0.3 * k))
    controller.plan(theta, y, u, 1, lambda k: math.sin(0.3 * k))  # warm start drift
    controller.reset()
    again, _ = controller.plan(theta, y, u, 1, lambda k: math.sin(0.3 * k))
    assert again == first


def test_plan_respects_control_bounds():
    cfg = HorizonConfig(horizon=3, subiterations=2, q_weight=1.0, r_weight=1e-4,
                        u_min=-0.1, u_max=0.1)
    controller = RecedingHorizonController(LIN, cfg)
    y = _hist(1, [0.0, 0.0])
    u = _hist(1, [0.0, 0.0])
    u_next, _ = controller.plan(np.array([0.5, 0.1]), y, u, 1, lambda k: 10.0)
    assert u_next == pytest.approx(0.1, abs=1e-12)


def test_horizon_config_validation():
    with pytest.raises(ValueError):
        HorizonConfig(0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        HorizonConfig(1, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        HorizonConfig(1, 1, -1.0, 1.0)
    with pytest.raises(ValueError):
        HorizonConfig(1, 1, 1.0, 1.0, u_min=0.5)
    with pytest.raises(ValueError):
        HorizonConfig(1, 1, 1.0, 1.0, u_min=1.0, u_max=-1.0)
    with pytest.raises(ValueError):
        HorizonConfig(1, 1, 1.0, 1.0, fixed_point_tol=0.0)
