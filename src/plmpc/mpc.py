"""Receding-horizon control by iterated relinearization of the identified model.

Each control step anchors a prediction grid one step ahead of the data,
rolls the identified recursion out over the horizon, freezes its
output-dependent coefficients along that trajectory, and solves the
resulting equality-constrained QP. The QP's control block feeds the next
relinearization, so the plan is a fixed point of that map. `subiterate`
looks for it in one loop: each pass evaluates one candidate (the start, a
quasi-Newton step, or the plain step retried after a rejected quasi-Newton
step) and accepts it only if it is the start or its residual does not grow.
The loop ends converged, with the QP budget spent, stagnated (a plain step
was rejected) or diverged (a rollout left the finite range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qp
from .basis import _require_finite, _require_finite_array
from .model import History, ModelStructure, regressor
from .qp import QpProblem

__all__ = [
    "HorizonConfig",
    "HorizonState",
    "SdcTable",
    "StepDiagnostics",
    "RolloutDivergedError",
    "anchor_prediction",
    "rollout",
    "build_sdc",
    "assemble",
    "subiterate",
    "RecedingHorizonController",
]


class RolloutDivergedError(RuntimeError):
    """Predicted trajectory left the representable range."""


@dataclass(frozen=True)
class HorizonConfig:
    horizon: int                      # planned steps past the anchor
    subiterations: int                # QP-solve budget per control step
    q_weight: float                   # tracking weight on each predicted output
    r_weight: float                   # effort weight on each planned control
    u_min: float | None = None
    u_max: float | None = None
    fixed_point_tol: float = 1e-9

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.subiterations < 1:
            raise ValueError(f"subiterations must be >= 1, got {self.subiterations}")
        if self.q_weight < 0.0 or self.r_weight < 0.0:
            raise ValueError("cost weights must be nonnegative")
        if (self.u_min is None) != (self.u_max is None):
            raise ValueError("bounds must be given as a pair or not at all")
        if self.u_min is not None and self.u_min > self.u_max:
            raise ValueError(f"u_min={self.u_min} exceeds u_max={self.u_max}")
        if self.fixed_point_tol <= 0.0:
            raise ValueError("fixed_point_tol must be positive")


@dataclass(frozen=True)
class HorizonState:
    """Everything the planner knows at one control step.

    Grid convention: index 1 is the anchored one-step prediction, indices
    2..horizon+1 are planned outputs, indices <= 0 are measured data. past_y
    and past_u hold the order-1 most recent measured values, oldest first,
    so past[j] is the grid value at index j - (order - 2) ... 0.
    """

    anchor: float
    past_y: np.ndarray
    past_u: np.ndarray
    commands: np.ndarray

    def y_known(self, i: int) -> float:
        # grid output at index i <= 1 (anchor or measured)
        if i == 1:
            return self.anchor
        return float(self.past_y[i + len(self.past_y) - 1])

    def u_known(self, i: int) -> float:
        # grid control at index i <= 0 (already applied)
        return float(self.past_u[i + len(self.past_u) - 1])


@dataclass(frozen=True)
class SdcTable:
    """Coefficients of the frozen linear recursion along one trajectory.

    Row r describes grid index i = r + 2:
    y_i = sum_lag f_coef[r, lag-1] * y_{i-lag} + g_coef[r, lag-1] * u_{i-lag} + offset[r].
    """

    f_coef: np.ndarray
    g_coef: np.ndarray
    offset: np.ndarray

    @property
    def horizon(self) -> int:
        return self.offset.size

    @property
    def order(self) -> int:
        return self.f_coef.shape[1]


@dataclass
class StepDiagnostics:
    qp_solves: int = 0
    qp_iterations: int = 0
    residual: float = math.inf
    ridge_applied: bool = False
    diverged: bool = False
    stagnated: bool = False
    accepted_residuals: list = field(default_factory=list)


def anchor_prediction(structure: ModelStructure, theta, y_hist: History,
                      u_hist: History, k: int) -> float:
    """One-step prediction of y_{k+1} from data through step k."""
    phi = regressor(structure, y_hist, u_hist, k + 1)
    return float(np.asarray(theta, dtype=float) @ phi)


def _grid_outputs(state: HorizonState, planned: np.ndarray) -> np.ndarray:
    # full output grid over indices 2-order .. horizon+1
    return np.concatenate([state.past_y, [state.anchor], planned])


def _fold(row: np.ndarray, spec):
    """(row @ spec's fixed row, None) for an argument-free dictionary, else
    (row, spec.eval): the coefficient at y is then row @ spec.eval(y)."""
    if spec.fixed_row is None:
        return row, spec.eval
    return float(row @ spec.fixed_row), None


def rollout(structure: ModelStructure, theta, state: HorizonState,
            controls: np.ndarray) -> np.ndarray:
    """Propagate the identified recursion over the horizon under `controls`.

    Returns planned outputs for grid indices 2..horizon+1. Raises
    RolloutDivergedError as soon as a value stops being finite.
    """
    n = structure.order
    fs, gs, h_row = structure.split(theta)
    lags = [(lag, *_fold(fs[lag - 1], structure.f_specs[lag - 1]),
             *_fold(gs[lag - 1], structure.g_specs[lag - 1])) for lag in range(1, n + 1)]
    has_h = structure.h_spec is not None
    if has_h:
        h_row, h_eval = _fold(h_row, structure.h_spec)

    ys = state.past_y.tolist() + [state.anchor]     # grid indices 2-n .. 1, grows to horizon+1
    us = state.past_u.tolist() + controls.tolist()   # grid indices 2-n .. horizon
    # Every dictionary rejects a non-finite argument, folded ones included.
    # Planned outputs are checked as they are made; check the known ones
    # here, lag 1 first, as the first horizon step would reach them.
    for yl in reversed(ys):
        _require_finite(yl)

    # overflow is the expected divergence signal here, not an anomaly: any
    # non-finite product lands in acc and trips the check before it is stored.
    # For two vectors, ndarray.dot and @ call the same BLAS dot product;
    # .dot skips the matmul ufunc's dispatch.
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(controls.size):
            acc = 0.0
            for lag, f_row, f_eval, g_row, g_eval in lags:
                yl = ys[r + n - lag]
                acc += -(f_row if f_eval is None else f_row.dot(f_eval(yl))) * yl
                acc += (g_row if g_eval is None else g_row.dot(g_eval(yl))) * us[r + n - lag]
            if has_h:
                acc += h_row if h_eval is None else h_row.dot(h_eval(ys[r + n - 1]))
            if not math.isfinite(acc):
                raise RolloutDivergedError(
                    f"prediction left finite range at horizon step {r + 1}")
            ys.append(acc)
    return np.array(ys[n:])


def _coef_grid(spec, row: np.ndarray, args: np.ndarray) -> np.ndarray:
    """The coefficient row @ spec.eval(y) at every argument y."""
    if spec.fixed_row is None:
        return spec.eval_grid(args) @ row
    return np.full(args.size, row @ spec.fixed_row)


def build_sdc(structure: ModelStructure, theta, state: HorizonState,
              planned: np.ndarray) -> SdcTable:
    """Freeze the output-dependent coefficients along a planned trajectory."""
    n = structure.order
    horizon = planned.size
    fs, gs, h_row = structure.split(theta)
    grid = _grid_outputs(state, planned)  # index i at position i + n - 2
    # the arguments y_{i-lag} of every row, checked once: an argument-free
    # dictionary is not evaluated on them
    _require_finite_array(grid[:n - 1 + horizon])

    f_coef = np.empty((horizon, n))
    g_coef = np.empty((horizon, n))
    for lag in range(1, n + 1):
        # arguments y_{i-lag} for rows i = 2..horizon+1
        args = grid[n - lag:n - lag + horizon]
        f_coef[:, lag - 1] = -_coef_grid(structure.f_specs[lag - 1], fs[lag - 1], args)
        g_coef[:, lag - 1] = _coef_grid(structure.g_specs[lag - 1], gs[lag - 1], args)
    if structure.h_spec is not None:
        offset = _coef_grid(structure.h_spec, h_row, grid[n - 1:n - 1 + horizon])
    else:
        offset = np.zeros(horizon)
    return SdcTable(f_coef, g_coef, offset)


def assemble(table: SdcTable, state: HorizonState, config: HorizonConfig,
             u_guess: np.ndarray | None = None) -> QpProblem:
    """Stack the frozen recursion into the horizon QP.

    Terms that reference planned outputs/controls land in f_pred and g_pred;
    references to the anchor or to measured data fold into the right-hand
    side together with the frozen offsets.
    """
    n = table.order
    horizon = table.horizon
    f_pred = np.zeros((horizon, horizon))
    g_pred = np.zeros((horizon, horizon))
    for lag in range(1, n + 1):
        # row r (grid index r + 2) reaches y and u at grid index r + 2 - lag;
        # planned outputs start at grid index 2 and planned controls at 1
        rows = np.arange(lag, horizon)
        f_pred[rows, rows - lag] = table.f_coef[lag:, lag - 1]
        rows = np.arange(lag - 1, horizon)
        g_pred[rows, rows - lag + 1] = table.g_coef[lag - 1:, lag - 1]
    rhs = table.offset.copy()
    for r in range(min(n, horizon)):  # only the first `order` rows reach known data
        for lag in range(1, n + 1):
            j = r + 2 - lag
            if j < 2:
                rhs[r] += table.f_coef[r, lag - 1] * state.y_known(j)
            if j < 1:
                rhs[r] += table.g_coef[r, lag - 1] * state.u_known(j)
    return QpProblem(f_pred, g_pred, rhs, config.q_weight, config.r_weight,
                     -2.0 * config.q_weight * state.commands,
                     u_min=config.u_min, u_max=config.u_max, u_guess=u_guess)


def _relinearize_once(structure, theta, state, config, controls):
    """One fixed-point evaluation: rollout, freeze, assemble, solve."""
    planned = rollout(structure, theta, state, controls)
    table = build_sdc(structure, theta, state, planned)
    problem = assemble(table, state, config, u_guess=controls)
    x, qdiag = qp.solve(problem)
    return x[config.horizon:], qdiag


def _norm(x: np.ndarray) -> float:
    # np.linalg.norm's own arithmetic for a real vector, without its dispatch
    return math.sqrt(x.dot(x))


def _secant_update(inv_jac, du, dg):
    """Rank-one secant update of the inverse Jacobian of the residual.

    Returns the new inverse Jacobian and whether it is exactly minus
    identity, which is where it restarts when the update is ill-conditioned.
    """
    jdg = inv_jac @ dg
    denom = float(du @ jdg)
    if abs(denom) > 1e-12 * (1.0 + _norm(du) * _norm(jdg)):
        return inv_jac + np.outer(du - jdg, du @ inv_jac) / denom, False
    return -np.eye(du.size), True


def subiterate(structure: ModelStructure, theta, state: HorizonState,
               config: HorizonConfig, u_init: np.ndarray) -> tuple[np.ndarray, StepDiagnostics]:
    """Drive the relinearization map to a fixed point within the QP budget.

    Each pass evaluates one candidate plan u through the map M and accepts
    it by one rule: the start is always accepted, any later candidate only if
    its residual |M(u) - u| does not exceed the accepted one. The first
    candidate is `u_init`. After an acceptance the next candidate is the
    quasi-Newton step, whose inverse Jacobian starts at minus identity (so
    its first step is the plain iteration u <- M(u)) and takes a secant
    update each time such a step is accepted. A rejected quasi-Newton step is
    retried once as the plain step from the accepted iterate.

    The loop ends converged (accepted residual below fixed_point_tol relative
    to the plan), budget spent (subiterations QP solves), stagnated (a plain
    step was rejected) or diverged (a rollout left the finite range). It
    returns M of the accepted iterate, or `u_init` if the first rollout
    diverged.
    """
    diag = StepDiagnostics()
    u_acc = np.array(u_init, dtype=float, copy=True)
    mapped_acc, g_acc, res_acc = u_acc, None, math.inf
    inv_jac = -np.eye(u_acc.size)
    plain = True     # inv_jac is exactly minus identity
    kind = "start"   # source of the next candidate: start, newton or retry

    while diag.qp_solves < config.subiterations:
        if kind == "start":
            u_cand = u_acc
        elif kind == "retry":
            u_cand = mapped_acc.copy()
        elif not res_acc >= config.fixed_point_tol * (1.0 + _norm(u_acc)):
            break  # converged; a NaN start residual also stops here
        else:
            u_cand = u_acc - inv_jac @ g_acc
        try:
            mapped_cand, qdiag = _relinearize_once(structure, theta, state, config, u_cand)
        except RolloutDivergedError:
            diag.diverged = True
            break
        diag.qp_solves += 1
        diag.qp_iterations += qdiag.iterations
        diag.ridge_applied = diag.ridge_applied or qdiag.ridge_applied
        g_cand = mapped_cand - u_cand
        res_cand = _norm(g_cand)

        if kind == "start" or res_cand <= res_acc:
            if kind == "newton":
                inv_jac, plain = _secant_update(inv_jac, u_cand - u_acc, g_cand - g_acc)
            u_acc, mapped_acc, g_acc, res_acc = u_cand, mapped_cand, g_cand, res_cand
            diag.accepted_residuals.append(res_acc)
            kind = "newton"
        elif plain:
            diag.stagnated = True
            break
        else:
            inv_jac, plain, kind = -np.eye(u_acc.size), True, "retry"

    diag.residual = res_acc
    return mapped_acc.copy(), diag


class RecedingHorizonController:
    """Plans controls on the anchored grid and keeps the warm start between steps."""

    def __init__(self, structure: ModelStructure, config: HorizonConfig):
        self.structure = structure
        self.config = config
        self._last_plan: np.ndarray | None = None

    def reset(self) -> None:
        self._last_plan = None

    def plan(self, theta, y_hist: History, u_hist: History, k: int,
             command) -> tuple[float, StepDiagnostics]:
        """Compute the control to apply over [k+1, k+2) from data through k."""
        structure, config = self.structure, self.config
        n = structure.order
        anchor = anchor_prediction(structure, theta, y_hist, u_hist, k)
        past_y = np.array([y_hist.at(k + j) for j in range(2 - n, 1)], dtype=float)
        past_u = np.array([u_hist.at(k + j) for j in range(2 - n, 1)], dtype=float)
        commands = np.array([command(k + i) for i in range(2, config.horizon + 2)], dtype=float)
        state = HorizonState(anchor, past_y, past_u, commands)

        if self._last_plan is None:
            u_init = np.full(config.horizon, u_hist.at(k))
        else:
            u_init = np.concatenate([self._last_plan[1:], self._last_plan[-1:]])

        plan, diag = subiterate(structure, theta, state, config, u_init)
        self._last_plan = plan
        u_next = float(plan[0])
        if config.u_min is not None:
            u_next = min(max(u_next, config.u_min), config.u_max)
        return u_next, diag
