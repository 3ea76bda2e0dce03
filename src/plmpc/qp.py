"""Structured dense QP solver for horizon problems.

The decision vector stacks predicted outputs Y (length horizon) over planned
controls U (length horizon). The equality block is always
[I - F_p | -G_p] with F_p strictly lower triangular, so Y can be eliminated
by unit-triangular forward substitution, leaving a dense box-constrained QP
in U alone that a primal active-set loop solves exactly.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg

__all__ = ["QpProblem", "QpDiagnostics", "QpError", "solve"]

RIDGE = 1e-10
FEAS_TOL = 1e-12
OPT_TOL = 1e-10

# The LAPACK routines behind scipy.linalg's solve_triangular, cho_factor and
# cho_solve, called with the arguments those wrappers pass, so the results
# are the same bits without the wrappers' per-call overhead.
_TRTRS, _POTRF, _POTRS = scipy.linalg.get_lapack_funcs(
    ("trtrs", "potrf", "potrs"), dtype=np.float64)


class QpError(RuntimeError):
    """Solver failure: infeasible bounds, singular Hessian, or budget exceeded."""


class QpProblem:
    """min x' cost_quad x + cost_lin' x  s.t.  a_eq x = b_eq, bounds on the U block.

    cost_quad must be block diagonal in the (Y, U) split; bounds, when given,
    apply to every entry of the U block. initial_guess (optional, full x) only
    seeds the active set, it cannot change the optimum.
    """

    def __init__(self, cost_quad, cost_lin, a_eq, b_eq,
                 u_min=None, u_max=None, initial_guess=None):
        self.cost_quad = np.asarray(cost_quad, dtype=float)
        self.cost_lin = np.asarray(cost_lin, dtype=float)
        self.a_eq = np.asarray(a_eq, dtype=float)
        self.b_eq = np.asarray(b_eq, dtype=float)
        self.u_min = None if u_min is None else float(u_min)
        self.u_max = None if u_max is None else float(u_max)
        self.initial_guess = None if initial_guess is None else np.asarray(initial_guess, dtype=float)
        self._validate()

    @property
    def horizon(self) -> int:
        return self.a_eq.shape[0]

    def _validate(self) -> None:
        if self.a_eq.ndim != 2 or self.a_eq.shape[1] != 2 * self.a_eq.shape[0]:
            raise ValueError(f"a_eq must be (m, 2m), got {self.a_eq.shape}")
        m = self.a_eq.shape[0]
        if m < 1:
            raise ValueError("horizon must be >= 1")
        if self.b_eq.shape != (m,):
            raise ValueError(f"b_eq must have shape ({m},), got {self.b_eq.shape}")
        if self.cost_quad.shape != (2 * m, 2 * m):
            raise ValueError(f"cost_quad must be ({2*m}, {2*m}), got {self.cost_quad.shape}")
        if self.cost_lin.shape != (2 * m,):
            raise ValueError(f"cost_lin must have shape ({2*m},), got {self.cost_lin.shape}")
        if self.initial_guess is not None and self.initial_guess.shape != (2 * m,):
            raise ValueError("initial_guess must match the decision vector length")
        if (self.u_min is None) != (self.u_max is None):
            raise ValueError("bounds must be given as a pair or not at all")
        out_block = self.a_eq[:, :m]
        if not (out_block.diagonal() == 1.0).all():
            raise ValueError("output block of a_eq must have unit diagonal")
        if out_block[_strict_upper(m)].any():
            raise ValueError("output block of a_eq must be lower triangular")
        if self.cost_quad[:m, m:].any() or self.cost_quad[m:, :m].any():
            raise ValueError("cost_quad must be block diagonal in the (Y, U) split")


@functools.lru_cache(maxsize=16)
def _strict_upper(m: int) -> tuple[np.ndarray, np.ndarray]:
    # index pair of the strict upper triangle of an m x m matrix, cached
    # because building it costs more than the check it serves
    rows, cols = np.triu_indices(m, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


class QpDiagnostics:
    def __init__(self, iterations: int, ridge_applied: bool, active_bounds: int):
        self.iterations = iterations
        self.ridge_applied = ridge_applied
        self.active_bounds = active_bounds

    def __repr__(self):
        return (f"QpDiagnostics(iterations={self.iterations}, "
                f"ridge_applied={self.ridge_applied}, active_bounds={self.active_bounds})")


def solve(problem: QpProblem) -> tuple[np.ndarray, QpDiagnostics]:
    """Solve the horizon QP; returns (x, diagnostics) with x = [Y; U]."""
    m = problem.horizon
    lower = problem.a_eq[:, :m]
    g_block = -problem.a_eq[:, m:]
    hy = problem.cost_quad[:m, :m]
    hu = problem.cost_quad[m:, m:]

    # eliminate Y = y_base + trans @ U through the unit-triangular equality block
    _check_finite(problem.a_eq, problem.b_eq)  # a_eq holds lower and -g_block
    trans = _unit_lower_solve(lower, g_block)
    y_base = _unit_lower_solve(lower, problem.b_eq)

    h_red = trans.T @ hy @ trans + hu
    h_red = 0.5 * (h_red + h_red.T)
    f_red = 2.0 * (trans.T @ (hy @ y_base)) + trans.T @ problem.cost_lin[:m] + problem.cost_lin[m:]

    ridge_applied = False
    try:
        chol = _factor(h_red)
    except np.linalg.LinAlgError:
        h_red = h_red + RIDGE * np.eye(m)
        ridge_applied = True
        try:
            chol = _factor(h_red)
        except np.linalg.LinAlgError as exc:
            raise QpError("reduced Hessian is not positive definite even with ridge") from exc

    if problem.u_min is None:
        u = _cho_solve(chol, -0.5 * f_red)
        iterations = 1
        active = 0
    else:
        u, iterations, active = _active_set(problem, h_red, f_red)

    y = y_base + trans @ u
    x = np.concatenate([y, u])
    return x, QpDiagnostics(iterations, ridge_applied, active)


def _check_finite(*arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _unit_lower_solve(lower, b):
    """Solve lower @ x = b, lower unit lower triangular (only its strict
    lower triangle is read). `lower` is a row-major view, so LAPACK gets its
    transpose as an upper triangle and solves the transposed system."""
    x, info = _TRTRS(lower.T, b, lower=0, trans=1, unitdiag=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _factor(mat):
    """Lower Cholesky factor of a symmetric matrix; LinAlgError if it is not
    positive definite. The strict upper triangle of the result is not zeroed."""
    _check_finite(mat)
    chol, info = _POTRF(mat, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return chol


def _cho_solve(chol, b):
    _check_finite(b)
    x, info = _POTRS(chol, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrs")
    return x


def _solve_free(h_red, f_red, status, bound_vals):
    """Stationarity on the free components with bound components pinned."""
    m = f_red.size
    u = bound_vals.copy()
    free = np.flatnonzero(status == 0)
    if free.size:
        pinned = np.flatnonzero(status != 0)
        rhs = -0.5 * f_red[free]
        if pinned.size:
            rhs = rhs - h_red[np.ix_(free, pinned)] @ u[pinned]
        u[free] = _cho_solve(_factor(h_red[np.ix_(free, free)]), rhs)
    return u


def _active_set(problem, h_red, f_red):
    """Primal active set over the box on U: clamp the worst violation, release
    the most negative multiplier, smallest index on exact ties."""
    m = problem.horizon
    lo, hi = problem.u_min, problem.u_max
    if lo > hi:
        raise QpError(f"infeasible bounds: u_min={lo} > u_max={hi}")

    status = np.zeros(m, dtype=int)  # 0 free, -1 at lower, +1 at upper
    if problem.initial_guess is not None:
        guess_u = problem.initial_guess[m:]
        status[guess_u <= lo] = -1
        status[guess_u >= hi] = 1

    budget = 2 * m + 1
    for iteration in range(1, budget + 1):
        bound_vals = np.where(status < 0, lo, np.where(status > 0, hi, 0.0))
        u = _solve_free(h_red, f_red, status, bound_vals)

        viol_lo = np.where(status == 0, lo - u, 0.0)
        viol_hi = np.where(status == 0, u - hi, 0.0)
        worst = np.maximum(viol_lo, viol_hi)
        idx = int(np.argmax(worst))
        if worst[idx] > FEAS_TOL:
            status[idx] = -1 if viol_lo[idx] >= viol_hi[idx] else 1
            continue

        grad = 2.0 * (h_red @ u) + f_red
        mult = np.where(status < 0, grad, np.where(status > 0, -grad, np.inf))
        idx = int(np.argmin(mult))
        if mult[idx] < -OPT_TOL:
            status[idx] = 0
            continue

        return np.clip(u, lo, hi), iteration, int(np.count_nonzero(status))

    raise QpError(f"active set failed to settle within {budget} iterations")
