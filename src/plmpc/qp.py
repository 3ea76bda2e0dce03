"""Structured QP solver for horizon problems.

The decision vector stacks predicted outputs Y (length horizon) over planned
controls U (length horizon). The problem is

    min  q |Y|^2 + r |U|^2 + y_lin' Y   s.t.  Y = F_p Y + G_p U + b,  bounds on U,

with F_p strictly lower triangular, so Y is eliminated by unit-triangular
forward substitution, leaving a dense box-constrained QP in U alone that a
primal active-set loop solves exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _lapack

__all__ = ["QpProblem", "QpDiagnostics", "QpError", "solve"]

RIDGE = 1e-10
FEAS_TOL = 1e-12
OPT_TOL = 1e-10

# The LAPACK routines behind scipy.linalg's solve_triangular, cho_factor and
# cho_solve, called with the arguments those wrappers pass, so the results
# are the same bits without the wrappers' per-call overhead.
_TRTRS, _POTRF, _POTRS = _lapack.trtrs, _lapack.potrf, _lapack.potrs


@lru_cache(maxsize=8)
def _identity(m: int) -> np.ndarray:
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=8)
def _upper_mask(m: int) -> np.ndarray:
    """Read-only mask of the diagonal and upper triangle of an m x m matrix."""
    mask = np.triu(np.ones((m, m), dtype=bool))
    mask.flags.writeable = False
    return mask


class QpError(RuntimeError):
    """Solver failure: infeasible bounds, singular Hessian, or budget exceeded."""


@dataclass(frozen=True, eq=False)
class QpProblem:
    """min q_weight |Y|^2 + r_weight |U|^2 + y_lin' Y  s.t.  Y = f_pred Y + g_pred U + b_eq.

    f_pred (m x m) must be strictly lower triangular; bounds, when given,
    apply to every entry of U. u_guess (optional, length m) only seeds the
    active set, it cannot change the optimum.
    """

    f_pred: np.ndarray
    g_pred: np.ndarray
    b_eq: np.ndarray
    q_weight: float
    r_weight: float
    y_lin: np.ndarray
    u_min: float | None = None
    u_max: float | None = None
    u_guess: np.ndarray | None = None

    def __post_init__(self):
        b_shape = np.shape(self.b_eq)
        if len(b_shape) != 1 or b_shape[0] < 1:
            raise ValueError(f"b_eq must be a nonempty vector, got shape {b_shape}")
        m = b_shape[0]
        wanted = {"f_pred": (m, m), "g_pred": (m, m), "y_lin": (m,)}
        if self.u_guess is not None:
            wanted["u_guess"] = (m,)
        for name, want in wanted.items():
            shape = np.shape(getattr(self, name))
            if shape != want:
                raise ValueError(f"{name} must have shape {want}, got {shape}")
        if (self.u_min is None) != (self.u_max is None):
            raise ValueError("bounds must be given as a pair or not at all")
        if np.asarray(self.f_pred)[_upper_mask(m)].any():
            raise ValueError("f_pred must be strictly lower triangular")

    @property
    def horizon(self) -> int:
        return len(self.b_eq)


@dataclass(frozen=True)
class QpDiagnostics:
    iterations: int
    ridge_applied: bool
    active_bounds: int


def solve(problem: QpProblem) -> tuple[np.ndarray, QpDiagnostics]:
    """Solve the horizon QP; returns (x, diagnostics) with x = [Y; U]."""
    m = problem.horizon
    eye = _identity(m)
    q = problem.q_weight
    lower = eye - problem.f_pred

    # eliminate Y = y_base + trans @ U through the unit-triangular equality block
    _check_finite(problem.f_pred, problem.g_pred, problem.b_eq)
    trans = _unit_lower_solve(lower, problem.g_pred)
    y_base = _unit_lower_solve(lower, problem.b_eq)

    # The output weight is q I. Scaling by q gives the products with q I up
    # to the sign of zeros, and adding the +0.0 entries of r I (r >= 0) and
    # of the zero U block of the linear cost maps every -0.0 to +0.0, which
    # could otherwise change the sign of a zero in the solution.
    h_red = (q * trans.T) @ trans + problem.r_weight * eye
    h_red = 0.5 * (h_red + h_red.T)
    f_red = 2.0 * (trans.T @ (q * y_base)) + trans.T @ problem.y_lin + np.zeros(m)

    ridge_applied = False
    try:
        chol = _factor(h_red)
    except np.linalg.LinAlgError:
        h_red = h_red + RIDGE * eye
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
    lower triangle is read). `lower` is row-major, so LAPACK gets its
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
    if problem.u_guess is not None:
        status[problem.u_guess <= lo] = -1
        status[problem.u_guess >= hi] = 1

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
