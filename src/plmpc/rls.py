"""Recursive least squares with direction-restricted forgetting.

Plain exponential forgetting discounts the whole information matrix, so
directions the data no longer excites decay to zero and the covariance blows
up. Here forgetting acts only along the current regressor direction: the
information matrix keeps full rank on the unexcited subspace. The information
matrix and its inverse are propagated together in closed form, and a norm
gate skips regressors too small to carry information.
"""

from __future__ import annotations

import math

import numpy as np

from ._lapack import potrf, potrs

__all__ = ["DirectionalForgettingRls", "directional_forget"]


def directional_forget(info, cov, phi, forgetting):
    """Discount information along phi only.

    Returns the discounted (info, cov) pair; both inputs must already be a
    symmetric inverse pair and phi must be nonzero. Leaves any direction with
    phi' info psi = 0 untouched, and scales the information Rayleigh quotient
    along phi by exactly `forgetting`.
    """
    info = np.asarray(info, dtype=float)
    cov = np.asarray(cov, dtype=float)
    phi = np.asarray(phi, dtype=float)
    rp = info @ phi
    quad = float(phi @ rp)
    if quad <= 0.0:
        raise ValueError("regressor carries no information (phi' R phi <= 0)")
    lam = float(forgetting)
    info_f = info - ((1.0 - lam) / quad) * np.outer(rp, rp)
    cov_f = cov + ((1.0 - lam) / (lam * quad)) * np.outer(phi, phi)
    return info_f, cov_f


class DirectionalForgettingRls:
    """Recursive estimator for a coefficient row theta with y ~ theta @ phi."""

    def __init__(self, theta0, r0, forgetting: float, filter_threshold: float):
        theta0 = np.asarray(theta0, dtype=float)
        if theta0.ndim != 1 or theta0.size == 0:
            raise ValueError("theta0 must be a nonempty 1-D vector")
        if not np.all(np.isfinite(theta0)):
            raise ValueError("theta0 must be finite")
        if not (0.0 < forgetting <= 1.0):
            raise ValueError(f"forgetting factor must be in (0, 1], got {forgetting}")
        if not (math.isfinite(filter_threshold) and filter_threshold > 0.0):
            raise ValueError(f"filter threshold must be positive, got {filter_threshold}")
        dim = theta0.size
        r0 = np.asarray(r0, dtype=float)
        if r0.ndim == 0:
            if not (math.isfinite(r0) and r0 > 0.0):
                raise ValueError(f"r0 must be positive, got {float(r0)}")
            info = float(r0) * np.eye(dim)
        elif r0.shape == (dim, dim):
            info = r0.copy()
        else:
            raise ValueError(f"r0 must be a scalar or a {dim}x{dim} matrix, got shape {r0.shape}")
        if not np.allclose(info, info.T, rtol=0.0, atol=1e-12):
            raise ValueError("r0 must be symmetric")
        # the checks and LAPACK calls of scipy.linalg.cho_factor(info,
        # lower=True) and cho_solve, with the texts they raise
        if not np.isfinite(info).all():
            raise ValueError("array must not contain infs or NaNs")
        chol, status = potrf(info, lower=1, clean=0)
        if status != 0:
            raise ValueError("r0 must be positive definite")
        self.theta = theta0.copy()
        self.info = 0.5 * (info + info.T)
        self.cov, _ = potrs(chol, np.eye(dim), lower=1)
        self.cov = 0.5 * (self.cov + self.cov.T)
        self.forgetting = float(forgetting)
        self.filter_threshold = float(filter_threshold)

    @property
    def dim(self) -> int:
        return self.theta.size

    def prediction_error(self, y: float, phi) -> float:
        phi = self._check_phi(phi)
        return float(y) - float(self.theta @ phi)

    def step(self, y: float, phi) -> float:
        """Process one observation; returns the pre-update prediction error.

        The error uses the raw regressor; the update uses the gated one, so a
        regressor with squared norm below the threshold leaves all state
        untouched.
        """
        phi = self._check_phi(phi)
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("observation must be finite")
        e_p = y - float(self.theta @ phi)
        if float(phi @ phi) >= self.filter_threshold:
            info_f, cov_f = directional_forget(self.info, self.cov, phi, self.forgetting)
            info_new = info_f + np.outer(phi, phi)
            cp = cov_f @ phi
            cov_new = cov_f - np.outer(cp, cp) / (1.0 + float(phi @ cp))
            self.theta = self.theta + e_p * (cov_new @ phi)
            self.info = 0.5 * (info_new + info_new.T)
            self.cov = 0.5 * (cov_new + cov_new.T)
        return e_p

    def _check_phi(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.dim,):
            raise ValueError(f"regressor has shape {phi.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(phi)):
            raise ValueError("regressor must be finite")
        return phi
