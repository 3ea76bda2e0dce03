"""Estimator updates: hand-checked steps, inverse pairing, forgetting geometry."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from plmpc.rls import DirectionalForgettingRls, directional_forget
from plmpc.selftest import batch_least_squares


def _random_pd(rng, dim):
    root = rng.normal(size=(dim, dim))
    return root @ root.T / dim + 0.5 * np.eye(dim)


# --- one fully hand-computed scalar step -----------------------------------------

def test_scalar_step_matches_hand_arithmetic():
    # theta=0.3, R=0.1, lambda=0.3, phi=0.1, y=0.04:
    #   e_p   = 0.04 - 0.03      = 0.01
    #   R_f   = 0.1 - 0.7*0.1^2*0.1/0.001 = 0.03      (forgotten information)
    #   R+    = 0.03 + 0.01      = 0.04
    #   P+    = 1/R+             = 25
    #   theta = 0.3 + 0.01*25*0.1 = 0.325
    est = DirectionalForgettingRls([0.3], 0.1, 0.3, 1e-8)
    e_p = est.step(0.04, [0.1])
    assert e_p == pytest.approx(0.01, abs=1e-15)
    assert est.info[0, 0] == pytest.approx(0.04, abs=1e-13)
    assert est.cov[0, 0] == pytest.approx(25.0, abs=1e-10)
    assert est.theta[0] == pytest.approx(0.325, abs=1e-12)


def test_small_regressor_skips_update_but_reports_error():
    est = DirectionalForgettingRls([2.0, -1.0], 0.5, 0.4, 1e-4)
    theta, info, cov = est.theta.copy(), est.info.copy(), est.cov.copy()
    e_p = est.step(3.0, [0.005, 0.005])  # squared norm 5e-5 under the gate
    assert e_p == pytest.approx(3.0 - (2.0 * 0.005 - 1.0 * 0.005))
    assert np.array_equal(est.theta, theta)
    assert np.array_equal(est.info, info)
    assert np.array_equal(est.cov, cov)


def test_prediction_error_does_not_touch_state():
    est = DirectionalForgettingRls([1.0, 1.0], 1.0, 0.5, 1e-8)
    before = est.theta.copy()
    assert est.prediction_error(2.0, [1.0, 0.0]) == pytest.approx(1.0)
    assert np.array_equal(est.theta, before)


# --- forgetting geometry -----------------------------------------------------------

def test_forgetting_scales_information_along_regressor():
    rng = np.random.default_rng(0)
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        info = _random_pd(rng, dim)
        cov = np.linalg.inv(info)
        phi = rng.normal(size=dim)
        lam = float(rng.uniform(0.05, 1.0))
        info_f, cov_f = directional_forget(info, cov, phi, lam)
        assert abs(phi @ info_f @ phi - lam * (phi @ info @ phi)) < 1e-10
        # the discounted pair stays mutually inverse
        assert np.max(np.abs(info_f @ cov_f - np.eye(dim))) < 1e-8


def test_forgetting_leaves_conjugate_directions_alone():
    # diagonal information, regressor on the first axis: the second axis keeps
    # its Rayleigh quotient exactly
    info = np.diag([4.0, 9.0])
    cov = np.diag([0.25, 1.0 / 9.0])
    info_f, cov_f = directional_forget(info, cov, np.array([1.0, 0.0]), 0.2)
    assert info_f[1, 1] == pytest.approx(9.0, abs=1e-14)
    assert info_f[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert info_f[0, 0] == pytest.approx(0.8, abs=1e-14)
    assert cov_f[0, 0] == pytest.approx(1.25, abs=1e-14)


def test_unit_forgetting_is_identity():
    rng = np.random.default_rng(1)
    info = _random_pd(rng, 3)
    cov = np.linalg.inv(info)
    info_f, cov_f = directional_forget(info, cov, rng.normal(size=3), 1.0)
    assert np.allclose(info_f, info, atol=1e-14)
    assert np.allclose(cov_f, cov, atol=1e-14)


def test_forgetting_rejects_empty_direction():
    with pytest.raises(ValueError):
        directional_forget(np.eye(2), np.eye(2), np.zeros(2), 0.5)


# --- estimator invariants ------------------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_inverse_pair_and_symmetry_hold_along_any_run(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6))
    lam = float(rng.uniform(0.1, 1.0))
    est = DirectionalForgettingRls(rng.normal(size=dim), float(rng.uniform(0.1, 2.0)),
                                   lam, 1e-6)
    for _ in range(40):
        est.step(rng.normal(), rng.normal(size=dim))
        assert np.max(np.abs(est.cov @ est.info - np.eye(dim))) < 1e-8
        assert np.array_equal(est.info, est.info.T)
        assert np.array_equal(est.cov, est.cov.T)


def test_unit_forgetting_matches_batch_oracle():
    rng = np.random.default_rng(17)
    dim = 3
    theta0 = rng.normal(size=dim)
    r0 = 0.4
    est = DirectionalForgettingRls(theta0, r0, 1.0, 1e-10)
    ys, phis = [], []
    for _ in range(25):
        phi = rng.normal(size=dim)
        y = float(rng.normal())
        est.step(y, phi)
        ys.append(y)
        phis.append(phi)
    oracle = batch_least_squares(theta0, r0 * np.eye(dim), ys, phis)
    assert np.max(np.abs(est.theta - oracle)) < 1e-8 * (1 + np.max(np.abs(oracle)))


def test_matrix_initial_information_accepted():
    r0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    est = DirectionalForgettingRls([0.0, 0.0], r0, 0.9, 1e-8)
    assert np.allclose(est.info, r0)
    assert np.allclose(est.cov, np.linalg.inv(r0), atol=1e-12)


# --- validation ----------------------------------------------------------------------

def test_constructor_rejections():
    with pytest.raises(ValueError):
        DirectionalForgettingRls([], 1.0, 0.5, 1e-4)
    with pytest.raises(ValueError):
        DirectionalForgettingRls(np.zeros((2, 2)), 1.0, 0.5, 1e-4)
    with pytest.raises(ValueError):
        DirectionalForgettingRls([np.nan], 1.0, 0.5, 1e-4)
    with pytest.raises(ValueError):
        DirectionalForgettingRls([0.0], 1.0, 0.0, 1e-4)
    with pytest.raises(ValueError):
        DirectionalForgettingRls([0.0], 1.0, 1.5, 1e-4)
    with pytest.raises(ValueError):
        DirectionalForgettingRls([0.0], 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        DirectionalForgettingRls([0.0], -1.0, 0.5, 1e-4)
    with pytest.raises(ValueError):
        DirectionalForgettingRls([0.0, 0.0], np.array([[1.0, 2.0], [0.0, 1.0]]),
                                 0.5, 1e-4)
    with pytest.raises(ValueError):
        DirectionalForgettingRls([0.0, 0.0], np.eye(3), 0.5, 1e-4)


def test_initial_covariance_matches_scipy_cholesky_bitwise():
    # the constructor calls LAPACK potrf/potrs directly; the result must be
    # the bits scipy.linalg.cho_factor(lower=True) and cho_solve produce
    rng = np.random.default_rng(23)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        r0 = _random_pd(rng, dim) * 10.0 ** rng.uniform(-4, 4)
        r0 = 0.5 * (r0 + r0.T)
        if rng.uniform() < 0.5:  # asymmetric within the 1e-12 tolerance
            r0[0, -1] += 1e-13
        est = DirectionalForgettingRls(np.zeros(dim), r0, 0.5, 1e-4)
        cov = scipy.linalg.cho_solve(scipy.linalg.cho_factor(r0, lower=True), np.eye(dim))
        assert est.cov.tobytes() == (0.5 * (cov + cov.T)).tobytes()


def test_matrix_r0_errors_keep_their_texts():
    with pytest.raises(ValueError, match="r0 must be positive definite"):
        DirectionalForgettingRls([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]), 0.5, 1e-4)
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        DirectionalForgettingRls([0.0, 0.0], np.diag([1.0, np.inf]), 0.5, 1e-4)
    with pytest.raises(ValueError, match="r0 must be symmetric"):
        DirectionalForgettingRls([0.0, 0.0], np.array([[1.0, 0.5], [0.0, 1.0]]), 0.5, 1e-4)


def test_scalar_r0_must_be_finite_and_positive():
    # checked before the matrix is built, so the message names the real fault
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="r0 must be positive"):
            DirectionalForgettingRls([0.0, 0.0], bad, 0.5, 1e-4)


def test_step_input_validation():
    est = DirectionalForgettingRls([0.0, 0.0], 1.0, 0.5, 1e-4)
    with pytest.raises(ValueError):
        est.step(np.nan, [1.0, 0.0])
    with pytest.raises(ValueError):
        est.step(1.0, [np.inf, 0.0])
    with pytest.raises(ValueError):
        est.step(1.0, [1.0, 0.0, 0.0])
