"""Model structure layout, history access, and regressor construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmpc.basis import AtanPair, Constant, Fourier, Polynomial, Zero
from plmpc.model import (
    History,
    ModelStructure,
    coeff_g_grid,
    regressor,
)

CONST3 = ModelStructure(1, (Constant(),), (Constant(),), Constant())


def _hist(pad, values):
    h = History(pad)
    for v in values:
        h.append(v)
    return h


# --- History -------------------------------------------------------------------

def test_history_pad_reads_zero_prefix():
    h = _hist(2, [1.5])
    assert h.at(-2) == 0.0 and h.at(-1) == 0.0
    assert h.at(0) == 1.5
    assert h.last_index == 0


def test_history_bounds_checked():
    h = _hist(1, [1.0, 2.0])
    with pytest.raises(IndexError):
        h.at(2)
    with pytest.raises(IndexError):
        h.at(-2)
    with pytest.raises(ValueError):
        History(-1)


# --- structure layout ------------------------------------------------------------

def test_dims_and_slices_for_mixed_dictionaries():
    s = ModelStructure(2, (Polynomial(1), Polynomial(1)),
                       (Fourier(1, 6.0), Fourier(1, 6.0)), Constant())
    assert (s.dim_f, s.dim_g, s.dim_h) == (2, 3, 1)
    assert s.dim_phi == 2 * (2 + 3) + 1
    assert s.f_slice(1) == slice(0, 2)
    assert s.f_slice(2) == slice(2, 4)
    assert s.g_slice(1) == slice(4, 7)
    assert s.g_slice(2) == slice(7, 10)
    assert s.h_slice() == slice(10, 11)


def test_structure_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ModelStructure(0, (), ())
    with pytest.raises(ValueError):
        ModelStructure(2, (Constant(),), (Constant(), Constant()))
    with pytest.raises(ValueError):
        ModelStructure(2, (Constant(), Polynomial(1)), (Constant(), Constant()))
    with pytest.raises(ValueError):
        CONST3.f_slice(2)


def test_theta_length_error_names_both_counts():
    with pytest.raises(ValueError) as err:
        CONST3.split(np.zeros(5))
    assert "5" in str(err.value) and "3" in str(err.value)


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=11, max_size=11))
@settings(max_examples=50)
def test_split_join_round_trip(vals):
    s = ModelStructure(2, (Polynomial(1), Polynomial(1)),
                       (Fourier(1, 6.0), Fourier(1, 6.0)), Constant())
    theta = np.array(vals)
    fs, gs, h = s.split(theta)
    assert np.array_equal(s.join(fs, gs, h), theta)


def test_join_without_offset_block():
    s = ModelStructure(1, (Constant(),), (Constant(),))
    assert np.array_equal(s.join([[1.0]], [[2.0]]), [1.0, 2.0])


# --- regressor -------------------------------------------------------------------

def test_regressor_constant_dictionaries_hand_case():
    # y_0 = 2, u_0 = 3: predicting step 1 stacks [-y_0, u_0, 1]
    y = _hist(1, [2.0])
    u = _hist(1, [3.0])
    assert np.array_equal(regressor(CONST3, y, u, 1), [-2.0, 3.0, 1.0])


def test_regressor_zero_offset_column_is_inert():
    s = ModelStructure(1, (Constant(),), (Constant(),), Zero())
    y = _hist(1, [2.0])
    u = _hist(1, [3.0])
    assert np.array_equal(regressor(s, y, u, 1), [-2.0, 3.0, 0.0])


def test_regressor_second_order_blocks_and_arguments():
    # every block is evaluated at the output of its own lag
    s = ModelStructure(2, (Polynomial(1), Polynomial(1)),
                       (Constant(), Constant()), None)
    y = _hist(2, [0.5, -2.0])   # y_0 = 0.5, y_1 = -2
    u = _hist(2, [4.0, 7.0])    # u_0 = 4,  u_1 = 7
    phi = regressor(s, y, u, 2)
    expect = np.array([
        -(-2.0) * 1.0, -(-2.0) * (-2.0),   # lag 1 at y_1
        -0.5 * 1.0, -0.5 * 0.5,            # lag 2 at y_0
        7.0, 4.0,                          # input lags
    ])
    assert np.allclose(phi, expect, atol=1e-15)


def test_regressor_uses_zero_padded_startup():
    y = _hist(1, [0.1])
    u = _hist(1, [0.0])
    phi = regressor(CONST3, y, u, 0)  # lag reaches the pad
    assert np.array_equal(phi, [0.0, 0.0, 1.0])


@given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False),
       st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False),
       st.floats(-3, 3, allow_nan=False))
@settings(max_examples=60)
def test_prediction_linear_consistency(yl, ul, a, b, c):
    # theta @ phi must reproduce the written-out difference equation
    y = _hist(1, [yl])
    u = _hist(1, [ul])
    phi = regressor(CONST3, y, u, 1)
    theta = np.array([a, b, c])
    direct = -a * yl + b * ul + c
    assert abs(float(theta @ phi) - direct) < 1e-12 * (1 + abs(direct))


# --- identified coefficients -------------------------------------------------------

def test_coeff_g_atan_dictionary_frozen_value():
    s = ModelStructure(1, (Constant(),), (AtanPair(),), None)
    theta = np.array([-1.1, 0.9, 0.5])
    # 0.9 + 0.5*atan(1)
    assert coeff_g_grid(s, theta, 1, [1.0])[0] == pytest.approx(1.2926990816987241, abs=1e-15)
    assert theta[s.f_slice(1)] @ s.f_specs[0].eval(123.0) == pytest.approx(-1.1)


def test_coeff_g_grid_matches_pointwise():
    s = ModelStructure(1, (Constant(),), (AtanPair(),), None)
    theta = np.array([-1.1, 0.9, 0.5])
    ys = np.linspace(-6, 6, 31)
    grid = coeff_g_grid(s, theta, 1, ys)
    for yv, gv in zip(ys, grid):
        pointwise = theta[s.g_slice(1)] @ s.g_specs[0].eval(float(yv))
        assert gv == pytest.approx(pointwise, abs=1e-14)
