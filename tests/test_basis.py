"""Dictionary evaluation: frozen values, support, and shape invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmpc.basis import (
    AtanPair,
    Constant,
    CubicHermiteSpline,
    Fourier,
    Polynomial,
    SinPair,
    Zero,
)

SPLINE4 = CubicHermiteSpline(interior_nodes=2, lo=-6.0, hi=6.0)

finite_xs = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


# --- frozen pointwise values (hand-evaluated piecewise cubics) ----------------

def test_spline_midpoint_between_interior_nodes():
    # nodes -6,-2,2,6, spacing 4; x=0 sits at t=1/2 of the middle segment, so
    # both value bumps read 1/2 and the slope bumps read +-4*(1/8)
    got = SPLINE4.eval(0.0)
    assert np.allclose(got, [0.5, 0.5, 0.5, -0.5], atol=1e-15)


def test_spline_first_segment_midpoint():
    # x=-4: only the first node's rising piece is active, t=1/2
    got = SPLINE4.eval(-4.0)
    assert np.allclose(got, [0.5, -0.5, 0.0, 0.0], atol=1e-15)


def test_spline_interpolates_at_interior_nodes():
    assert np.allclose(SPLINE4.eval(-2.0), [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(SPLINE4.eval(2.0), [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_spline_vanishes_outside_support():
    for x in (-6.0, -6.0001, -100.0, 6.0, 6.0001, 100.0):
        assert np.array_equal(SPLINE4.eval(x), np.zeros(4)), x


def test_spline_node_grid_and_spacing():
    assert np.allclose(SPLINE4.nodes, [-6.0, -2.0, 2.0, 6.0])
    assert SPLINE4.spacing == 4.0
    assert SPLINE4.dim == 4


def test_fourier_quarter_and_half_period_values():
    got = Fourier(1, 6.0).eval(3.0)  # angle pi/2
    assert np.allclose(got, [1.0, 0.0, 1.0], atol=1e-15)
    got = Fourier(2, 6.0).eval(6.0)  # angles pi and 2 pi
    assert np.allclose(got, [1.0, -1.0, 0.0, 1.0, 0.0], atol=1e-14)


def test_fourier_layout_interleaves_cos_sin():
    x = 1.7
    got = Fourier(2, 5.0).eval(x)
    w = math.pi * x / 5.0
    expect = [1.0, math.cos(w), math.sin(w), math.cos(2 * w), math.sin(2 * w)]
    assert np.allclose(got, expect, rtol=0.0, atol=1e-15)


def test_polynomial_powers():
    assert np.array_equal(Polynomial(3).eval(2.0), [1.0, 2.0, 4.0, 8.0])
    assert np.array_equal(Polynomial(3).eval(-1.0), [1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(Polynomial(0).eval(123.0), [1.0])


def test_scalar_pairs_and_degenerate_dictionaries():
    assert np.allclose(AtanPair().eval(1.0), [1.0, math.pi / 4], atol=1e-15)
    assert np.array_equal(SinPair().eval(0.0), [1.0, 0.0])
    assert np.array_equal(Constant().eval(-7.3), [1.0])
    assert np.array_equal(Zero().eval(-7.3), [0.0])


def test_output_dims():
    assert Polynomial(1).dim == 2
    assert Fourier(1, 6.0).dim == 3
    assert Fourier(2, 6.0).dim == 5
    assert SPLINE4.dim == 4
    assert AtanPair().dim == SinPair().dim == 2
    assert Constant().dim == Zero().dim == 1


# --- validation ----------------------------------------------------------------

def test_constructor_rejections():
    with pytest.raises(ValueError):
        Polynomial(-1)
    with pytest.raises(ValueError):
        Fourier(0, 6.0)
    with pytest.raises(ValueError):
        Fourier(1, 0.0)
    with pytest.raises(ValueError):
        CubicHermiteSpline(1, -6.0, 6.0)
    with pytest.raises(ValueError):
        CubicHermiteSpline(2, 6.0, -6.0)


@pytest.mark.parametrize("spec", [Polynomial(2), Fourier(1, 6.0), SPLINE4,
                                  AtanPair(), SinPair(), Constant(), Zero()])
def test_nonfinite_arguments_rejected(spec):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            spec.eval(bad)
    with pytest.raises(ValueError):
        spec.eval_grid([0.0, math.nan])


def test_fixed_row_is_the_read_only_row_at_every_argument():
    # rollout and build_sdc form row @ fixed_row once instead of once per point
    rng = np.random.default_rng(21)
    xs = np.concatenate([rng.uniform(-10.0, 10.0, 200), rng.uniform(-1e6, 1e6, 50),
                         [0.0, -0.0, 1e300, -5e-324]])
    for spec in (Constant(), Zero()):
        row = spec.fixed_row
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 2.0
        for x in xs:
            assert row.tobytes() == spec.eval(x).tobytes(), (spec, x)
    for spec in (Polynomial(0), Fourier(1, 6.0), SPLINE4, AtanPair(), SinPair()):
        assert spec.fixed_row is None, spec


# --- properties ------------------------------------------------------------------

@given(finite_xs)
@settings(max_examples=80)
def test_grid_matches_pointwise(x):
    for spec in (Polynomial(2), Fourier(2, 6.0), SPLINE4, AtanPair(),
                 SinPair(), Constant(), Zero()):
        row = spec.eval_grid([x])[0]
        assert np.array_equal(row, spec.eval(x)), spec


def _assert_grid_is_stacked_rows(xs):
    # the vectorised grids (Polynomial, Fourier, SinPair, Constant, Zero)
    # must give the scalar path's bits, or rollout and build_sdc disagree
    for spec in (Polynomial(0), Polynomial(4), Fourier(1, 6.0), Fourier(5, 2.5),
                 SPLINE4, AtanPair(), SinPair(), Constant(), Zero()):
        rows = np.stack([spec.eval(x) for x in xs])
        grid = spec.eval_grid(np.array(xs))
        assert np.array_equal(grid, rows), spec
        assert grid.tobytes() == rows.tobytes(), spec  # signed zeros too


@given(st.lists(st.one_of(finite_xs, st.floats(min_value=-1e6, max_value=1e6)),
                min_size=1, max_size=25))
@settings(max_examples=80)
def test_grid_matches_stacked_pointwise_rows(xs):
    _assert_grid_is_stacked_rows(xs)


def test_grid_matches_stacked_pointwise_rows_on_a_dense_random_grid():
    # last-bit disagreements are rare (np.arctan against math.atan: under 1%
    # of arguments), so hypothesis's small grids alone can miss them
    rng = np.random.default_rng(13)
    _assert_grid_is_stacked_rows(np.concatenate([rng.uniform(-10.0, 10.0, 3000),
                                                 rng.uniform(-1e6, 1e6, 1000)]))


@given(st.floats(min_value=-2.0, max_value=2.0 - 1e-9))
def test_spline_value_bumps_sum_to_one_between_interior_nodes(x):
    # between the first and last carrier node exactly two value bumps overlap
    assert abs(SPLINE4.eval(x)[0::2].sum() - 1.0) < 1e-12


@given(st.floats(min_value=-40.0, max_value=40.0))
def test_fourier_entries_bounded(x):
    vals = Fourier(3, 6.0).eval(x)
    assert np.all(np.abs(vals) <= 1.0 + 1e-15)


def test_node_derivatives_reproduce_slope_coefficients():
    # coefficient pair (value, slope) at a node means exactly that: the
    # combination's central difference at the node recovers the slope entry
    rng = np.random.default_rng(5)
    coef = rng.normal(size=SPLINE4.dim)
    h = 1e-6
    for i, node in enumerate(SPLINE4.nodes[1:-1], start=1):
        fd = (coef @ SPLINE4.eval(node + h) - coef @ SPLINE4.eval(node - h)) / (2 * h)
        assert abs(fd - coef[2 * i - 1]) < 1e-5, node
        assert abs(coef @ SPLINE4.eval(node) - coef[2 * i - 2]) < 1e-14, node


def test_c1_across_each_node():
    rng = np.random.default_rng(9)
    coef = rng.normal(size=SPLINE4.dim)
    h = 1e-6
    for node in SPLINE4.nodes[1:-1]:
        left = (coef @ SPLINE4.eval(node - h) - coef @ SPLINE4.eval(node - 2 * h)) / h
        right = (coef @ SPLINE4.eval(node + 2 * h) - coef @ SPLINE4.eval(node + h)) / h
        assert abs(left - right) < 1e-4, node


def test_grid_evaluation_shape_and_flattening():
    xs = np.array([[-1.0, 0.0], [1.0, 2.0]])
    table = SPLINE4.eval_grid(xs)
    assert table.shape == (4, 4)
    assert np.array_equal(table[1], SPLINE4.eval(0.0))
