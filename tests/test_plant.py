"""Plant catalog, closed-loop driver mechanics, metrics, and presets."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from plmpc.basis import AtanPair, Constant, CubicHermiteSpline, Fourier, SinPair, Zero
from plmpc.model import History, ModelStructure
from plmpc.plant import (
    LOG10_FLOOR,
    AtanAffineCoeff,
    ConstantCoeff,
    PlantSpec,
    SimulationAborted,
    SinAffineCoeff,
    SinusoidCommand,
    draw_warmup_input,
    log10_abs,
    metrics,
    plant_step,
    preset,
    preset_names,
    run_closed_loop,
)
from plmpc.qp import QpError

ALL_PRESETS = [
    "eg1", "eg3",
    "eg4-BL", "eg4-PB2", "eg4-FB3", "eg4-CB4",
    "eg5-BL", "eg5-PB2", "eg5-FB3", "eg5-CB4",
    "eg6-BL", "eg6-PB2", "eg6-CB4", "eg6-FB5",
]


def _hist(pad, values):
    h = History(pad)
    for v in values:
        h.append(v)
    return h


# --- plant recursion -------------------------------------------------------------

def test_coefficient_laws():
    assert ConstantCoeff(-1.1)(5.0) == -1.1
    assert AtanAffineCoeff(0.9, 0.5)(1.0) == pytest.approx(0.9 + 0.5 * math.pi / 4)
    assert SinAffineCoeff(0.4, 0.5)(math.pi / 2) == pytest.approx(0.9)


def test_plant_step_first_order_hand_case():
    spec = PlantSpec(1, (ConstantCoeff(-1.1),), (AtanAffineCoeff(0.9, 0.5),))
    y = _hist(1, [0.1])
    u = _hist(1, [2.0])
    got = plant_step(spec, y, u, 1)
    assert got == pytest.approx(1.1 * 0.1 + (0.9 + 0.5 * math.atan(0.1)) * 2.0,
                                abs=1e-15)


def test_plant_step_second_order_reads_lagged_outputs():
    spec = PlantSpec(2, (ConstantCoeff(0.5), ConstantCoeff(-0.25)),
                     (ConstantCoeff(1.0), ConstantCoeff(2.0)))
    y = _hist(2, [1.0, 3.0])
    u = _hist(2, [0.5, -1.0])
    got = plant_step(spec, y, u, 2)
    assert got == pytest.approx(-0.5 * 3.0 + 1.0 * -1.0 + 0.25 * 1.0 + 2.0 * 0.5,
                                abs=1e-15)


def test_plant_spec_validation():
    with pytest.raises(ValueError):
        PlantSpec(0, (), ())
    with pytest.raises(ValueError):
        PlantSpec(2, (ConstantCoeff(1.0),), (ConstantCoeff(1.0), ConstantCoeff(1.0)))


def test_command_profile():
    cmd = SinusoidCommand(amplitude=math.pi, rate=0.05)
    assert cmd(0) == 0.0
    assert cmd(10) == pytest.approx(math.pi * math.sin(0.5), abs=1e-15)


# --- exploration input -------------------------------------------------------------

def test_warmup_scale_is_a_standard_deviation():
    rng = np.random.default_rng(123)
    draws = np.array([draw_warmup_input(rng, 0.01) for _ in range(10000)])
    assert abs(draws.mean()) < 5e-4
    assert 0.0095 < draws.std() < 0.0105


def test_zero_warmup_scale_draws_zeros():
    rng = np.random.default_rng(0)
    assert draw_warmup_input(rng, 0.0) == 0.0


@pytest.mark.parametrize("order", [2, 3])
def test_warmup_draws_the_seeded_stream_in_step_order(order):
    # the generator is made at the first draw; warmup steps 1..order-1 choose
    # the inputs of steps 2..order from PCG64(seed), one draw per step
    base = preset("eg1")
    structure = ModelStructure(order, (Constant(),) * order, (Constant(),) * order)
    theta0 = (1.0,) + (0.0,) * (order - 1) + (0.01,) + (0.0,) * (order - 1)
    cfg = replace(base, structure=structure, steps=order + 3, seed=7,
                  rls=replace(base.rls, theta0=theta0))
    log = run_closed_loop(cfg)
    rng = np.random.default_rng(7)
    draws = [float(rng.normal(0.0, cfg.warmup_std)) for _ in range(order - 1)]
    assert log.u[1:order].tolist() == draws
    again = run_closed_loop(cfg)
    for name in ("y", "u", "e_p", "theta"):
        assert getattr(again, name).tobytes() == getattr(log, name).tobytes()


# --- logging helpers ----------------------------------------------------------------

def test_log10_abs_floors_exact_zeros():
    got = log10_abs(np.array([0.0, 1.0, -0.01, 1e-30]))
    assert np.allclose(got, [LOG10_FLOOR, 0.0, -2.0, -30.0])


def test_metrics_window_arithmetic(run_preset):
    log = run_preset("eg1", steps=50)
    m = metrics(log, (11, 20))
    sl = slice(10, 20)
    assert m.mean_abs_ec == pytest.approx(np.mean(np.abs(log.e_c[sl])))
    assert m.mean_abs_ep == pytest.approx(np.mean(np.abs(log.e_p[sl])))
    assert m.max_abs_u == pytest.approx(np.max(np.abs(log.u[sl])))
    with pytest.raises(ValueError):
        metrics(log, (0, 10))
    with pytest.raises(ValueError):
        metrics(log, (40, 60))


# --- closed loop --------------------------------------------------------------------

def test_loop_is_deterministic(run_preset):
    cfg = replace(preset("eg4-BL"), steps=40)
    a = run_closed_loop(cfg)
    b = run_closed_loop(cfg)
    for name in ("y", "u", "r", "e_c", "e_p", "subiters"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_loop_records_plant_and_command_columns(run_preset):
    log = run_preset("eg1", steps=30)
    cfg = preset("eg1")
    # step 1 output comes straight from the initial condition with u0 = 0
    assert log.y[0] == pytest.approx(1.1 * cfg.y0, abs=1e-15)
    assert log.u[0] == cfg.u0
    for k in (1, 7, 30):
        assert log.r[k - 1] == pytest.approx(cfg.command(k), abs=1e-15)
        assert log.e_c[k - 1] == pytest.approx(log.r[k - 1] - log.y[k - 1], abs=1e-12)


# SHA-256 of each preset's 500-step y and u trajectories at seed 1; for
# eg4-FB3, of the partial log its SimulationAborted carries. A change that
# keeps the arithmetic keeps every one of these. A change that moves bits on
# purpose updates them and lists the new values in CHANGES.md.
GOLDEN_PRESET_SHA256 = {
    "eg1": "075d35cf84e93916cf8eb092e479f942972e887700052f4a99d3fa52f5c5e92c",
    "eg3": "e43da397f3f9e07f77d9db54b84f50bc5042a61b37dc97ea69a062b6d8505da2",
    "eg4-BL": "0e27ff8f72d91358f225111006188b2122b3d9b90b089e422818c1e496799bc9",
    "eg4-PB2": "aa598e5f52985b849b77d14a3fef3d7252aa565b3ddb8096a85a35e8d51048a1",
    "eg4-FB3": "e9ad7bdabad3d76afe4f4e6d3568f8e511b6cf764a597fca8fbde2d98cc711de",
    "eg4-CB4": "9b0014a1e21d8a1e1e99ceae190f356949063bee9c4ff517176d741b54baada5",
    "eg5-BL": "82a84becbd53e35bc6fd61af09ffdb18b6d41634cca0791becfff28d5cdcb458",
    "eg5-PB2": "5b133981114a2b6ee677bfa3b79113027b2473f293000e0cd424543d1a8bb156",
    "eg5-FB3": "73b7e42836ac789aa800ac976a9942dbaf7bc447ffb95e8d6266bba9a9952a45",
    "eg5-CB4": "6214a7c76290e1014bd7d44ec7cba3788dea5c8755c566b34fc50c905487bead",
    "eg6-BL": "82a84becbd53e35bc6fd61af09ffdb18b6d41634cca0791becfff28d5cdcb458",
    "eg6-PB2": "5b133981114a2b6ee677bfa3b79113027b2473f293000e0cd424543d1a8bb156",
    "eg6-CB4": "6214a7c76290e1014bd7d44ec7cba3788dea5c8755c566b34fc50c905487bead",
    "eg6-FB5": "39d418953631bb96c8353cd9918c8bca0577d172ebe1e59b833538a646628b81",
}


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_trajectory_is_pinned(name, run_preset):
    try:
        log = run_preset(name)
    except SimulationAborted as exc:
        log = exc.partial
    digest = hashlib.sha256(log.y.tobytes() + log.u.tobytes()).hexdigest()
    assert digest == GOLDEN_PRESET_SHA256[name]


def test_true_coefficients_give_zero_prediction_error():
    # when the dictionary spans the plant law and theta starts at the truth,
    # the one-step predictions are exact and the estimator has nothing to move
    cfg = preset("eg4-BL")
    cfg = replace(cfg, steps=60, rls=replace(cfg.rls, theta0=(-1.1, 0.4, 0.5)))
    log = run_closed_loop(cfg)
    assert np.max(np.abs(log.e_p)) < 1e-10
    assert np.allclose(log.theta[-1], [-1.1, 0.4, 0.5], atol=1e-9)


def test_controller_failure_truncates_and_reports():
    cfg = preset("eg4-FB3")
    with pytest.raises(SimulationAborted) as err:
        run_closed_loop(cfg)
    exc = err.value
    assert isinstance(exc.cause, QpError)
    assert 1 <= exc.step <= cfg.steps
    assert exc.partial.steps == exc.step
    for name in ("y", "u", "e_c", "e_p", "subiters", "wall_ms"):
        assert getattr(exc.partial, name).shape[0] == exc.step
    assert str(exc.step) in str(exc)


def test_sim_config_validation():
    cfg = preset("eg1")
    with pytest.raises(ValueError):
        replace(cfg, steps=0)
    with pytest.raises(ValueError):
        replace(cfg, warmup_std=-0.1)
    with pytest.raises(ValueError) as err:
        replace(cfg, rls=replace(cfg.rls, theta0=(1.0, 0.01)))
    assert "2" in str(err.value) and "3" in str(err.value)


# --- presets ---------------------------------------------------------------------------

def test_preset_catalog_is_complete():
    assert preset_names() == ALL_PRESETS


def test_unknown_preset_names_alternatives():
    with pytest.raises(KeyError) as err:
        preset("eg2")
    assert "eg2" in str(err.value) and "eg1" in str(err.value)


def test_shared_benchmark_settings():
    for name in ALL_PRESETS:
        cfg = preset(name)
        assert cfg.steps == 500
        assert cfg.y0 == 0.1 and cfg.u0 == 0.0
        assert cfg.warmup_std == 0.01
        assert cfg.command.amplitude == pytest.approx(math.pi)
        assert cfg.command.rate == 0.05
        assert cfg.structure.order == 1
        assert len(cfg.rls.theta0) == cfg.structure.dim_phi
        assert cfg.rls.theta0[0] == 1.0
        assert all(v == 0.01 for v in cfg.rls.theta0[1:])


def test_linear_presets_use_inert_offset_and_single_solve():
    for name in ("eg1", "eg3"):
        cfg = preset(name)
        assert isinstance(cfg.structure.h_spec, Zero)
        assert cfg.structure.dim_phi == 3
        assert cfg.mpc.horizon == 10
        assert cfg.mpc.subiterations == 1
        assert cfg.rls.r0 == 1e-3
        assert cfg.rls.forgetting == 0.1
    assert preset("eg1").mpc.r_weight == 1e-2
    assert preset("eg3").mpc.r_weight == 1.0


def test_adaptive_presets_share_horizon_and_budget():
    for name in ALL_PRESETS[2:]:
        cfg = preset(name)
        assert cfg.mpc.horizon == 20
        assert cfg.mpc.subiterations == 10
        assert cfg.structure.h_spec is None
        assert isinstance(cfg.structure.f_specs[0], Constant)


def test_spline_preset_hyperparameters():
    cfg = preset("eg4-CB4")
    g = cfg.structure.g_specs[0]
    assert isinstance(g, CubicHermiteSpline)
    assert (g.interior_nodes, g.lo, g.hi) == (2, -6.0, 6.0)
    assert cfg.structure.dim_phi == 5
    assert cfg.rls.r0 == 1e-3
    assert cfg.rls.forgetting == 0.1
    assert cfg.mpc.r_weight == 7e-4


def test_trig_dictionary_presets():
    fb3 = preset("eg5-FB3")
    assert isinstance(fb3.structure.g_specs[0], Fourier)
    assert fb3.structure.g_specs[0].harmonics == 1
    assert fb3.structure.g_specs[0].half_period == 6.0
    assert fb3.rls.r0 == 1.0 and fb3.rls.forgetting == 0.3
    assert fb3.mpc.r_weight == 0.4

    fb5 = preset("eg6-FB5")
    assert fb5.structure.g_specs[0].harmonics == 2
    assert fb5.structure.dim_phi == 6
    assert fb5.rls.r0 == 1.0 and fb5.rls.forgetting == 0.3
    assert fb5.mpc.r_weight == 0.4


def test_matched_dictionary_presets():
    assert isinstance(preset("eg4-BL").structure.g_specs[0], AtanPair)
    assert isinstance(preset("eg5-BL").structure.g_specs[0], SinPair)
    assert preset("eg4-BL").mpc.r_weight == 0.0
    assert preset("eg5-BL").mpc.r_weight == 0.0


def test_later_family_reuses_sine_plant():
    for suffix in ("BL", "PB2", "CB4"):
        a = preset(f"eg5-{suffix}")
        b = preset(f"eg6-{suffix}")
        assert a.plant == b.plant
        assert a.rls == b.rls
        assert a.mpc == b.mpc
    assert isinstance(preset("eg6-FB5").plant.g_coeffs[0], SinAffineCoeff)
