"""Benchmark plants, closed-loop driver, run logs, and preset experiments.

The simulated plants share the model's recursion shape: each output/input lag
carries a coefficient that may depend on the previous output through a small
catalog of laws (constant, atan-affine, sin-affine). The driver wires plant,
estimator, and planner together with a one-step computation delay: the
control applied over [k+1, k+2) is computed at step k, so it never sees
y_{k+1}.
"""

from __future__ import annotations

import math
import re
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .model import History, ModelStructure, regressor
from .mpc import HorizonConfig, RecedingHorizonController
from .rls import DirectionalForgettingRls

__all__ = [
    "ConstantCoeff",
    "AtanAffineCoeff",
    "SinAffineCoeff",
    "PlantSpec",
    "SinusoidCommand",
    "RlsSettings",
    "OutputSettings",
    "SimConfig",
    "RunLog",
    "WindowMetrics",
    "SimulationAborted",
    "plant_step",
    "draw_warmup_input",
    "run_closed_loop",
    "log10_abs",
    "metrics",
    "preset",
    "preset_names",
    "LOG10_FLOOR",
]

LOG10_FLOOR = -16.0


# --- coefficient laws -------------------------------------------------------

@dataclass(frozen=True)
class ConstantCoeff:
    value: float

    def __call__(self, y: float) -> float:
        return self.value


@dataclass(frozen=True)
class AtanAffineCoeff:
    offset: float
    gain: float

    def __call__(self, y: float) -> float:
        return self.offset + self.gain * math.atan(y)


@dataclass(frozen=True)
class SinAffineCoeff:
    offset: float
    gain: float

    def __call__(self, y: float) -> float:
        return self.offset + self.gain * math.sin(y)


@dataclass(frozen=True)
class PlantSpec:
    """True dynamics: y_k = sum_i -f_coeffs[i](y_{k-i-1}) * y_{k-i-1}
    + g_coeffs[i](y_{k-i-1}) * u_{k-i-1}."""

    order: int
    f_coeffs: tuple
    g_coeffs: tuple

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"plant order must be >= 1, got {self.order}")
        if len(self.f_coeffs) != self.order or len(self.g_coeffs) != self.order:
            raise ValueError(f"need exactly {self.order} coefficient laws per side")


def plant_step(spec: PlantSpec, y_hist: History, u_hist: History, k: int) -> float:
    """Output at step k from data through k-1; raises on missing history."""
    acc = 0.0
    for i in range(1, spec.order + 1):
        yl = y_hist.at(k - i)
        ul = u_hist.at(k - i)
        acc += -spec.f_coeffs[i - 1](yl) * yl + spec.g_coeffs[i - 1](yl) * ul
    return acc


@dataclass(frozen=True)
class SinusoidCommand:
    amplitude: float
    rate: float

    def __call__(self, k: int) -> float:
        return self.amplitude * math.sin(self.rate * k)


# --- configuration ----------------------------------------------------------

# The first forgetting step forms r0**2 terms, and a forgetting factor below
# the smallest normal float lets lambda * phi' R phi underflow to zero.
_R0_MAX = math.sqrt(sys.float_info.max)
_FORGETTING_MIN = sys.float_info.min


@dataclass(frozen=True)
class RlsSettings:
    theta0: tuple
    r0: float
    forgetting: float
    filter_threshold: float = 1e-4

    def __post_init__(self):
        if not self.r0 > 0.0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if self.r0 > _R0_MAX:
            raise ValueError(f"r0 must be at most sqrt(float max) = {_R0_MAX:.4g}, got {self.r0}")
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError(f"forgetting must be in (0, 1], got {self.forgetting}")
        if self.forgetting < _FORGETTING_MIN:
            raise ValueError(f"forgetting must be at least float min = {_FORGETTING_MIN:.4g}, "
                             f"got {self.forgetting}")
        if not self.filter_threshold > 0.0:
            raise ValueError(f"filter_threshold must be positive, got {self.filter_threshold}")


@dataclass(frozen=True)
class OutputSettings:
    snapshot_step: int = 450
    grid_lo: float = -6.0
    grid_hi: float = 6.0
    grid_points: int = 241
    windows: tuple = ((1, 100), (301, 500))

    def __post_init__(self):
        if self.snapshot_step < 1:
            raise ValueError("snapshot_step must be >= 1")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if not self.grid_lo < self.grid_hi:
            raise ValueError("grid_lo must be below grid_hi")
        for start, end in self.windows:
            if not 1 <= start <= end:
                raise ValueError(f"windows entry [{start}, {end}] must have 1 <= start <= end")


@dataclass(frozen=True)
class SimConfig:
    plant: PlantSpec
    structure: ModelStructure
    rls: RlsSettings
    mpc: HorizonConfig
    command: SinusoidCommand
    steps: int = 500
    y0: float = 0.1
    u0: float = 0.0
    warmup_std: float = 0.01
    seed: int = 1
    output: OutputSettings = field(default_factory=OutputSettings)
    name: str = "custom"
    notes: str = ""

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.warmup_std < 0.0:
            raise ValueError(f"warmup_std must be nonnegative, got {self.warmup_std}")
        # the name is the stem of every output file, so it may not leave the directory
        if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", self.name):
            raise ValueError(f"name must be a file stem of letters, digits, '.', '_' "
                             f"and '-' that starts with a letter or digit, got {self.name!r}")
        n_theta = len(self.theta0_array())
        if n_theta != self.structure.dim_phi:
            raise ValueError(
                f"rls.theta0 has {n_theta} entries but the model structure "
                f"needs {self.structure.dim_phi}"
            )

    def theta0_array(self) -> np.ndarray:
        return np.asarray(self.rls.theta0, dtype=float)


# --- run log and metrics ----------------------------------------------------

@dataclass
class RunLog:
    """Per-step record of one closed-loop run (arrays indexed by step-1)."""

    k: np.ndarray
    y: np.ndarray
    u: np.ndarray
    r: np.ndarray
    e_c: np.ndarray
    e_p: np.ndarray
    theta: np.ndarray
    subiters: np.ndarray
    qp_ridge: np.ndarray
    qp_iters: np.ndarray
    fp_residual: np.ndarray
    wall_ms: np.ndarray

    @property
    def steps(self) -> int:
        return self.k.size


class SimulationAborted(RuntimeError):
    """Controller failure mid-run; carries the log of completed steps."""

    def __init__(self, step: int, cause: Exception, partial: RunLog):
        super().__init__(f"controller failed at step {step}: {cause}")
        self.step = step
        self.cause = cause
        self.partial = partial


def log10_abs(values, floor: float = LOG10_FLOOR) -> np.ndarray:
    """Decimal log of |values| with exact zeros mapped to the floor sentinel."""
    values = np.asarray(values, dtype=float)
    out = np.full(values.shape, floor)
    nz = values != 0.0
    out[nz] = np.log10(np.abs(values[nz]))
    return out


@dataclass(frozen=True)
class WindowMetrics:
    window: tuple
    mean_abs_ec: float
    mean_abs_ep: float
    max_abs_u: float


def metrics(log: RunLog, window: tuple) -> WindowMetrics:
    """Tracking/prediction error summary over an inclusive 1-based step window."""
    a, b = int(window[0]), int(window[1])
    if not 1 <= a <= b <= log.steps:
        raise ValueError(f"window {window} outside run of {log.steps} steps")
    sl = slice(a - 1, b)
    return WindowMetrics(
        window=(a, b),
        mean_abs_ec=float(np.mean(np.abs(log.e_c[sl]))),
        mean_abs_ep=float(np.mean(np.abs(log.e_p[sl]))),
        max_abs_u=float(np.max(np.abs(log.u[sl]))),
    )


# --- closed loop ------------------------------------------------------------

def draw_warmup_input(rng: np.random.Generator, std: float) -> float:
    """One zero-mean Gaussian exploration input; std is a standard deviation."""
    return float(rng.normal(0.0, std))


def run_closed_loop(cfg: SimConfig) -> RunLog:
    """Simulate the adaptive loop for cfg.steps steps.

    Timing: at step k the plant produces y_k from data through k-1, the
    estimator absorbs (y_k, phi_k), and the planner computes the control for
    [k+1, k+2). Warmup steps k < model order draw Gaussian inputs instead;
    the very first applied control continues u0. RNG stream: PCG64(seed),
    consumed only by warmup draws, in step order.
    """
    n_model = cfg.structure.order
    pad = max(cfg.plant.order, n_model)
    y_hist, u_hist = History(pad), History(pad)
    y_hist.append(cfg.y0)
    u_hist.append(cfg.u0)

    rng = None  # made at the first warmup draw, so a run that never draws skips numpy.random
    estimator = DirectionalForgettingRls(
        cfg.theta0_array(), cfg.rls.r0, cfg.rls.forgetting, cfg.rls.filter_threshold)
    controller = RecedingHorizonController(cfg.structure, cfg.mpc)

    n = cfg.steps
    dim_phi = cfg.structure.dim_phi
    log = RunLog(
        k=np.arange(1, n + 1),
        y=np.zeros(n), u=np.zeros(n), r=np.zeros(n),
        e_c=np.zeros(n), e_p=np.zeros(n),
        theta=np.zeros((n, dim_phi)),
        subiters=np.zeros(n, dtype=int),
        qp_ridge=np.zeros(n, dtype=bool),
        qp_iters=np.zeros(n, dtype=int),
        fp_residual=np.zeros(n),
        wall_ms=np.zeros(n),
    )

    u_next = cfg.u0  # control for step 1 continues the initial input
    for k in range(1, n + 1):
        t0 = time.perf_counter()
        y_k = plant_step(cfg.plant, y_hist, u_hist, k)
        y_hist.append(y_k)
        u_k = u_next
        u_hist.append(u_k)

        r_k = cfg.command(k)
        phi_k = regressor(cfg.structure, y_hist, u_hist, k)
        if k >= n_model:
            e_p = estimator.step(y_k, phi_k)
        else:
            e_p = estimator.prediction_error(y_k, phi_k)

        log.y[k - 1] = y_k
        log.u[k - 1] = u_k
        log.r[k - 1] = r_k
        log.e_c[k - 1] = r_k - y_k
        log.e_p[k - 1] = e_p
        log.theta[k - 1] = estimator.theta

        if k >= n_model:
            try:
                u_next, diag = controller.plan(
                    estimator.theta, y_hist, u_hist, k, cfg.command)
            except Exception as exc:  # bounded budgets make failures explicit
                log.wall_ms[k - 1] = (time.perf_counter() - t0) * 1e3
                _truncate_log(log, k)
                raise SimulationAborted(k, exc, log) from exc
            log.subiters[k - 1] = diag.qp_solves
            log.qp_ridge[k - 1] = diag.ridge_applied
            log.qp_iters[k - 1] = diag.qp_iterations
            log.fp_residual[k - 1] = diag.residual if math.isfinite(diag.residual) else -1.0
        else:
            if rng is None:
                rng = np.random.default_rng(cfg.seed)
            u_next = draw_warmup_input(rng, cfg.warmup_std)
        log.wall_ms[k - 1] = (time.perf_counter() - t0) * 1e3
    return log


def _truncate_log(log: RunLog, steps: int) -> None:
    for f in fields(log):
        setattr(log, f.name, getattr(log, f.name)[:steps])


# --- presets ----------------------------------------------------------------

def _fixed_gain_structure():
    # Third coefficient rides an identically-zero column: the offset stays
    # inert, which keeps the gain estimate identifiable under quiet feedback.
    from .basis import Constant, Zero
    return ModelStructure(1, (Constant(),), (Constant(),), Zero())


def _varying_gain_structure(g_spec):
    from .basis import Constant
    return ModelStructure(1, (Constant(),), (g_spec,), None)


def _preset_table() -> dict:
    from .basis import AtanPair, CubicHermiteSpline, Fourier, Polynomial, SinPair

    command = SinusoidCommand(amplitude=math.pi, rate=0.05)
    plant_atan_09 = PlantSpec(1, (ConstantCoeff(-1.1),), (AtanAffineCoeff(0.9, 0.5),))
    plant_atan_04 = PlantSpec(1, (ConstantCoeff(-1.1),), (AtanAffineCoeff(0.4, 0.5),))
    plant_sin_04 = PlantSpec(1, (ConstantCoeff(-1.1),), (SinAffineCoeff(0.4, 0.5),))

    shared_note = ("benchmark family shares y0=0.1, u0=0, warmup std 0.01, command "
                   "pi*sin(0.05k); an auxiliary input amplitude 0.1 is declared by the "
                   "benchmark definition but never used")

    def linear(name, plant, r_weight):
        return SimConfig(
            plant=plant, structure=_fixed_gain_structure(),
            rls=RlsSettings(theta0=(1.0, 0.01, 0.01), r0=1e-3, forgetting=0.1),
            mpc=HorizonConfig(horizon=10, subiterations=1, q_weight=1.0, r_weight=r_weight),
            command=command, name=name, notes=shared_note)

    def nonlinear(name, plant, g_spec, theta0, r0, forgetting, r_weight):
        return SimConfig(
            plant=plant, structure=_varying_gain_structure(g_spec),
            rls=RlsSettings(theta0=theta0, r0=r0, forgetting=forgetting),
            mpc=HorizonConfig(horizon=20, subiterations=10, q_weight=1.0, r_weight=r_weight),
            command=command, name=name, notes=shared_note)

    t3 = (1.0, 0.01, 0.01)
    t4 = (1.0, 0.01, 0.01, 0.01)
    t5 = (1.0, 0.01, 0.01, 0.01, 0.01)
    t6 = (1.0, 0.01, 0.01, 0.01, 0.01, 0.01)
    spline = CubicHermiteSpline(interior_nodes=2, lo=-6.0, hi=6.0)

    table = {
        "eg1": linear("eg1", plant_atan_09, r_weight=1e-2),
        "eg3": linear("eg3", plant_atan_04, r_weight=1.0),
        "eg4-BL": nonlinear("eg4-BL", plant_atan_04, AtanPair(), t3, 1e-3, 0.1, 0.0),
        "eg4-PB2": nonlinear("eg4-PB2", plant_atan_04, Polynomial(1), t3, 1e-2, 0.1, 2e-4),
        "eg4-FB3": nonlinear("eg4-FB3", plant_atan_04, Fourier(1, 6.0), t4, 1e-1, 0.3, 4e-3),
        "eg4-CB4": nonlinear("eg4-CB4", plant_atan_04, spline, t5, 1e-3, 0.1, 7e-4),
        "eg5-BL": nonlinear("eg5-BL", plant_sin_04, SinPair(), t3, 1e-3, 0.1, 0.0),
        "eg5-PB2": nonlinear("eg5-PB2", plant_sin_04, Polynomial(1), t3, 1e-2, 0.1, 1.0),
        "eg5-FB3": nonlinear("eg5-FB3", plant_sin_04, Fourier(1, 6.0), t4, 1.0, 0.3, 4e-1),
        "eg5-CB4": nonlinear("eg5-CB4", plant_sin_04, spline, t5, 1e-1, 0.7, 8e-4),
    }
    # the sixth family reuses the fifth's plant; FB upgrades to two harmonics
    table["eg6-BL"] = replace(table["eg5-BL"], name="eg6-BL")
    table["eg6-PB2"] = replace(table["eg5-PB2"], name="eg6-PB2")
    table["eg6-CB4"] = replace(table["eg5-CB4"], name="eg6-CB4")
    table["eg6-FB5"] = nonlinear("eg6-FB5", plant_sin_04, Fourier(2, 6.0), t6, 1.0, 0.3, 4e-1)
    return table


def preset_names() -> list[str]:
    return list(_preset_table().keys())


def preset(name: str) -> SimConfig:
    """Named benchmark configuration; raises KeyError for unknown names."""
    table = _preset_table()
    if name not in table:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(table)}")
    return table[name]
