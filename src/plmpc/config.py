"""Structured config documents: validation, loading, and exact round-trips.

A document is a plain dict (YAML on disk, embedded as-is in run summaries)
with sections plant/model/rls/mpc/command/sim/output. `from_document` builds
a runtime SimConfig with errors naming the offending field; `to_document`
inverts it exactly, so a summary's config echo reproduces the run.
"""

from __future__ import annotations

from dataclasses import replace

import yaml

from . import basis as basis_mod
from .model import ModelStructure
from .mpc import HorizonConfig
from .plant import (
    AtanAffineCoeff,
    ConstantCoeff,
    OutputSettings,
    PlantSpec,
    RlsSettings,
    SimConfig,
    SinAffineCoeff,
    SinusoidCommand,
)

__all__ = ["ConfigError", "SCHEMA", "from_document", "to_document",
           "load_config_file", "dump_config_file"]

SCHEMA = "plmpc-config-1"


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _get(section: dict, path: str, key: str, required=True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"missing field {path}.{key}")
        return default
    return section[key]

def _as_float(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a number, got {value!r}") from None


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _section(doc: dict, name: str) -> dict:
    sec = _get(doc, "config", name)
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name} must be a mapping")
    return sec


# --- plant coefficients ------------------------------------------------------

_COEFF_KINDS = {"constant", "atan_affine", "sin_affine"}


def _coeff_from(entry, path: str):
    if not isinstance(entry, dict):
        raise ConfigError(f"{path} must be a mapping with a 'kind' field")
    kind = _get(entry, path, "kind")
    if kind == "constant":
        return ConstantCoeff(_as_float(_get(entry, path, "value"), f"{path}.value"))
    if kind == "atan_affine":
        return AtanAffineCoeff(_as_float(_get(entry, path, "offset"), f"{path}.offset"),
                               _as_float(_get(entry, path, "gain"), f"{path}.gain"))
    if kind == "sin_affine":
        return SinAffineCoeff(_as_float(_get(entry, path, "offset"), f"{path}.offset"),
                              _as_float(_get(entry, path, "gain"), f"{path}.gain"))
    raise ConfigError(f"{path}.kind must be one of {sorted(_COEFF_KINDS)}, got {kind!r}")


def _coeff_to(coeff) -> dict:
    if isinstance(coeff, ConstantCoeff):
        return {"kind": "constant", "value": coeff.value}
    if isinstance(coeff, AtanAffineCoeff):
        return {"kind": "atan_affine", "offset": coeff.offset, "gain": coeff.gain}
    if isinstance(coeff, SinAffineCoeff):
        return {"kind": "sin_affine", "offset": coeff.offset, "gain": coeff.gain}
    raise ConfigError(f"cannot serialize coefficient law {coeff!r}")


# --- basis dictionaries ------------------------------------------------------

def _basis_from(entry, path: str):
    if not isinstance(entry, dict):
        raise ConfigError(f"{path} must be a mapping with a 'family' field")
    family = _get(entry, path, "family")
    if family == "polynomial":
        return basis_mod.Polynomial(_as_int(_get(entry, path, "degree"), f"{path}.degree"))
    if family == "fourier":
        return basis_mod.Fourier(
            _as_int(_get(entry, path, "harmonics"), f"{path}.harmonics"),
            _as_float(_get(entry, path, "half_period"), f"{path}.half_period"))
    if family == "spline":
        return basis_mod.CubicHermiteSpline(
            _as_int(_get(entry, path, "interior_nodes"), f"{path}.interior_nodes"),
            _as_float(_get(entry, path, "lo"), f"{path}.lo"),
            _as_float(_get(entry, path, "hi"), f"{path}.hi"))
    if family == "atan_pair":
        return basis_mod.AtanPair()
    if family == "sin_pair":
        return basis_mod.SinPair()
    if family == "constant":
        return basis_mod.Constant()
    if family == "zero":
        return basis_mod.Zero()
    raise ConfigError(
        f"{path}.family must be one of polynomial, fourier, spline, atan_pair, "
        f"sin_pair, constant, zero; got {family!r}")


def _basis_to(spec) -> dict:
    if isinstance(spec, basis_mod.Polynomial):
        return {"family": "polynomial", "degree": spec.degree}
    if isinstance(spec, basis_mod.Fourier):
        return {"family": "fourier", "harmonics": spec.harmonics,
                "half_period": spec.half_period}
    if isinstance(spec, basis_mod.CubicHermiteSpline):
        return {"family": "spline", "interior_nodes": spec.interior_nodes,
                "lo": spec.lo, "hi": spec.hi}
    if isinstance(spec, basis_mod.AtanPair):
        return {"family": "atan_pair"}
    if isinstance(spec, basis_mod.SinPair):
        return {"family": "sin_pair"}
    if isinstance(spec, basis_mod.Constant):
        return {"family": "constant"}
    if isinstance(spec, basis_mod.Zero):
        return {"family": "zero"}
    raise ConfigError(f"cannot serialize basis spec {spec!r}")


# --- document <-> SimConfig --------------------------------------------------

def from_document(doc: dict) -> SimConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    schema = doc.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ConfigError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")

    p = _section(doc, "plant")
    order = _as_int(_get(p, "plant", "order"), "plant.order")
    f_entries = _get(p, "plant", "f")
    g_entries = _get(p, "plant", "g")
    if not isinstance(f_entries, list) or not isinstance(g_entries, list):
        raise ConfigError("plant.f and plant.g must be lists of coefficient laws")
    try:
        plant = PlantSpec(
            order,
            tuple(_coeff_from(e, f"plant.f[{i}]") for i, e in enumerate(f_entries)),
            tuple(_coeff_from(e, f"plant.g[{i}]") for i, e in enumerate(g_entries)))
    except ValueError as exc:
        raise ConfigError(f"plant: {exc}") from exc

    m = _section(doc, "model")
    m_order = _as_int(_get(m, "model", "order"), "model.order")
    mf = _get(m, "model", "f")
    mg = _get(m, "model", "g")
    if not isinstance(mf, list) or not isinstance(mg, list):
        raise ConfigError("model.f and model.g must be lists of basis specs")
    mh = m.get("h")
    try:
        structure = ModelStructure(
            m_order,
            tuple(_basis_from(e, f"model.f[{i}]") for i, e in enumerate(mf)),
            tuple(_basis_from(e, f"model.g[{i}]") for i, e in enumerate(mg)),
            None if mh is None else _basis_from(mh, "model.h"))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    r = _section(doc, "rls")
    theta0 = _get(r, "rls", "theta0")
    if not isinstance(theta0, list) or not theta0:
        raise ConfigError("rls.theta0 must be a nonempty list of numbers")
    rls = RlsSettings(
        theta0=tuple(_as_float(v, f"rls.theta0[{i}]") for i, v in enumerate(theta0)),
        r0=_as_float(_get(r, "rls", "r0"), "rls.r0"),
        forgetting=_as_float(_get(r, "rls", "forgetting"), "rls.forgetting"),
        filter_threshold=_as_float(
            _get(r, "rls", "filter_threshold", required=False, default=1e-4),
            "rls.filter_threshold"))

    c = _section(doc, "mpc")
    u_min = c.get("u_min")
    u_max = c.get("u_max")
    try:
        mpc = HorizonConfig(
            horizon=_as_int(_get(c, "mpc", "horizon"), "mpc.horizon"),
            subiterations=_as_int(_get(c, "mpc", "subiterations"), "mpc.subiterations"),
            q_weight=_as_float(_get(c, "mpc", "q"), "mpc.q"),
            r_weight=_as_float(_get(c, "mpc", "r"), "mpc.r"),
            u_min=None if u_min is None else _as_float(u_min, "mpc.u_min"),
            u_max=None if u_max is None else _as_float(u_max, "mpc.u_max"),
            fixed_point_tol=_as_float(
                _get(c, "mpc", "fixed_point_tol", required=False, default=1e-9),
                "mpc.fixed_point_tol"))
    except ValueError as exc:
        raise ConfigError(f"mpc: {exc}") from exc

    cm = _section(doc, "command")
    command = SinusoidCommand(
        amplitude=_as_float(_get(cm, "command", "amplitude"), "command.amplitude"),
        rate=_as_float(_get(cm, "command", "rate"), "command.rate"))

    s = _section(doc, "sim")
    o = doc.get("output", {})
    if not isinstance(o, dict):
        raise ConfigError("section output must be a mapping")
    grid = o.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("output.grid must be a mapping")
    windows = o.get("windows", [[1, 100], [301, 500]])
    if (not isinstance(windows, list) or not windows
            or not all(isinstance(w, list) and len(w) == 2 for w in windows)):
        raise ConfigError("output.windows must be a list of [start, end] pairs")
    try:
        output = OutputSettings(
            snapshot_step=_as_int(o.get("snapshot_step", 450), "output.snapshot_step"),
            grid_lo=_as_float(grid.get("lo", -6.0), "output.grid.lo"),
            grid_hi=_as_float(grid.get("hi", 6.0), "output.grid.hi"),
            grid_points=_as_int(grid.get("points", 241), "output.grid.points"),
            windows=tuple((_as_int(a, "output.windows"), _as_int(b, "output.windows"))
                          for a, b in windows))
    except ValueError as exc:
        raise ConfigError(f"output: {exc}") from exc

    try:
        return SimConfig(
            plant=plant, structure=structure, rls=rls, mpc=mpc, command=command,
            steps=_as_int(_get(s, "sim", "steps"), "sim.steps"),
            y0=_as_float(_get(s, "sim", "y0"), "sim.y0"),
            u0=_as_float(_get(s, "sim", "u0"), "sim.u0"),
            warmup_std=_as_float(_get(s, "sim", "warmup_std"), "sim.warmup_std"),
            seed=_as_int(_get(s, "sim", "seed"), "sim.seed"),
            output=output,
            name=str(doc.get("name", "custom")),
            notes=str(doc.get("notes", "")))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def to_document(cfg: SimConfig) -> dict:
    return {
        "schema": SCHEMA,
        "name": cfg.name,
        "notes": cfg.notes,
        "plant": {
            "order": cfg.plant.order,
            "f": [_coeff_to(c) for c in cfg.plant.f_coeffs],
            "g": [_coeff_to(c) for c in cfg.plant.g_coeffs],
        },
        "model": {
            "order": cfg.structure.order,
            "f": [_basis_to(b) for b in cfg.structure.f_specs],
            "g": [_basis_to(b) for b in cfg.structure.g_specs],
            "h": None if cfg.structure.h_spec is None else _basis_to(cfg.structure.h_spec),
        },
        "rls": {
            "theta0": list(cfg.rls.theta0),
            "r0": cfg.rls.r0,
            "forgetting": cfg.rls.forgetting,
            "filter_threshold": cfg.rls.filter_threshold,
        },
        "mpc": {
            "horizon": cfg.mpc.horizon,
            "subiterations": cfg.mpc.subiterations,
            "q": cfg.mpc.q_weight,
            "r": cfg.mpc.r_weight,
            "u_min": cfg.mpc.u_min,
            "u_max": cfg.mpc.u_max,
            "fixed_point_tol": cfg.mpc.fixed_point_tol,
        },
        "command": {"amplitude": cfg.command.amplitude, "rate": cfg.command.rate},
        "sim": {
            "steps": cfg.steps,
            "y0": cfg.y0,
            "u0": cfg.u0,
            "warmup_std": cfg.warmup_std,
            "seed": cfg.seed,
        },
        "output": {
            "snapshot_step": cfg.output.snapshot_step,
            "grid": {"lo": cfg.output.grid_lo, "hi": cfg.output.grid_hi,
                     "points": cfg.output.grid_points},
            "windows": [list(w) for w in cfg.output.windows],
        },
    }


def load_config_file(path) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return from_document(doc)


def dump_config_file(cfg: SimConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(to_document(cfg), fh, sort_keys=False)


def with_overrides(cfg: SimConfig, seed=None, steps=None, snapshot_step=None) -> SimConfig:
    """CLI-style overrides on a frozen config; out-of-range values raise ConfigError."""
    try:
        if seed is not None:
            cfg = replace(cfg, seed=int(seed))
        if steps is not None:
            cfg = replace(cfg, steps=int(steps))
        if snapshot_step is not None:
            cfg = replace(cfg, output=replace(cfg.output, snapshot_step=int(snapshot_step)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
