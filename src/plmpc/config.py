"""Structured config documents: validation, loading, and exact round-trips.

A document is a plain dict (YAML on disk, embedded as-is in run summaries)
with sections plant/model/rls/mpc/command/sim/output. `from_document` builds
a runtime SimConfig with errors naming the offending field; `to_document`
inverts it exactly, so a summary's config echo reproduces the run.

Each section is declared once, as rows of (document key, attribute, kind);
parsing, dumping and the missing- and unknown-field errors come from them.
An absent optional key is left out of the constructor call, so defaults and
range checks live only in the runtime dataclasses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable

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


def _as_float(value, path: str) -> float:
    # float() would also take True and "0.1"; a config number must be a number
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _as_pair(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be a [start, end] pair, got {value!r}")
    return (_as_int(value[0], f"{path}[0]"), _as_int(value[1], f"{path}[1]"))


# --- kinds: how one document value parses and dumps ---------------------------

@dataclass(frozen=True)
class _Kind:
    parse: Callable        # (document value, path) -> runtime value
    dump: Callable = lambda value: value
    optional: bool = False  # an absent key falls back to the dataclass default
    rows: tuple = ()        # a section's rows


_INT = _Kind(_as_int)
_FLOAT = _Kind(_as_float)
_STR = _Kind(_as_str)
_PAIR = _Kind(_as_pair, list)


def _opt(kind: _Kind) -> _Kind:
    return replace(kind, optional=True)


def _or_none(kind: _Kind) -> _Kind:
    """Optional, and an explicit null stands for the dataclass default None."""
    return _Kind(lambda value, path: None if value is None else kind.parse(value, path),
                 lambda value: None if value is None else kind.dump(value), optional=True)


def _list(item: _Kind, what: str) -> _Kind:
    def parse(value, path):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a nonempty list of {what}")
        return tuple(item.parse(v, f"{path}[{i}]") for i, v in enumerate(value))
    return _Kind(parse, lambda values: [item.dump(v) for v in values])


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _parse_mapping(cls, rows, value, path: str):
    """Build cls from a mapping's rows; with cls None, return the keyword
    arguments, which the enclosing section takes as its own."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a mapping, got {value!r}")
    known = [key for key, _, _ in rows]
    for key in value:
        if key not in known:
            raise ConfigError(
                f"unknown field {_join(path, key)}; expected one of {', '.join(known)}")
    kwargs = {}
    for key, attr, kind in rows:
        if key not in value:
            if not kind.optional:
                raise ConfigError(f"missing field {_join(path, key)}")
            continue
        parsed = kind.parse(value[key], _join(path, key))
        kwargs.update(parsed if attr is None else {attr: parsed})
    if cls is None:
        return kwargs
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            # SimConfig checks fields of several sections; each of its
            # messages starts with the attribute path of the field it names
            attrs = str(exc).split(" ", 1)[0]
            path = _document_path(rows, attrs) or ""
            if path == attrs:  # the message already starts with the path
                path = ""
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def _document_path(rows, attrs: str) -> str | None:
    """Document path of a dotted attribute path such as `rls.theta0`, or
    None when no row holds it."""
    head, _, rest = attrs.partition(".")
    for key, attr, kind in rows:
        if attr is None:  # a section whose fields the enclosing class takes
            found = _document_path(kind.rows, attrs)
        elif attr == head:
            found = _document_path(kind.rows, rest) if rest else ""
        else:
            continue
        if found is not None:
            return f"{key}.{found}" if found else key
    return None


def _dump_mapping(rows, obj) -> dict:
    return {key: kind.dump(obj if attr is None else getattr(obj, attr))
            for key, attr, kind in rows}


def _section(cls, rows) -> _Kind:
    return _Kind(partial(_parse_mapping, cls, rows), partial(_dump_mapping, rows),
                 rows=tuple(rows))


def _tagged(tag: str, table: dict) -> _Kind:
    """A mapping whose `tag` names a dataclass in `table`; the other keys are
    its int and float fields."""
    scalar = {"int": _INT, "float": _FLOAT}
    names = {cls: name for name, cls in table.items()}
    # the tag's own row passes no argument and dumps the name of the class
    tag_row = (tag, None, _Kind(lambda value, path: {}, lambda obj: names[type(obj)]))
    rows = {name: [tag_row, *((f.name, f.name, scalar[f.type]) for f in fields(cls))]
            for name, cls in table.items()}

    def parse(value, path):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be a mapping with a {tag!r} field")
        if tag not in value:
            raise ConfigError(f"missing field {path}.{tag}")
        name = value[tag]
        if not isinstance(name, str) or name not in table:
            raise ConfigError(f"{path}.{tag} must be one of {', '.join(table)}; got {name!r}")
        return _parse_mapping(table[name], rows[name], value, path)

    def dump(obj):
        if type(obj) not in names:
            raise ConfigError(f"cannot serialize {obj!r}: not one of {', '.join(table)}")
        return _dump_mapping(rows[names[type(obj)]], obj)

    return _Kind(parse, dump)


# --- the schema ----------------------------------------------------------------

_COEFF = _tagged("kind", {
    "constant": ConstantCoeff,
    "atan_affine": AtanAffineCoeff,
    "sin_affine": SinAffineCoeff,
})

_BASIS = _tagged("family", {
    "polynomial": basis_mod.Polynomial,
    "fourier": basis_mod.Fourier,
    "spline": basis_mod.CubicHermiteSpline,
    "atan_pair": basis_mod.AtanPair,
    "sin_pair": basis_mod.SinPair,
    "constant": basis_mod.Constant,
    "zero": basis_mod.Zero,
})

# Rows in document order. Attribute None: the fields belong to the enclosing class.
_DOCUMENT = _section(SimConfig, [
    ("name", "name", _opt(_STR)),
    ("notes", "notes", _opt(_STR)),
    ("plant", "plant", _section(PlantSpec, [
        ("order", "order", _INT),
        ("f", "f_coeffs", _list(_COEFF, "coefficient laws")),
        ("g", "g_coeffs", _list(_COEFF, "coefficient laws")),
    ])),
    ("model", "structure", _section(ModelStructure, [
        ("order", "order", _INT),
        ("f", "f_specs", _list(_BASIS, "basis specs")),
        ("g", "g_specs", _list(_BASIS, "basis specs")),
        ("h", "h_spec", _or_none(_BASIS)),
    ])),
    ("rls", "rls", _section(RlsSettings, [
        ("theta0", "theta0", _list(_FLOAT, "numbers")),
        ("r0", "r0", _FLOAT),
        ("forgetting", "forgetting", _FLOAT),
        ("filter_threshold", "filter_threshold", _opt(_FLOAT)),
    ])),
    ("mpc", "mpc", _section(HorizonConfig, [
        ("horizon", "horizon", _INT),
        ("subiterations", "subiterations", _INT),
        ("q", "q_weight", _FLOAT),
        ("r", "r_weight", _FLOAT),
        ("u_min", "u_min", _or_none(_FLOAT)),
        ("u_max", "u_max", _or_none(_FLOAT)),
        ("fixed_point_tol", "fixed_point_tol", _opt(_FLOAT)),
    ])),
    ("command", "command", _section(SinusoidCommand, [
        ("amplitude", "amplitude", _FLOAT),
        ("rate", "rate", _FLOAT),
    ])),
    ("sim", None, _section(None, [
        ("steps", "steps", _INT),
        ("y0", "y0", _FLOAT),
        ("u0", "u0", _FLOAT),
        ("warmup_std", "warmup_std", _FLOAT),
        ("seed", "seed", _INT),
    ])),
    ("output", "output", _opt(_section(OutputSettings, [
        ("snapshot_step", "snapshot_step", _opt(_INT)),
        ("grid", None, _opt(_section(None, [
            ("lo", "grid_lo", _opt(_FLOAT)),
            ("hi", "grid_hi", _opt(_FLOAT)),
            ("points", "grid_points", _opt(_INT)),
        ]))),
        ("windows", "windows", _opt(_list(_PAIR, "[start, end] pairs"))),
    ]))),
])


# --- document <-> SimConfig --------------------------------------------------

def from_document(doc: dict) -> SimConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    doc = dict(doc)
    schema = doc.pop("schema", SCHEMA)
    if schema != SCHEMA:
        raise ConfigError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")
    return _DOCUMENT.parse(doc, "")


def to_document(cfg: SimConfig) -> dict:
    return {"schema": SCHEMA, **_DOCUMENT.dump(cfg)}


def load_config_file(path) -> SimConfig:
    import yaml  # only the file functions need it, so a run stays clear of it

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return from_document(doc)


def dump_config_file(cfg: SimConfig, path) -> None:
    import yaml

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
