"""Basis-function dictionaries used to parameterize output-dependent coefficients.

Every dictionary maps a scalar argument to a fixed-length feature vector.
Specs are immutable (hashable, safe to share between model structures) and
evaluation is stateless. `eval` handles a single point, `eval_grid` a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BasisSpec",
    "Polynomial",
    "Fourier",
    "CubicHermiteSpline",
    "AtanPair",
    "SinPair",
    "Constant",
    "Zero",
]


def _require_finite(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"basis argument must be finite, got {x!r}")
    return x


def _require_finite_array(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("basis arguments must be finite")
    return xs


def _fixed(*row) -> np.ndarray:
    out = np.array(row)
    out.flags.writeable = False
    return out


class BasisSpec:
    """Common interface: `dim` plus pointwise and batched evaluation.

    `fixed_row` is None for a dictionary whose row depends on the argument.
    A dictionary that ignores its argument sets it to its (read-only) row,
    equal bitwise to `eval` at every finite point, so callers can form its
    coefficient once instead of once per point.
    """

    fixed_row: np.ndarray | None = None

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def eval(self, x: float) -> np.ndarray:
        raise NotImplementedError

    def eval_grid(self, xs) -> np.ndarray:
        """Evaluate at many points, returning shape (xs.size, dim).

        Row j equals `eval(xs.flat[j])` bitwise, for every dictionary; the
        tests check this on random grids. This generic version stacks one
        `eval` row per point. A subclass overrides it only with ufuncs that
        return the same bits as the scalar `math` calls of its `eval`.
        """
        flat = np.ravel(_require_finite_array(xs))
        if flat.size == 0:
            return np.empty((0, self.dim))
        return np.stack([self.eval(float(x)) for x in flat])


@dataclass(frozen=True)
class Polynomial(BasisSpec):
    """Monomials [1, x, ..., x**degree]."""

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")

    @property
    def dim(self) -> int:
        return self.degree + 1

    def eval(self, x: float) -> np.ndarray:
        x = _require_finite(x)
        return x ** np.arange(self.degree + 1, dtype=float)

    def eval_grid(self, xs) -> np.ndarray:
        flat = np.ravel(_require_finite_array(xs))
        return flat[:, None] ** np.arange(self.degree + 1, dtype=float)


@dataclass(frozen=True)
class Fourier(BasisSpec):
    """Trigonometric dictionary [1, cos(w x), sin(w x), ..., cos(n w x), sin(n w x)]
    with fundamental frequency w = pi / half_period."""

    harmonics: int
    half_period: float

    def __post_init__(self):
        if self.harmonics < 1:
            raise ValueError(f"harmonics must be >= 1, got {self.harmonics}")
        if not (math.isfinite(self.half_period) and self.half_period > 0):
            raise ValueError(f"half_period must be positive, got {self.half_period}")

    @property
    def dim(self) -> int:
        return 2 * self.harmonics + 1

    def eval(self, x: float) -> np.ndarray:
        w = math.pi * _require_finite(x) / self.half_period
        row = [1.0]
        for i in range(1, self.harmonics + 1):
            row += (math.cos(i * w), math.sin(i * w))
        return np.array(row)

    def eval_grid(self, xs) -> np.ndarray:
        w = math.pi * np.ravel(_require_finite_array(xs)) / self.half_period
        angles = np.multiply.outer(w, np.arange(1, self.harmonics + 1))  # i * w
        out = np.empty((w.size, self.dim))
        out[:, 0] = 1.0
        out[:, 1::2] = np.cos(angles)
        out[:, 2::2] = np.sin(angles)
        return out


@dataclass(frozen=True)
class CubicHermiteSpline(BasisSpec):
    """Local cubic Hermite pairs on an equally spaced grid over [lo, hi].

    The grid has `interior_nodes` carrier nodes strictly inside [lo, hi],
    giving interior_nodes + 1 equal segments. Each carrier node i contributes
    two functions: a value bump (1 at node i, 0 with zero slope at its
    neighbors) and a spacing-scaled slope bump, so a coefficient pair
    (value, slope) reproduces function value and derivative at the node.
    Support is [lo, hi) with half-open pieces; outside it the vector is zero.
    """

    interior_nodes: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.interior_nodes < 2:
            raise ValueError(f"interior_nodes must be >= 2, got {self.interior_nodes}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def dim(self) -> int:
        return 2 * self.interior_nodes

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.interior_nodes + 2)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.interior_nodes + 1)

    def eval(self, x: float) -> np.ndarray:
        x = _require_finite(x)
        out = np.zeros(self.dim)
        s = self.nodes
        if x < s[0] or x >= s[-1]:
            return out
        sd = self.spacing
        for i in range(1, self.interior_nodes + 1):
            if s[i - 1] <= x < s[i]:
                t = (x - s[i - 1]) / sd
                p = (3.0 - 2.0 * t) * t * t
                m = (t - 1.0) * t * t
            elif s[i] <= x < s[i + 1]:
                t = (x - s[i]) / sd
                p = 1.0 - (3.0 - 2.0 * t) * t * t
                m = (t - 1.0) * (t - 1.0) * t
            else:
                continue
            out[2 * i - 2] = p
            out[2 * i - 1] = sd * m
        return out


@dataclass(frozen=True)
class AtanPair(BasisSpec):
    """Two-element dictionary [1, atan(x)] for inverse-tangent coefficient laws.

    It keeps the generic `eval_grid`: np.arctan and math.atan differ in the
    last bit on some arguments, so a ufunc grid would not match `eval`.
    """

    @property
    def dim(self) -> int:
        return 2

    def eval(self, x: float) -> np.ndarray:
        x = _require_finite(x)
        return np.array([1.0, math.atan(x)])


@dataclass(frozen=True)
class SinPair(BasisSpec):
    """Two-element dictionary [1, sin(x)] for sinusoidal coefficient laws."""

    @property
    def dim(self) -> int:
        return 2

    def eval(self, x: float) -> np.ndarray:
        x = _require_finite(x)
        return np.array([1.0, math.sin(x)])

    def eval_grid(self, xs) -> np.ndarray:
        flat = np.ravel(_require_finite_array(xs))
        return np.column_stack([np.ones(flat.size), np.sin(flat)])


@dataclass(frozen=True)
class Constant(BasisSpec):
    """Degenerate dictionary [1]: the coefficient does not depend on the output."""

    fixed_row = _fixed(1.0)

    @property
    def dim(self) -> int:
        return 1

    def eval(self, x: float) -> np.ndarray:
        _require_finite(x)
        return np.array([1.0])

    def eval_grid(self, xs) -> np.ndarray:
        xs = _require_finite_array(xs)
        return np.ones((xs.size, 1))


@dataclass(frozen=True)
class Zero(BasisSpec):
    """Degenerate dictionary [0]: the term is present but always vanishes."""

    fixed_row = _fixed(0.0)

    @property
    def dim(self) -> int:
        return 1

    def eval(self, x: float) -> np.ndarray:
        _require_finite(x)
        return np.array([0.0])

    def eval_grid(self, xs) -> np.ndarray:
        xs = _require_finite_array(xs)
        return np.zeros((xs.size, 1))

