"""Pseudo-linear input-output model: structure, regressors, identified coefficients.

The one-step predictor is linear in an unknown coefficient row `theta`,
but each regressor entry is a lagged output or input weighted by a basis
dictionary evaluated at a past output, so the identified dynamics can vary
with the operating point. Coefficient layout within theta: all output-lag
blocks first (one block of length dim_f per lag), then all input-lag blocks,
then the optional offset block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec

__all__ = [
    "History",
    "ModelStructure",
    "regressor",
    "coeff_g_grid",
]


class History:
    """Scalar signal indexed by absolute step, with a zero-filled prefix.

    `pad` entries before index 0 read as 0.0 so an order-n recursion can start
    from rest. Reading outside the recorded range raises IndexError.
    """

    __slots__ = ("_pad", "_vals")

    def __init__(self, pad: int = 0):
        if pad < 0:
            raise ValueError("pad must be >= 0")
        self._pad = int(pad)
        self._vals = [0.0] * int(pad)

    def append(self, value: float) -> None:
        self._vals.append(float(value))

    @property
    def last_index(self) -> int:
        return len(self._vals) - self._pad - 1

    def at(self, idx: int) -> float:
        pos = idx + self._pad
        if pos < 0 or pos >= len(self._vals):
            raise IndexError(
                f"history index {idx} outside [{-self._pad}, {self.last_index}]"
            )
        return self._vals[pos]


@dataclass(frozen=True)
class ModelStructure:
    """Orders and basis dictionaries defining the regressor layout.

    f_specs[i] weights output lag i+1, g_specs[i] weights input lag i+1,
    h_spec (optional) adds an output-dependent offset. All output-lag
    dictionaries must share one output dimension, likewise the input-lag ones.
    """

    order: int
    f_specs: tuple[BasisSpec, ...]
    g_specs: tuple[BasisSpec, ...]
    h_spec: BasisSpec | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if len(self.f_specs) != self.order or len(self.g_specs) != self.order:
            raise ValueError(
                f"need exactly {self.order} output-lag and input-lag dictionaries, "
                f"got {len(self.f_specs)} and {len(self.g_specs)}"
            )
        if len({s.dim for s in self.f_specs}) != 1:
            raise ValueError("output-lag dictionaries must share one dimension")
        if len({s.dim for s in self.g_specs}) != 1:
            raise ValueError("input-lag dictionaries must share one dimension")

    @property
    def dim_f(self) -> int:
        return self.f_specs[0].dim

    @property
    def dim_g(self) -> int:
        return self.g_specs[0].dim

    @property
    def dim_h(self) -> int:
        return self.h_spec.dim if self.h_spec is not None else 0

    @property
    def dim_phi(self) -> int:
        return self.order * (self.dim_f + self.dim_g) + self.dim_h

    def f_slice(self, lag: int) -> slice:
        self._check_lag(lag)
        start = (lag - 1) * self.dim_f
        return slice(start, start + self.dim_f)

    def g_slice(self, lag: int) -> slice:
        self._check_lag(lag)
        start = self.order * self.dim_f + (lag - 1) * self.dim_g
        return slice(start, start + self.dim_g)

    def h_slice(self) -> slice:
        start = self.order * (self.dim_f + self.dim_g)
        return slice(start, self.dim_phi)

    def _check_lag(self, lag: int) -> None:
        if not 1 <= lag <= self.order:
            raise ValueError(f"lag must be in 1..{self.order}, got {lag}")

    def split(self, theta) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        theta = self._check_theta(theta)
        fs = [theta[self.f_slice(i)] for i in range(1, self.order + 1)]
        gs = [theta[self.g_slice(i)] for i in range(1, self.order + 1)]
        return fs, gs, theta[self.h_slice()]

    def join(self, fs, gs, h=None) -> np.ndarray:
        parts = [np.atleast_1d(np.asarray(b, dtype=float)) for b in (*fs, *gs)]
        if h is not None:
            parts.append(np.atleast_1d(np.asarray(h, dtype=float)))
        theta = np.concatenate(parts) if parts else np.empty(0)
        return self._check_theta(theta)

    def _check_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim_phi,):
            raise ValueError(
                f"coefficient vector has {theta.size} entries "
                f"but this structure needs {self.dim_phi}"
            )
        return theta


def regressor(structure: ModelStructure, y_hist: History, u_hist: History, k: int) -> np.ndarray:
    """Regressor for predicting the output at step k from data through k-1."""
    n = structure.order
    phi = np.empty(structure.dim_phi)
    df, dg = structure.dim_f, structure.dim_g
    pos = 0
    for i in range(1, n + 1):
        yl = y_hist.at(k - i)
        phi[pos:pos + df] = -yl * structure.f_specs[i - 1].eval(yl)
        pos += df
    for i in range(1, n + 1):
        yl = y_hist.at(k - i)
        ul = u_hist.at(k - i)
        phi[pos:pos + dg] = ul * structure.g_specs[i - 1].eval(yl)
        pos += dg
    if structure.h_spec is not None:
        phi[pos:] = structure.h_spec.eval(y_hist.at(k - 1))
    return phi


def coeff_g_grid(structure: ModelStructure, theta, lag: int, ys) -> np.ndarray:
    """Identified input-lag coefficient over a grid of operating points."""
    theta = structure._check_theta(theta)
    table = structure.g_specs[lag - 1].eval_grid(ys)
    return table @ theta[structure.g_slice(lag)]
