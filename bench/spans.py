"""Span tracing around the library's public layer functions.

`Tracer` swaps each traced function or method for a wrapper that records one
span per call: name, start, end, parent span and the control step it belongs
to. The library itself is not modified; the originals are put back when the
tracer's `with` block ends. Spans stay in memory (one float array per closed
loop) and are written out once, at the end of the run.

Self time of a span is its duration minus the durations of its direct
children. Calls nest strictly in this single-threaded loop, so the self times
of one closed loop add up exactly to the duration of its root span.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# Traced layer functions: (span name, owner module/class path, attribute).
# Module-level functions are patched where the caller looks them up, which
# for `regressor` means both importing modules.
TRACED = (
    ("plant.run_closed_loop", "plant", "run_closed_loop"),
    ("plant.step", "plant", "plant_step"),
    ("model.regressor", "plant", "regressor"),
    ("model.regressor", "mpc", "regressor"),
    ("rls.step", "rls.DirectionalForgettingRls", "step"),
    ("rls.directional_forget", "rls", "directional_forget"),
    ("mpc.plan", "mpc.RecedingHorizonController", "plan"),
    ("mpc.anchor_prediction", "mpc", "anchor_prediction"),
    ("mpc.subiterate", "mpc", "subiterate"),
    ("mpc.rollout", "mpc", "rollout"),
    ("mpc.build_sdc", "mpc", "build_sdc"),
    ("mpc.assemble", "mpc", "assemble"),
    ("qp.solve", "qp", "solve"),
)
BASIS_METHODS = ("eval", "eval_grid")


class Tracer:
    """Context manager that traces the layer functions of an imported plmpc."""

    def __init__(self, plmpc):
        self._plmpc = plmpc
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[tuple] = []    # spans of the current loop, as tuples
        self._stack = [-1]              # indices of open spans; -1 is "no parent"
        self._patched: list[tuple] = []
        self._batches: list[np.ndarray] = []
        self._offset = 0
        self.step = 0                   # step id: running count over all loops
        self._step_base = 0
        self.qp_diags: list[tuple] = []     # (iterations, ridge_applied, active_bounds)
        self.plan_diags: list[tuple] = []   # (qp_solves, accepted, stagnated, diverged)
        self.grid_points = 0

    # --- patching ------------------------------------------------------------

    def __enter__(self):
        hooks = {
            "plant.step": (self._enter_step, None),
            "qp.solve": (None, self._record_qp),
            "mpc.plan": (None, self._record_plan),
            "basis.eval_grid": (None, self._record_grid),
        }
        for name, owner_path, attr in TRACED:
            owner = self._resolve(owner_path)
            self._patch(owner, attr, name, *hooks.get(name, (None, None)))
        basis = self._plmpc.basis
        for cls in vars(basis).values():
            if isinstance(cls, type) and issubclass(cls, basis.BasisSpec):
                for attr in BASIS_METHODS:
                    if attr in vars(cls):
                        name = f"basis.{attr}"
                        self._patch(cls, attr, name, *hooks.get(name, (None, None)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _resolve(self, path: str):
        obj = self._plmpc
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def _patch(self, owner, attr, name, on_call, on_result):
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(self._id(name), original, on_call, on_result))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, nid, fn, on_call, on_result):
        spans, stack, clock, tracer = self._open, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            step = tracer.step
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, step)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # --- hooks on public arguments and return values -------------------------

    def _enter_step(self, args):
        self.step = self._step_base + int(args[3])  # plant_step(spec, y_hist, u_hist, k)

    def _record_qp(self, result):
        diag = result[1]
        self.qp_diags.append((diag.iterations, diag.ridge_applied, diag.active_bounds))

    def _record_plan(self, result):
        diag = result[1]
        self.plan_diags.append((diag.qp_solves, len(diag.accepted_residuals),
                                diag.stagnated, diag.diverged))

    def _record_grid(self, result):
        self.grid_points += len(result)

    # --- span storage ----------------------------------------------------------

    def end_loop(self) -> None:
        """Move the finished loop's spans out of the hot list into an array."""
        if len(self._stack) != 1:
            raise RuntimeError("a traced call is still open at the end of a loop")
        if self._open:
            batch = np.array(self._open, dtype=float)
            parents = batch[:, 3]
            batch[:, 3] = np.where(parents >= 0, parents + self._offset, -1.0)
            self._batches.append(batch)
            self._offset += len(batch)
            self._open.clear()
        self._step_base = self.step

    def spans(self) -> np.ndarray:
        """All spans so far: columns name id, start, end, parent index, step."""
        if not self._batches:
            return np.empty((0, 5))
        return np.concatenate(self._batches)

    def save(self, path) -> None:
        table = self.spans()
        np.savez(path, names=np.array(self.names), name_id=table[:, 0].astype(np.int16),
                 start=table[:, 1], end=table[:, 2], parent=table[:, 3].astype(np.int64),
                 step=table[:, 4].astype(np.int64))


def self_times(table: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = table[:, 2] - table[:, 1]
    parent = table[:, 3].astype(np.int64)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - children
