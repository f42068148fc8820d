"""Span tracing of torusmfg from outside the package.

A Tracer replaces chosen functions and methods of the library by wrappers
that record one span (name, start, end, parent) per call, and puts every
original back when the traced block ends.  A module-level function is
replaced under every name that binds it in any loaded torusmfg module,
because modules import functions by name (`central_diff_values` lives in
grid, variational and transform).  Spans are kept in flat arrays in memory
and written once, by `save`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "torusmfg"


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def span_targets(tm) -> list[tuple[str, object, str]]:
    """(span name, owner, attribute) for every traced library entry.

    `tm` is the imported torusmfg package with its submodules loaded.
    """
    model, var, opt = tm.model, tm.variational, tm.optimizer
    orc, tr = tm.oracle, tm.transform
    return [
        ("grid.stencil", tm.grid, "central_diff_values"),
        ("model.coupling", model.CouplingG, "G"),
        ("model.coupling", model.CouplingG, "g"),
        ("model.coupling", model.CouplingG, "g_prime"),
        ("model.conjugate_deriv", model.CouplingG, "conjugate_deriv"),
        ("variational.value", var.DiscreteObjective, "value_arrays"),
        ("variational.grad_u", var.DiscreteObjective, "gradient_u_arrays"),
        ("variational.grad_m", var.DiscreteObjective, "gradient_m_arrays"),
        ("variational.project", var, "project_simplex_values"),
        ("variational.estimate", var, "estimate_Hbar"),
        ("variational.estimate", var, "apriori_diagnostics"),
        ("optimizer", opt, "minimize"),
        ("oracle", orc, "solve_P0"),
        ("oracle", orc, "solve_critical"),
        ("transform", tr, "pipeline_alpha_lt_1"),
        ("transform", tr, "recover_P"),
        ("transform", tr, "dual_divergence_residual"),
        ("transform", tr, "curl_proxy"),
        ("transform", tr, "hjb_residual"),
        ("transform.hjb", tr, "solve_hjb_discounted"),
        ("transform.spsolve", tr.spla, "spsolve"),
    ]


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper._bench_span = name
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Patch every binding of every target; restore all on exit."""
        modules = package_modules()
        try:
            for name, owner, attr in targets:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                owners = [owner]
                if not isinstance(owner, type):
                    owners += [m for m in modules
                               if m is not owner and vars(m).get(attr) is original]
                for own in owners:
                    self.patched.append((own, attr, original))
                    setattr(own, attr, wrapper)
            yield self
        finally:
            for own, attr, original in reversed(self.patched):
                setattr(own, attr, original)
            self.patched.clear()

    # -- aggregation --------------------------------------------------------

    def arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        t0 = np.frombuffer(self.start, dtype=np.float64)
        t1 = np.frombuffer(self.end, dtype=np.float64)
        par = np.frombuffer(self.parent, dtype=np.int32)
        return ids, t0, t1, par

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        ids, t0, t1, par = self.arrays()
        dur = t1 - t0
        child = np.zeros_like(dur)
        has = par >= 0
        np.add.at(child, par[has], dur[has])
        return dur - child

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        ids = self.arrays()[0]
        selfs = self.self_times()
        calls = np.bincount(ids, minlength=len(self.names))
        secs = np.bincount(ids, weights=selfs, minlength=len(self.names))
        return {nm: (int(calls[i]), float(secs[i])) for i, nm in enumerate(self.names)}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside a span called `ancestor`.

        Spans of one thread nest, so containment of the time interval is
        the same as having the ancestor on the parent chain.
        """
        if name not in self._ids or ancestor not in self._ids:
            return 0
        ids, t0, t1, _ = self.arrays()
        outer = ids == self._ids[ancestor]
        a0, a1 = t0[outer], t1[outer]
        s0 = t0[ids == self._ids[name]]
        k = np.searchsorted(a0, s0, side="right") - 1
        return int(np.count_nonzero((k >= 0) & (s0 < a1[np.maximum(k, 0)])))

    def save(self, path) -> None:
        ids, t0, t1, par = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=ids,
                            start=t0, end=t1, parent=par)
