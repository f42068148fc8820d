"""Passes over a workload's problems, and the metrics computed from them."""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import calibration

ITER_SIZES = (32, 48, 64, 96, 128)  # grid sizes of var1d and alpha_lt_1
PER_LAYER = (
    ("grid.stencil.calls", "count"), ("grid.stencil.self_s", "s"),
    ("model.coupling.calls", "count"), ("model.coupling.self_s", "s"),
    ("model.conjugate_deriv.calls", "count"), ("model.conjugate_deriv.self_s", "s"),
    ("variational.value.calls", "count"), ("variational.value.self_s", "s"),
    ("variational.grad_u.calls", "count"), ("variational.grad_u.self_s", "s"),
    ("variational.grad_m.calls", "count"), ("variational.grad_m.self_s", "s"),
    ("variational.project.calls", "count"), ("variational.project.self_s", "s"),
    ("variational.estimate.self_s", "s"),
    ("optimizer.self_s", "s"), ("optimizer.us_per_iter", "us"),
    ("optimizer.value_per_iter", "calls/iter"), ("optimizer.iters", "count"),
    *((f"optimizer.iters_n{n}", "count") for n in ITER_SIZES),
    ("optimizer.gradmap_max", "1"), ("optimizer.stagnation_stops", "count"),
    ("optimizer.kkt_max", "1"), ("optimizer.hbar_err_max", "1"),
    ("oracle.self_s", "s"), ("oracle.hbar_err_max", "1"), ("oracle.errors", "count"),
    ("transform.self_s", "s"), ("transform.hjb.calls", "count"),
    ("transform.hjb.self_s", "s"), ("transform.spsolve.calls", "count"),
    ("transform.spsolve.s", "s"), ("transform.hjb_residual_max", "1"),
    ("transform.hbar_consistency", "1"), ("transform.errors", "count"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Pass:
    """One pass over every problem of a workload."""

    build_s: float
    times: list = field(default_factory=list)    # raw solve seconds
    scaled: list = field(default_factory=list)   # solve seconds at probe speed
    probes: list = field(default_factory=list)
    records: list = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Factor from this pass's raw seconds to reference seconds."""
        return calibration.REFERENCE_S / statistics.median(self.probes)


def run_pass(tm, wl, problems, refs, probe, tracer=None, targets=None) -> Pass:
    """Build every input, then solve and check one problem at a time.

    Only the library call is inside the solve clock.  The calibration
    probe runs before the first solve and after each one; a solve's time
    is rescaled by the mean of the probes on either side of it.
    """
    t = time.perf_counter()
    inputs = [wl.build(tm, p) for p in problems]
    out = Pass(build_s=time.perf_counter() - t)
    out.probes.append(probe())
    for p, inp, refv in zip(problems, inputs, refs):
        try:
            # wrappers only around the library call, so the probe is not traced
            with tracer.installed(targets) if tracer else nullcontext():
                t = time.perf_counter()
                try:
                    res = wl.solve(tm, inp)
                finally:
                    dt = time.perf_counter() - t
        except Exception as exc:  # a solve that raises counts as failed
            log(f"{wl.name}: solve raised {exc!r} on {p}")
            rec = dict(ok=False, n=p["n"], iters=0)
        else:
            rec = wl.check(p, inp, res, refv)
            if not rec["ok"]:
                log(f"{wl.name}: answer outside tolerance {rec} on {p}")
        out.probes.append(probe())
        out.records.append(rec)
        out.times.append(dt)
        out.scaled.append(dt * calibration.REFERENCE_S
                          / (0.5 * (out.probes[-2] + out.probes[-1])))
    return out


def solve_seconds(passes: list[Pass]) -> float:
    """Time to solve every problem once, in reference seconds: the sum over
    problems of each problem's median rescaled time across passes."""
    return sum(statistics.median(col) for col in zip(*(p.scaled for p in passes)))


def layer_metrics(wl, tracer, tp: Pass) -> dict:
    """Per-layer metrics of one traced pass, without `trace.overhead_s`.

    Times are in reference seconds, scaled by the pass's median probe, so
    that the layers' self times and `trace.wall_s` share one scale.
    """
    records, speed = tp.records, tp.speed
    totals = tracer.totals()
    ids, t0, t1, _ = tracer.arrays()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return speed * totals.get(name, (0, 0.0))[1]

    def biggest(key):
        return max((r[key] for r in records if key in r), default=0.0)

    opt_s = 0.0
    if "optimizer" in tracer.names:
        mask = ids == tracer.names.index("optimizer")
        opt_s = speed * float((t1[mask] - t0[mask]).sum())
    iters = sum(r["iters"] for r in records)
    failures = sum(not r["ok"] for r in records)
    metrics = {
        "grid.stencil.calls": calls("grid.stencil"),
        "grid.stencil.self_s": self_s("grid.stencil"),
        "model.coupling.calls": calls("model.coupling"),
        "model.coupling.self_s": self_s("model.coupling"),
        "model.conjugate_deriv.calls": calls("model.conjugate_deriv"),
        "model.conjugate_deriv.self_s": self_s("model.conjugate_deriv"),
        "variational.estimate.self_s": self_s("variational.estimate"),
        "optimizer.self_s": self_s("optimizer"),
        "optimizer.us_per_iter": 1e6 * opt_s / iters if iters else 0.0,
        "optimizer.value_per_iter":
            tracer.count_under("variational.value", "optimizer") / iters if iters else 0.0,
        "optimizer.iters": iters,
        "optimizer.gradmap_max": biggest("gradmap"),
        "optimizer.stagnation_stops": sum(r.get("stagnation", False) for r in records),
        "optimizer.kkt_max": biggest("kkt"),
        "optimizer.hbar_err_max": biggest("hbar_err"),
        "oracle.self_s": self_s("oracle"),
        "oracle.hbar_err_max": biggest("oracle_hbar_err"),
        "oracle.errors": failures if wl.layer == "oracle" else 0,
        "transform.self_s": self_s("transform"),
        "transform.hjb.calls": calls("transform.hjb"),
        "transform.hjb.self_s": self_s("transform.hjb"),
        "transform.spsolve.calls": calls("transform.spsolve"),
        "transform.spsolve.s": self_s("transform.spsolve"),
        "transform.hjb_residual_max": biggest("hjb_residual"),
        "transform.hbar_consistency": biggest("consistency"),
        "transform.errors": failures if wl.layer == "transform" else 0,
        "trace.wall_s": speed * sum(tp.times),
    }
    for part in ("value", "grad_u", "grad_m", "project"):
        metrics[f"variational.{part}.calls"] = calls(f"variational.{part}")
        metrics[f"variational.{part}.self_s"] = self_s(f"variational.{part}")
    for n in ITER_SIZES:
        metrics[f"optimizer.iters_n{n}"] = sum(r["iters"] for r in records if r["n"] == n)
    return metrics
