"""Tests of the benchmark's own code: references, tracing and metric names.

Run from the repository root with  python3 -m pytest -q bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibration
import harness
import references as ref
import run
import tracing
import torusmfg
import torusmfg.transform
from torusmfg.grid import TorusGrid
from torusmfg.model import CouplingG, PotentialFamily, ProblemSpec
from torusmfg.optimizer import SolveOptions, minimize
from torusmfg.oracle import solve_critical, solve_P0
from torusmfg.transform import DualSpec
from torusmfg.variational import DiscreteObjective
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec_1d(n, V, alpha=1.5, P=0.0):
    return ProblemSpec(1, n, alpha, 2.0, (P,), TorusGrid(1, n).from_callable(lambda x: V),
                       CouplingG.quadratic())


class TestVar1dReference:
    def test_matches_known_value_and_is_grid_independent(self):
        vals = [ref.var1d_reference(ref.cosine_shift(n, 1.0, 0.0), 1.0, 1.5, 2.0)[0]
                for n in (32, 48, 64)]
        assert vals[0] == pytest.approx(-0.385906268116, abs=1e-12)
        assert max(vals) - min(vals) <= 1e-12

    def test_agrees_with_minimize_at_small_n(self):
        n = 32
        V = ref.cosine_shift(n, 1.0, 0.3)
        hbar, m = ref.var1d_reference(V, 1.0, 1.5, 2.0)
        res = minimize(DiscreteObjective(spec_1d(n, V, P=1.0)), "uniform",
                       SolveOptions(step0=float(n), max_iters=100000))
        assert abs(res.Hbar - hbar) <= 1e-7
        assert np.max(np.abs(res.m.values - m)) <= 1e-4

    def test_drift_sign_mirrors(self):
        V = ref.cosine_shift(32, 1.0, 0.0)
        assert ref.var1d_reference(V, -1.0, 1.5, 2.0)[0] == pytest.approx(
            ref.var1d_reference(V, 1.0, 1.5, 2.0)[0], abs=1e-12)


class TestOracleReferences:
    @pytest.mark.parametrize("amplitude", [0.5, 10.0])
    def test_water_filling_agrees_with_solve_P0(self, amplitude):
        V = ref.gaussian_bump(512, amplitude, 0.3) + ref.cosine_shift(512, amplitude, 0.1)
        hbar, m = ref.water_filling(V)
        res = solve_P0(spec_1d(512, V))
        assert abs(res.Hbar - hbar) <= 1e-10
        assert np.max(np.abs(res.m.values - m)) <= 1e-10
        assert (m == 0.0).any() == (amplitude > 1.0)

    def test_water_filling_2d(self):
        V = ref.exp_sin_cos(32, 8.0, 0.1, 0.2)
        hbar, m = ref.water_filling(V)
        g = TorusGrid(2, 32)
        res = solve_P0(ProblemSpec(2, 32, 1.5, 2.0, (0.0, 0.0), g.from_callable(lambda x, y: V),
                                   CouplingG.quadratic()))
        assert abs(res.Hbar - hbar) <= 1e-10
        assert abs(m.mean() - 1.0) <= 1e-13

    def test_critical_reference_and_residual(self):
        V = ref.cosine_shift(256, 6.0, 0.2)
        res = solve_critical(spec_1d(256, V, alpha=1.0, P=0.7))
        assert abs(res.Hbar - ref.critical_reference(V, 0.7, 2.0)) <= 1e-10
        resid, mass = ref.critical_residual(res.m.values, res.Hbar, V, 0.7, 2.0)
        assert resid <= 1e-9 and mass <= 1e-12
        # a wrong Hbar is caught by the residual
        assert ref.critical_residual(res.m.values, res.Hbar + 1e-6, V, 0.7, 2.0)[0] > 1e-7


class TestTracing:
    def bindings(self):
        """Every attribute of every torusmfg module and traced class."""
        owners = tracing.package_modules() + [
            torusmfg.model.CouplingG, torusmfg.variational.DiscreteObjective,
        ]
        snap = {(id(o), k): v for o in owners for k, v in list(vars(o).items())}
        snap[("spla", "spsolve")] = torusmfg.transform.spla.spsolve
        return snap

    def test_patches_every_binding_and_restores_them(self):
        before = self.bindings()
        g = TorusGrid(2, 12)
        V = PotentialFamily("sine-cosine-product", {"amplitude": 1.0}).sample(g)
        dual = DualSpec(ProblemSpec(2, 12, 0.5, 2.0, (0.0, 0.0), V, CouplingG.quadratic()),
                        (1.0, 0.0))
        tracer = tracing.Tracer()
        with tracer.installed(tracing.span_targets(torusmfg)):
            for mod, attr in [(torusmfg.grid, "central_diff_values"),
                              (torusmfg.variational, "central_diff_values"),
                              (torusmfg.transform, "central_diff_values"),
                              (torusmfg.variational, "project_simplex_values"),
                              (torusmfg.optimizer, "project_simplex_values"),
                              (torusmfg.optimizer, "minimize"),
                              (torusmfg.transform, "minimize"),
                              (torusmfg, "minimize"),
                              (torusmfg.transform.spla, "spsolve")]:
                assert hasattr(getattr(mod, attr), "_bench_span"), (mod, attr)
            torusmfg.transform.pipeline_alpha_lt_1(dual)
        after = self.bindings()
        assert after.keys() == before.keys()
        changed = [k for k in before if after[k] is not before[k]]
        assert not changed
        totals = tracer.totals()
        for name in ("grid.stencil", "optimizer", "transform", "transform.hjb",
                     "transform.spsolve", "variational.project", "model.coupling"):
            assert totals[name][0] > 0, name

    def test_restores_after_an_exception(self):
        before = torusmfg.optimizer.minimize
        with pytest.raises(RuntimeError):
            with tracing.Tracer().installed(tracing.span_targets(torusmfg)):
                raise RuntimeError
        assert torusmfg.optimizer.minimize is before
        assert torusmfg.transform.minimize is before

    def test_self_times_partition_the_span_tree(self):
        tracer = tracing.Tracer()
        outer = tracer._wrap("outer", lambda f: f() + f())
        inner = tracer._wrap("inner", lambda: sum(range(10000)))
        outer(inner)
        ids, t0, t1, par = tracer.arrays()
        assert list(par) == [-1, 0, 0]
        assert sum(tracer.self_times()) == pytest.approx(t1[0] - t0[0], rel=1e-9)
        assert tracer.count_under("inner", "outer") == 2


class TestMetrics:
    def spec(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_declared_names_are_the_emitted_names(self):
        spec = self.spec()
        assert [m["name"] for m in spec["end_to_end"]] == [k for k, _ in run.END_TO_END]
        assert [m["name"] for m in spec["per_layer"]] == [k for k, _ in harness.PER_LAYER]
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
        assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)

    def test_emitted_names_match_pattern(self):
        wl = WORKLOADS["var1d"]
        p = dict(wl.problems(0)[0], n=32)
        refs = [wl.reference(p)]
        tracer = tracing.Tracer()
        tp = harness.run_pass(torusmfg, wl, [p], refs, calibration.Probe(), tracer,
                              tracing.span_targets(torusmfg))
        assert all(r["ok"] for r in tp.records)
        metrics = harness.layer_metrics(wl, tracer, tp)
        names = set(metrics) | {"trace.overhead_s"}
        assert names == {k for k, _ in harness.PER_LAYER}
        for name in names | {k for k, _ in run.END_TO_END}:
            assert NAME.fullmatch(name) and len(name) <= 64, name
        assert metrics["optimizer.iters_n32"] == metrics["optimizer.iters"] > 0
        assert metrics["optimizer.value_per_iter"] >= 1.0

    def test_seed_fixes_the_problems(self):
        for wl in WORKLOADS.values():
            assert wl.problems(7) == wl.problems(7)
            assert wl.problems(7) != wl.problems(8)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
