import io
import sys

import numpy as np
import pytest

from torusmfg import grid as grid_module
from torusmfg import optimizer as optimizer_module
from torusmfg import variational
from torusmfg.grid import GridFunction, TorusGrid, central_diff_values
from torusmfg.model import CouplingG, ProblemSpec
from torusmfg.optimizer import SolveOptions, minimize, random_feasible_point
from torusmfg.variational import DiscreteObjective, FeasiblePoint, optimal_m

QUAD = CouplingG.quadratic()

# grid-independent H-bar of 1D cos(2 pi x), P = 1, alpha 1.5, gamma 2,
# g(m) = m, from the semi-analytic constant-current solution
HBAR_COSINE_P1 = -0.385906268116
# the semi-analytic discrete H-bar (`var1d_reference` of the benchmark) at
# amplitude 10 and n = 128, where it still moves with n
HBAR_COSINE_A10_N128 = 6.117509975211301


def make_spec(n=64, dim=1, alpha=1.5, gamma=2.0, P=None, V_fn=None, coupling=QUAD):
    g = TorusGrid(dim, n)
    V = g.zeros() if V_fn is None else g.from_callable(V_fn)
    if P is None:
        P = (0.0,) * dim
    return ProblemSpec(dim, n, alpha, gamma, P, V, coupling)


@pytest.fixture(scope="module")
def cosine_drift_64():
    """1D cosine V, P = 1, n = 64 from the uniform start: (result, options)."""
    spec = make_spec(n=64, P=(1.0,), V_fn=lambda x: np.cos(2 * np.pi * x))
    opts = SolveOptions(step0=64.0, max_iters=100000)
    return minimize(DiscreteObjective(spec), "uniform", opts), opts


class TestConstantSolutions:
    @pytest.mark.parametrize("P", [(0.0,), (1.0,), (-2.5,)])
    def test_flat_potential_1d(self, P):
        spec = make_spec(n=32, P=P)
        res = minimize(DiscreteObjective(spec), "uniform", SolveOptions(step0=32.0))
        assert res.converged
        assert np.max(np.abs(res.u.values)) <= 1e-6
        assert np.max(np.abs(res.m.values - 1.0)) <= 1e-6
        expected = abs(P[0]) ** 2 / 2.0 - 1.0
        assert res.Hbar == pytest.approx(expected, abs=1e-6)

    def test_flat_potential_2d(self):
        spec = make_spec(n=12, dim=2, P=(1.0, 0.0))
        res = minimize(DiscreteObjective(spec), "uniform", SolveOptions(step0=144.0))
        assert res.converged
        assert res.Hbar == pytest.approx(-0.5, abs=1e-6)
        assert res.Hbar_std <= 1e-8


class TestSmoothOracleCase:
    def test_small_grid_validation(self):
        spec = make_spec(
            n=64, V_fn=lambda x: 0.5 * np.cos(2 * np.pi * (x - 0.25))
        )
        res = minimize(DiscreteObjective(spec), "uniform", SolveOptions(step0=64.0))
        assert res.converged
        mbar = spec.V.values + 1.0
        assert np.max(np.abs(res.m.values - mbar)) <= 1e-6
        assert np.max(np.abs(res.u.values)) <= 1e-6
        assert res.Hbar == pytest.approx(-1.0, abs=1e-4)


class TestDescentMechanics:
    def test_trace_monotone_and_schema(self):
        spec = make_spec(n=32, V_fn=lambda x: np.cos(2 * np.pi * x))
        buf = io.StringIO()
        res = minimize(
            DiscreteObjective(spec), random_feasible_point(spec.grid, 3),
            SolveOptions(step0=32.0, max_iters=2000), trace_file=buf,
        )
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "iter,objective,gradmap,step"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        obj = rows[:, 1]
        assert np.all(np.diff(obj) <= 1e-14 * np.maximum(1.0, np.abs(obj[:-1])))
        assert res.objective == pytest.approx(obj[-1])

    def test_every_result_feasible(self):
        spec = make_spec(n=24, P=(0.8,), V_fn=lambda x: np.sin(2 * np.pi * x))
        res = minimize(DiscreteObjective(spec), random_feasible_point(spec.grid, 5),
                       SolveOptions(step0=24.0, max_iters=20000))
        pt = res.point
        eu, em = pt.feasibility_errors()
        assert eu <= 1e-12 and em <= 1e-12
        assert pt.m.values.min() >= 0.0

    def test_invalid_init_raises(self):
        spec = make_spec(n=16)
        g = spec.grid
        bad = FeasiblePoint(
            GridFunction(g, np.full(16, np.nan)), g.constant(1.0)
        )
        with pytest.raises(ValueError, match="initial point"):
            minimize(DiscreteObjective(spec), bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_initial_m_raises(self, value):
        # a NaN m failed inside the simplex projection with "index -1 is out
        # of bounds"; minimize checked only u
        spec = make_spec(n=16)
        g = spec.grid
        m = np.ones(16)
        m[3] = value
        bad = FeasiblePoint(g.zeros(), GridFunction(g, m))
        with pytest.raises(ValueError, match="non-finite m"):
            minimize(DiscreteObjective(spec), bad)

    def test_init_other_than_uniform_or_point_raises(self):
        spec = make_spec(n=16)
        for init in ("random", "random(3)", "zeros", None):
            with pytest.raises(ValueError, match="init"):
                minimize(DiscreteObjective(spec), init)

    def test_init_on_another_grid_raises(self):
        # failed in the m-block: "operands could not be broadcast together"
        spec = make_spec(n=32)
        g = TorusGrid(1, 16)
        with pytest.raises(ValueError, match="different grid"):
            minimize(DiscreteObjective(spec), FeasiblePoint(g.zeros(), g.constant(1.0)))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_exponents_outside_the_convex_range_raise(self, alpha):
        # J_h is convex only for 1 < alpha <= gamma; these used to end
        # "line_search" (0.5), "stationary" at J = inf (1) and "stationary"
        # on a nonconvex functional (3)
        spec = make_spec(n=16, alpha=alpha, P=(1.0,), V_fn=lambda x: np.cos(2 * np.pi * x))
        with pytest.raises(ValueError, match="alpha"):
            minimize(DiscreteObjective(spec))

    def test_negative_max_iters_raises(self):
        # the cap fires on iters == max_iters, which -1 never meets
        with pytest.raises(ValueError, match="max_iters"):
            SolveOptions(max_iters=-1)

    @pytest.mark.parametrize("max_iters", [2.5, float("inf"), float("nan")])
    def test_non_integral_max_iters_raises(self, max_iters):
        # iters == 2.5 never holds: on 1D cosine V, P = 1, n = 32 the cap
        # did not fire and the solve ran 8 iterations to "stationary"
        with pytest.raises(ValueError, match="max_iters"):
            SolveOptions(max_iters=max_iters)

    @pytest.mark.parametrize("name", ["tol_gradmap", "step0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tolerance_or_step_raises(self, name, value):
        # NaN passed a `<= 0` check: on 1D cosine V, P = 1, n = 32,
        # tol_gradmap NaN or inf ended "stationary" after 0 iterations at
        # gradmap 0.169, and step0 NaN ended "line_search" after 0
        with pytest.raises(ValueError, match=name):
            SolveOptions(**{name: value})

    def test_integral_float_max_iters_caps(self):
        spec = make_spec(n=32, P=(1.0,), V_fn=lambda x: np.cos(2 * np.pi * x))
        res = minimize(DiscreteObjective(spec), "uniform",
                       SolveOptions(step0=32.0, max_iters=2.0))
        assert (res.iters, res.stop_reason) == (2, "iteration_cap")

    def test_nonconverged_flag_on_iteration_cap(self):
        spec = make_spec(n=32, V_fn=lambda x: 3 * np.cos(2 * np.pi * x))
        res = minimize(DiscreteObjective(spec), random_feasible_point(spec.grid, 9),
                       SolveOptions(max_iters=3))
        assert not res.converged
        assert res.iters == 3

    def test_stop_reason_iteration_cap(self):
        spec = make_spec(n=32, P=(1.0,), V_fn=lambda x: np.cos(2 * np.pi * x))
        res = minimize(DiscreteObjective(spec), "uniform",
                       SolveOptions(step0=32.0, max_iters=5))
        assert res.iters == 5
        assert res.stop_reason == "iteration_cap"
        assert not res.converged

    def test_converged_means_stationary(self, cosine_drift_64):
        # rounding in J used to stop this case short of tol_gradmap; the
        # Lagrangian Armijo test and the slope test take it to stationarity
        res, opts = cosine_drift_64
        assert res.stop_reason == "stationary"
        assert res.converged == (res.gradmap <= opts.tol_gradmap)

    def test_stop_reason_line_search(self, monkeypatch):
        # no trial step is allowed, so the iterate is frozen at the start:
        # u = 0 with its exact m-block, which is not stationary for this V
        monkeypatch.setattr(optimizer_module, "MIN_STEP", 2.0)
        spec = make_spec(n=32, P=(1.0,), V_fn=lambda x: np.cos(2 * np.pi * x))
        obj = DiscreteObjective(spec)
        res = minimize(obj, "uniform", SolveOptions(step0=1.0))
        assert res.iters == 0
        assert res.stop_reason == "line_search"
        assert not res.converged
        assert res.gradmap > 1e-3
        assert np.array_equal(res.u.values, np.zeros(32))
        k = obj.kinetic_density(obj.drifted_grad(np.zeros(32)))
        hbar, m = optimal_m(spec.alpha, k, spec.V.values, spec.coupling,
                            res.Hbar, res.m.values)
        assert np.max(np.abs(res.m.values - m)) <= 1e-14
        assert res.Hbar == pytest.approx(hbar, abs=1e-14)

    def test_hbar_matches_semi_analytic(self, cosine_drift_64):
        res, _ = cosine_drift_64
        assert abs(res.Hbar - HBAR_COSINE_P1) <= 2e-6

    def test_stencil_calls_per_iteration(self, monkeypatch):
        # one stencil per axis for P + Du at each line-search trial, shared
        # by k and the current, and one more per axis for the adjoint in the
        # u-gradient at the accepted trial; the m-block does none.  This
        # smooth case accepts its first trial in most iterations
        original = grid_module.central_diff_values
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("torusmfg") and \
                    getattr(mod, "central_diff_values", None) is original:
                monkeypatch.setattr(mod, "central_diff_values", counted)
        spec = make_spec(n=32, P=(1.0,), V_fn=lambda x: np.cos(2 * np.pi * x))
        res = minimize(DiscreteObjective(spec), "uniform",
                       SolveOptions(step0=32.0, max_iters=100000))
        assert res.iters >= 5
        setup = 2 * spec.dim  # P + Du and the u-gradient at the start point
        assert calls <= (2 * spec.dim + 1) * res.iters + setup

    def test_seeded_runs_bitwise_reproducible(self):
        spec = make_spec(n=24, V_fn=lambda x: np.cos(2 * np.pi * x))
        opts = SolveOptions(step0=24.0, max_iters=500)
        r1, r2 = (minimize(DiscreteObjective(spec),
                           random_feasible_point(spec.grid, 11), opts)
                  for _ in range(2))
        assert np.array_equal(r1.m.values, r2.m.values)
        assert np.array_equal(r1.u.values, r2.u.values)
        assert r1.objective == r2.objective


class TestMBlockWork:
    @staticmethod
    def count_work(monkeypatch):
        """Wrap `optimal_m`, `_node` and `nested_m`: m-blocks, `_node`
        calls inside them (one per joint Newton step) and hand-overs."""
        calls = {"blocks": 0, "nodes": 0, "handovers": 0}
        inside = [False]
        optimal, node = optimizer_module.optimal_m, variational._node
        nested = variational.nested_m

        def counted_optimal_m(*args):
            calls["blocks"] += 1
            inside[0] = True
            try:
                return optimal(*args)
            finally:
                inside[0] = False

        def counted_node(*args):
            calls["nodes"] += inside[0]
            return node(*args)

        def counted_nested(*args):
            calls["handovers"] += 1
            return nested(*args)

        monkeypatch.setattr(optimizer_module, "optimal_m", counted_optimal_m)
        monkeypatch.setattr(variational, "_node", counted_node)
        monkeypatch.setattr(variational, "nested_m", counted_nested)
        return calls

    def test_joint_newton_steps_per_m_block(self, monkeypatch):
        # a var1d-like solve: each joint Newton step of the m-block makes one
        # `_node` call.  The nested solve made about 14 psi' evaluations
        # per block here (3 Newton steps on H-bar, each a full nodewise
        # solve and a psi' at its root)
        calls = self.count_work(monkeypatch)
        spec = make_spec(n=96, P=(1.0,), V_fn=lambda x: np.cos(2 * np.pi * (x - 0.3)))
        res = minimize(DiscreteObjective(spec), "uniform", SolveOptions(step0=96.0))
        assert res.stop_reason == "stationary"
        assert calls["handovers"] == 0
        assert 0 < calls["nodes"] <= 5 * calls["blocks"]
        assert calls["nodes"] <= 50
        assert abs(res.Hbar - HBAR_COSINE_P1) <= 2e-6

    # the benchmark's seed-1 var1d problems: cosine V of amplitude 1 with
    # these phases, P = 1, alpha 1.5, gamma 2, quadratic G, step0 = n
    @pytest.mark.parametrize("n, shift", [(64, 0.33187239186810047),
                                          (96, 0.6118959736456587),
                                          (128, 0.5076326598924166)])
    def test_var1d_work_is_pinned(self, monkeypatch, n, shift):
        # the work of these solves, counted: a faster m-block must make its
        # steps cheaper, not fewer or more
        calls = self.count_work(monkeypatch)
        spec = make_spec(n=n, P=(1.0,),
                         V_fn=lambda x: np.cos(2 * np.pi * (x - shift)))
        res = minimize(DiscreteObjective(spec), "uniform",
                       SolveOptions(step0=float(n), max_iters=100000))
        assert res.stop_reason == "stationary"
        assert res.iters == 8
        assert calls == {"blocks": 9, "nodes": 36, "handovers": 0}


class TestIterationCounts:
    """The spectral u-metric keeps iteration counts flat under refinement."""

    @pytest.mark.parametrize("n", [64, 256])
    def test_1d_cosine_drift(self, n):
        spec = make_spec(n=n, P=(1.0,), V_fn=lambda x: np.cos(2 * np.pi * x))
        res = minimize(DiscreteObjective(spec), "uniform",
                       SolveOptions(step0=float(n), max_iters=100000))
        assert res.iters <= 150
        assert abs(res.Hbar - HBAR_COSINE_P1) <= 2e-6

    def test_2d_sin_cos_drift(self):
        n = 48
        spec = make_spec(
            n=n, dim=2, P=(1.0, 0.5),
            V_fn=lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        )
        res = minimize(DiscreteObjective(spec), "uniform",
                       SolveOptions(step0=float(n * n), max_iters=100000))
        assert res.iters <= 150
        assert res.Hbar_std <= 1e-7


class TestReducedSolver:
    """Steep V: the stiffness spans orders of magnitude across the nodes."""

    @pytest.mark.parametrize("n", [64, 128])
    def test_1d_cosine_amplitude_10(self, n):
        spec = make_spec(n=n, P=(1.0,), V_fn=lambda x: 10 * np.cos(2 * np.pi * x))
        res = minimize(DiscreteObjective(spec), "uniform",
                       SolveOptions(step0=float(n), max_iters=200))
        assert res.stop_reason == "stationary"
        assert res.iters <= 60
        if n == 128:
            assert abs(res.Hbar - HBAR_COSINE_A10_N128) <= 1e-8

    def test_2d_sin_cos_amplitude_5(self):
        n = 32
        spec = make_spec(
            n=n, dim=2, P=(1.0, 0.5),
            V_fn=lambda x, y: 5 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
        )
        res = minimize(DiscreteObjective(spec), "uniform",
                       SolveOptions(step0=float(n * n), max_iters=200))
        assert res.stop_reason == "stationary"
        assert res.iters <= 40


class TestMirrorSymmetry:
    """(u, m) minimises J_h for P exactly when (-u, m) does for -P.

    Negation is exact in floating point and D is linear, so P + Du only
    flips sign and the two descents are mirror images step by step.
    """

    @pytest.mark.parametrize("dim, n, P", [(1, 48, (1.0,)), (2, 16, (1.0, 0.5))])
    def test_reversed_drift_mirrors_u(self, dim, n, P):
        if dim == 1:
            V_fn = lambda x: np.cos(2 * np.pi * (x - 0.1))
        else:
            V_fn = lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        opts = SolveOptions(step0=float(n**dim), max_iters=100000)
        fwd, back = (
            minimize(DiscreteObjective(make_spec(n=n, dim=dim, P=drift, V_fn=V_fn)),
                     "uniform", opts)
            for drift in (P, tuple(-p for p in P))
        )
        assert fwd.iters == back.iters
        assert np.array_equal(fwd.m.values, back.m.values)
        assert np.array_equal(fwd.u.values, -back.u.values)
        assert fwd.Hbar == back.Hbar


class TestUniqueness:
    def test_two_inits_agree_steep_potential(self):
        # strictly convex coupling: the minimizer is unique, so descent from
        # different starts must land on the same (u, m)
        spec = make_spec(n=50, V_fn=lambda x: 10 * np.cos(2 * np.pi * (x - 0.25)))
        obj = DiscreteObjective(spec)
        opts = SolveOptions(step0=50.0, max_iters=400000, tol_gradmap=1e-10)
        r_uniform = minimize(obj, "uniform", opts)
        r_random = minimize(obj, random_feasible_point(spec.grid, 7), opts)
        assert np.max(np.abs(r_uniform.m.values - r_random.m.values)) <= 1e-5
        du = r_uniform.u.values - r_random.u.values
        assert np.max(np.abs(du - du.mean())) <= 1e-5

    def test_P0_solution_has_flat_u_from_random_init(self):
        spec = make_spec(n=40, V_fn=lambda x: np.cos(2 * np.pi * (x - 0.25)))
        res = minimize(
            DiscreteObjective(spec), random_feasible_point(spec.grid, 7),
            SolveOptions(step0=40.0, max_iters=200000, tol_gradmap=1e-10),
        )
        assert np.max(np.abs(central_diff_values(res.u.values, spec.grid.h, 0))) <= 1e-6


class TestRandomInit:
    def test_random_point_is_feasible_and_seeded(self):
        g = TorusGrid(2, 16)
        p1 = random_feasible_point(g, 7)
        p2 = random_feasible_point(g, 7)
        p3 = random_feasible_point(g, 8)
        assert p1.is_feasible(1e-12)
        assert np.array_equal(p1.m.values, p2.m.values)
        assert not np.array_equal(p1.m.values, p3.m.values)
