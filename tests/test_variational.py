import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from torusmfg import transform, variational
from torusmfg.grid import GridFunction, TorusGrid
from torusmfg.model import CouplingG, PotentialFamily, ProblemSpec
from torusmfg.optimizer import SolveOptions, minimize
from torusmfg.oracle import solve_critical, solve_P0
from torusmfg.transform import DualSpec, pipeline_alpha_lt_1
from torusmfg.variational import (
    DegenerateSolutionError,
    DiscreteObjective,
    FeasiblePoint,
    apriori_diagnostics,
    cold_hbar,
    diagnostics_record,
    estimate_Hbar,
    nested_m,
    optimal_m,
    project_feasible,
    project_simplex_values,
)

QUAD = CouplingG.quadratic()

# frozen high-precision quadrature of the continuum functional for the
# smooth pair u = 0.05 sin(2 pi x), m = 1 + 0.5 cos(2 pi (x - 0.3)) with
# P = 0.3, V = 0.7 cos(2 pi (x - 1/4)), alpha = 1.5, gamma = 2,
# G = m^2/2 + 0.2 m^3 (scipy.integrate.quad, abs err < 1e-14)
J_CONTINUUM = 0.8251874598854804


def make_spec(n=32, dim=1, alpha=1.5, gamma=2.0, P=None, V_fn=None, coupling=QUAD):
    g = TorusGrid(dim, n)
    if V_fn is None:
        V = g.zeros()
    else:
        V = g.from_callable(V_fn)
    if P is None:
        P = (0.0,) * dim
    return ProblemSpec(dim, n, alpha, gamma, P, V, coupling)


def uniform_point(grid):
    return FeasiblePoint(grid.zeros(), grid.constant(1.0))


def random_feasible(grid, seed, m_lo=0.5, m_hi=2.0, u_scale=0.3):
    rng = np.random.default_rng(seed)
    u = GridFunction(grid, u_scale * rng.normal(size=grid.shape))
    m = GridFunction(grid, rng.uniform(m_lo, m_hi, size=grid.shape))
    pt = project_feasible(u, m)
    assert pt.m.values.min() > 0.1  # stays interior for gradient checks
    return pt


class TestAssembleJh:
    def test_uniform_point_only_coupling_survives(self):
        spec = make_spec()
        obj = DiscreteObjective(spec)
        assert obj.value(uniform_point(spec.grid)) == pytest.approx(0.5)

    def test_drift_hand_value(self):
        spec = make_spec(dim=2, n=8, P=(1.0, 0.0))
        obj = DiscreteObjective(spec)
        # f_h = |P|^2/(gamma (alpha-1)) = 1, plus G(1) = 0.5
        assert obj.value(uniform_point(spec.grid)) == pytest.approx(1.5)

    def test_grid_mismatch_rejected(self):
        spec = make_spec(n=16)
        other = TorusGrid(1, 32)
        with pytest.raises(ValueError):
            DiscreteObjective(spec).value(uniform_point(other))

    def test_riemann_consistency_order_two_plus(self):
        coupling = CouplingG(((0.5, 2.0), (0.2, 3.0)))
        errs, ns = [], (16, 32, 64)
        for n in ns:
            g = TorusGrid(1, n)
            x = g.axis_coords()
            u = GridFunction(g, 0.05 * np.sin(2 * np.pi * x))
            m = GridFunction(g, 1.0 + 0.5 * np.cos(2 * np.pi * (x - 0.3)))
            spec = make_spec(
                n=n, P=(0.3,),
                V_fn=lambda x: 0.7 * np.cos(2 * np.pi * (x - 0.25)),
                coupling=coupling,
            )
            pt = FeasiblePoint(u, m)
            assert pt.is_feasible(1e-12)
            errs.append(abs(DiscreteObjective(spec).value(pt) - J_CONTINUUM))
        h = np.log([1.0 / n for n in ns])
        order = np.polyfit(h, np.log(errs), 1)[0]
        assert order >= 2.0

    def test_constant_shift_of_V_shifts_Jh_by_minus_c(self):
        spec = make_spec(n=24, V_fn=lambda x: np.cos(2 * np.pi * x))
        shifted = make_spec(n=24, V_fn=lambda x: np.cos(2 * np.pi * x) + 3.0)
        pt = random_feasible(spec.grid, 21)
        J0 = DiscreteObjective(spec).value(pt)
        J1 = DiscreteObjective(shifted).value(pt)
        assert J1 == pytest.approx(J0 - 3.0, abs=1e-12)

    def test_convexity_along_random_segments(self):
        spec = make_spec(n=20, P=(0.4,), V_fn=lambda x: np.sin(2 * np.pi * x))
        obj = DiscreteObjective(spec)
        rng = np.random.default_rng(22)
        for trial in range(20):
            a = random_feasible(spec.grid, 100 + trial)
            b = random_feasible(spec.grid, 200 + trial)
            lam = rng.uniform(0.1, 0.9)
            mid = FeasiblePoint(
                GridFunction(spec.grid, lam * a.u.values + (1 - lam) * b.u.values),
                GridFunction(spec.grid, lam * a.m.values + (1 - lam) * b.m.values),
            )
            assert obj.value(mid) <= (
                lam * obj.value(a) + (1 - lam) * obj.value(b) + 1e-10
            )

    def test_zero_u_never_worse_for_P0(self):
        spec = make_spec(n=24, V_fn=lambda x: np.cos(2 * np.pi * x))
        obj = DiscreteObjective(spec)
        for seed in range(5):
            pt = random_feasible(spec.grid, 300 + seed)
            zeroed = FeasiblePoint(spec.grid.zeros(), pt.m)
            assert obj.value(zeroed) <= obj.value(pt) + 1e-14


def value_at(obj, u, m):
    """J_h at the arrays (u, m), through w = P + Du."""
    return obj.value_arrays(obj.kinetic_density(obj.drifted_grad(u)), m,
                            obj.stiffness(m))


def estimate_at(pt, obj):
    """`estimate_Hbar` at pt, with k formed from the point's u."""
    return estimate_Hbar(pt, obj, obj.kinetic_density(obj.drifted_grad(pt.u.values)))


def grads(obj, u, m):
    """(u-partial, m-partial) of J_h at the arrays (u, m)."""
    w = obj.drifted_grad(u)
    return (obj.gradient_u_arrays(w, obj.stiffness(m)),
            obj.gradient_m_arrays(obj.kinetic_density(w), m))


class TestArrayMethodsTakeTrialData:
    """u enters J_h only through w = `drifted_grad(u)`: the array methods
    take w or k = `kinetic_density(w)`, with no u to recompute them from."""

    @pytest.mark.parametrize("name", ["kinetic_density", "value_arrays", "flux",
                                      "gradient_u_arrays", "gradient_m_arrays"])
    def test_no_u_and_no_default(self, name):
        params = inspect.signature(getattr(DiscreteObjective, name)).parameters
        assert "u" not in params
        assert all(p.default is inspect.Parameter.empty for p in params.values())


class TestGradJh:
    def test_uniform_point_gradient(self):
        spec = make_spec(n=16, V_fn=lambda x: np.cos(2 * np.pi * x))
        obj = DiscreteObjective(spec)
        pt = uniform_point(spec.grid)
        gu, gm = grads(obj, pt.u.values, pt.m.values)
        h = spec.grid.h
        assert np.all(gu == 0.0)
        assert np.allclose(gm, h * (-spec.V.values + 1.0), atol=1e-15)

    @pytest.mark.parametrize("alpha,gamma", [(1.5, 2.0), (2.0, 2.5), (2.0, 2.0)])
    def test_matches_finite_differences(self, alpha, gamma):
        spec = make_spec(
            n=24, alpha=alpha, gamma=gamma, P=(0.6,),
            V_fn=lambda x: np.sin(2 * np.pi * (x + 0.1)),
        )
        obj = DiscreteObjective(spec)
        rng = np.random.default_rng(31)
        for trial in range(5):
            pt = random_feasible(spec.grid, 400 + trial)
            gu, gm = grads(obj, pt.u.values, pt.m.values)
            du = rng.normal(size=spec.grid.shape)
            du -= du.mean()
            dm = rng.normal(size=spec.grid.shape)
            dm -= dm.mean()
            eps = 1e-6
            Jp = value_at(obj, pt.u.values + eps * du, pt.m.values + eps * dm)
            Jm = value_at(obj, pt.u.values - eps * du, pt.m.values - eps * dm)
            fd = (Jp - Jm) / (2 * eps)
            analytic = float(np.vdot(gu, du) + np.vdot(gm, dm))
            assert analytic == pytest.approx(fd, rel=1e-6)

    def test_translation_equivariance(self):
        spec = make_spec(n=20, P=(0.5,))
        obj = DiscreteObjective(spec)
        pt = random_feasible(spec.grid, 41)
        u, m = pt.u.values, pt.m.values
        gu, gm = grads(obj, u, m)
        shift = 7
        u2, m2 = np.roll(u, shift), np.roll(m, shift)
        gu2, gm2 = grads(obj, u2, m2)
        assert np.array_equal(np.roll(gu, shift), gu2)
        assert np.array_equal(np.roll(gm, shift), gm2)

    def test_u_gradient_invariant_under_V_shift(self):
        spec = make_spec(n=16, V_fn=lambda x: np.sin(2 * np.pi * x))
        shifted = make_spec(n=16, V_fn=lambda x: np.sin(2 * np.pi * x) + 2.0)
        pt = random_feasible(spec.grid, 42)
        gu0 = grads(DiscreteObjective(spec), pt.u.values, pt.m.values)[0]
        gu1 = grads(DiscreteObjective(shifted), pt.u.values, pt.m.values)[0]
        assert np.array_equal(gu0, gu1)


class TestProjection:
    def test_point_requires_shared_grid(self):
        g = TorusGrid(1, 8)
        other = TorusGrid(1, 16)
        with pytest.raises(ValueError):
            FeasiblePoint(g.zeros(), other.zeros())

    def test_feasible_input_unchanged(self):
        g = TorusGrid(1, 10)
        pt = random_feasible(g, 51)
        back = project_feasible(pt.u, pt.m)
        assert np.allclose(back.u.values, pt.u.values, atol=1e-15)
        assert np.allclose(back.m.values, pt.m.values, atol=1e-15)

    def test_constant_mass_rescale(self):
        g = TorusGrid(1, 10)
        pt = project_feasible(g.zeros(), g.constant(2.0))
        assert np.allclose(pt.m.values, 1.0, atol=1e-15)

    def test_mean_removal(self):
        g = TorusGrid(1, 10)
        pt = project_feasible(g.constant(5.0), g.constant(1.0))
        assert np.all(pt.u.values == 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_m(self, value):
        # a NaN m failed with "index -1 is out of bounds"
        g = TorusGrid(1, 10)
        m = np.ones(10)
        m[3] = value
        with pytest.raises(ValueError, match="non-finite m"):
            project_feasible(g.zeros(), GridFunction(g, m))

    def test_rejects_fields_on_two_grids(self):
        with pytest.raises(ValueError, match="one grid"):
            project_feasible(TorusGrid(1, 10).zeros(), TorusGrid(1, 12).constant(1.0))

    def test_simplex_total_is_the_node_count(self):
        # the unit-mass set h^d sum m = 1 is sum m = v.size, so the total is
        # read off v, not passed
        assert list(inspect.signature(project_simplex_values).parameters) == ["v"]
        rng = np.random.default_rng(54)
        for shape in [(7,), (64,), (8, 8), (13, 21)]:
            v = rng.normal(scale=3.0, size=shape)
            x = project_simplex_values(v)
            assert x.shape == shape and x.min() >= 0.0
            assert x.sum() == pytest.approx(v.size, rel=1e-13)

    def test_idempotent_and_nonexpansive(self):
        g = TorusGrid(2, 8)
        rng = np.random.default_rng(52)
        for _ in range(20):
            u1, m1 = rng.normal(size=(8, 8)), rng.normal(size=(8, 8)) + 1
            u2, m2 = rng.normal(size=(8, 8)), rng.normal(size=(8, 8)) + 1
            p1 = project_feasible(GridFunction(g, u1), GridFunction(g, m1))
            p2 = project_feasible(GridFunction(g, u2), GridFunction(g, m2))
            again = project_feasible(p1.u, p1.m)
            assert np.allclose(again.u.values, p1.u.values, atol=1e-13)
            assert np.allclose(again.m.values, p1.m.values, atol=1e-13)
            d_before = np.linalg.norm(u1 - u2) ** 2 + np.linalg.norm(m1 - m2) ** 2
            d_after = (
                np.linalg.norm(p1.u.values - p2.u.values) ** 2
                + np.linalg.norm(p1.m.values - p2.m.values) ** 2
            )
            assert d_after <= d_before + 1e-12

    def test_projected_mass_exact(self):
        g = TorusGrid(2, 16)
        rng = np.random.default_rng(53)
        pt = project_feasible(
            GridFunction(g, rng.normal(size=(16, 16))),
            GridFunction(g, rng.normal(size=(16, 16))),
        )
        assert pt.is_feasible(1e-12)
        assert pt.m.values.min() >= 0.0


class TestEstimateHbar:
    def test_closed_form_smooth_case(self):
        spec = make_spec(
            n=64, V_fn=lambda x: 0.5 * np.cos(2 * np.pi * (x - 0.25))
        )
        obj = DiscreteObjective(spec)
        pt = FeasiblePoint(
            spec.grid.zeros(), GridFunction(spec.grid, spec.V.values + 1.0)
        )
        mean, std = estimate_at(pt, obj)
        assert mean == pytest.approx(-1.0, abs=1e-6)
        assert std <= 1e-6

    def test_constant_fields_with_drift(self):
        spec = make_spec(dim=2, n=8, P=(1.0, 0.0))
        mean, std = estimate_at(uniform_point(spec.grid), DiscreteObjective(spec))
        assert mean == pytest.approx(-0.5, abs=1e-14)
        assert std == pytest.approx(0.0, abs=1e-14)

    def test_V_shift_moves_estimate_by_c(self):
        spec = make_spec(n=16, V_fn=lambda x: np.sin(2 * np.pi * x))
        shifted = make_spec(n=16, V_fn=lambda x: np.sin(2 * np.pi * x) + 2.5)
        pt = random_feasible(spec.grid, 61)
        m0, _ = estimate_at(pt, DiscreteObjective(spec))
        m1, _ = estimate_at(pt, DiscreteObjective(shifted))
        assert m1 == pytest.approx(m0 + 2.5, abs=1e-12)

    def test_empty_cutoff_set_raises(self):
        spec = make_spec(n=16)
        obj = DiscreteObjective(spec)
        pt = FeasiblePoint(spec.grid.zeros(), spec.grid.zeros())
        with pytest.raises(DegenerateSolutionError):
            estimate_at(pt, obj)


class TestKernelsDeriveTheirInputs:
    """The m-block forms its cell 1/N from the arrays, the root kernel works
    on m >= 0, the HJB Jacobian finds its stencil, and the H-bar estimate
    takes the k its caller formed."""

    @pytest.mark.parametrize("fn, names", [
        (variational.optimal_m, ["a", "k", "V", "coupling", "hbar0", "m0"]),
        (variational.nested_m, ["a", "k", "V", "coupling", "hbar0", "m0"]),
        (variational.mass_root, ["density", "hbar0"]),
        (variational.monotone_root, ["node", "m0"]),
        (transform._hjb_jacobian, ["slopes", "gamma", "h", "denom", "beta"]),
        (estimate_Hbar, ["pt", "obj", "k"]),
    ])
    def test_signatures(self, fn, names):
        params = inspect.signature(fn).parameters
        assert list(params) == names
        assert all(p.default is inspect.Parameter.empty for p in params.values())

    @pytest.mark.parametrize("dim, n", [(1, 64), (1, 96), (1, 4096), (2, 32),
                                        (2, 48), (2, 64), (2, 128)])
    def test_cell_is_h_to_the_d_bitwise(self, dim, n):
        # the benchmark's grid sizes, where 1/N replaced a passed h^d
        grid = TorusGrid(dim, n)
        assert 1.0 / np.ones(grid.shape).size == grid.h**dim


class TestAprioriDiagnostics:
    def test_all_zero_at_rest(self):
        spec = make_spec(n=16)
        d = apriori_diagnostics(uniform_point(spec.grid), DiscreteObjective(spec))
        assert d["congestion_energy_weighted"] == pytest.approx(0.0, abs=1e-14)
        assert d["coupling_balance"] == pytest.approx(0.0, abs=1e-14)
        assert d["second_order_proxy"] == pytest.approx(0.0, abs=1e-14)

    def test_drift_hand_value(self):
        spec = make_spec(dim=2, n=8, alpha=2.0, gamma=2.0, P=(1.0, 0.0))
        d = apriori_diagnostics(uniform_point(spec.grid), DiscreteObjective(spec))
        assert d["congestion_energy_weighted"] == pytest.approx(2.0, abs=1e-14)
        assert d["coupling_balance"] == pytest.approx(0.0, abs=1e-14)

    def test_nonnegativity_invariants(self):
        spec = make_spec(n=24, P=(0.7,), V_fn=lambda x: np.cos(2 * np.pi * x))
        obj = DiscreteObjective(spec)
        for seed in range(5):
            pt = random_feasible(spec.grid, 600 + seed)
            d = apriori_diagnostics(pt, obj)
            assert d["congestion_energy_weighted"] >= 0.0
            assert d["second_order_proxy"] >= 0.0

    def test_record_without_mass_above_the_cutoff(self):
        # m = 0 leaves no node for the H-bar estimate: NaN, not an error
        spec = make_spec(n=16, P=(0.5,), V_fn=lambda x: np.cos(2 * np.pi * x))
        pt = FeasiblePoint(spec.grid.zeros(), spec.grid.zeros())
        rec = diagnostics_record(pt, DiscreteObjective(spec))
        assert np.isnan(rec["Hbar_mean"]) and np.isnan(rec["Hbar_std"])
        assert rec["mass_error"] == 1.0
        assert np.isfinite(rec["Jh"])

    def test_record_schema(self):
        spec = make_spec(n=16, V_fn=lambda x: np.cos(2 * np.pi * x))
        rec = diagnostics_record(uniform_point(spec.grid), DiscreteObjective(spec))
        assert set(rec) == {
            "Jh", "Hbar_mean", "Hbar_std", "mass_error", "umean_error", "apriori",
        }
        assert rec["mass_error"] <= 1e-12 and rec["umean_error"] <= 1e-12


def cosine(x):
    return np.cos(2 * np.pi * x)


class TestDiagnosticsOnRequest:
    """No solve computes the a-priori integrals; `diagnostics_record` does."""

    SOLVES = {
        "minimize": (
            lambda spec: minimize(DiscreteObjective(spec), "uniform", SolveOptions(step0=16.0)),
            make_spec(n=16, P=(1.0,), V_fn=cosine)),
        "solve_P0": (solve_P0, make_spec(n=16, V_fn=lambda x: 2.0 * cosine(x))),
        "solve_critical": (solve_critical, make_spec(n=16, alpha=1.0, P=(0.7,), V_fn=cosine)),
        "pipeline_alpha_lt_1": (pipeline_alpha_lt_1, DualSpec(
            make_spec(n=12, dim=2, alpha=0.5, P=(0.0, 0.0),
                      V_fn=lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)),
            (1.0, 0.0))),
    }

    @pytest.mark.parametrize("name", list(SOLVES))
    def test_no_solve_computes_them(self, monkeypatch, name):
        original = variational.apriori_diagnostics

        def refused(*args, **kwargs):
            raise AssertionError("a solve computed the a-priori diagnostics")

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("torusmfg") and \
                    getattr(mod, "apriori_diagnostics", None) is original:
                monkeypatch.setattr(mod, "apriori_diagnostics", refused)
        solve, inp = self.SOLVES[name]
        solve(inp)

    @pytest.mark.parametrize("name", ["minimize", "solve_P0", "solve_critical"])
    def test_record_at_a_solve_result(self, name):
        solve, spec = self.SOLVES[name]
        res = solve(spec)
        obj = DiscreteObjective(spec)
        rec = diagnostics_record(res.point, obj)
        apriori = rec["apriori"]
        assert apriori == apriori_diagnostics(res.point, obj)
        if spec.alpha > 1.0:
            assert rec["Jh"] == res.objective
        else:
            assert np.isnan(rec["Jh"])
        if not res.u.values.any():
            # u = 0: the congestion integrand is |P|^gamma (m^-alpha + m^(1-alpha))
            mf = np.maximum(res.m.values, variational.M_FLOOR)
            hand = spec.P_norm**spec.gamma * (mf**-spec.alpha + mf**(1.0 - spec.alpha))
            assert apriori["congestion_energy_weighted"] == pytest.approx(
                spec.grid.h * hand.sum(), rel=1e-13, abs=1e-300)


def m_block_case(dim, gamma, terms, amplitude, seed, zeros):
    """(spec, k): cosine V (sin cos in 2D) and k = |P + Du|^gamma / gamma of
    a random u; with zeros, about 30% of the nodes get k = 0 exactly.  The
    m-block reads no exponent off the spec, so its alpha is a placeholder."""
    rng = np.random.default_rng(seed)
    n = 48 if dim == 1 else 10
    grid = TorusGrid(dim, n)
    if dim == 1:
        pot = PotentialFamily("cosine-shift", {"amplitude": amplitude, "shift": rng.random()})
    else:
        pot = PotentialFamily("sine-cosine-product",
                              {"amplitude": amplitude, "shift_x": rng.random()})
    spec = ProblemSpec(dim, n, 1.5, gamma, tuple(rng.uniform(-1.5, 1.5, dim)),
                       pot.sample(grid), CouplingG(terms))
    u = rng.normal(scale=10.0 ** rng.uniform(-2.0, 0.0), size=grid.shape)
    obj = DiscreteObjective(spec)
    k = obj.kinetic_density(obj.drifted_grad(u))
    if zeros:
        k[rng.random(grid.shape) < 0.3] = 0.0
    return spec, k


def node_data(a, spec, k):
    """The m-block's node-equation data (a, k, V, coupling) on spec."""
    return a, k, spec.V.values, spec.coupling


def cold_start(spec, k):
    """(hbar0, m0) of the minimiser's first m-block."""
    return cold_hbar(k, spec.V.values, spec.coupling), np.ones(spec.grid.shape)


def count_safeguard(monkeypatch):
    """Wrap `nested_m`; the list collects one entry per hand-over."""
    calls = []

    def counted(*args):
        calls.append(1)
        return nested_m(*args)

    monkeypatch.setattr(variational, "nested_m", counted)
    return calls


class TestOptimalM:
    """The joint Newton m-block against the bracketed nested solve, on
    blocks with k > 0 at every node: a block with k = 0 at some node is
    `nested_m`'s from the start.

    The exponent a is drawn apart from the problem: the values of alpha
    the minimiser meets, and a in (0, 1) and above 1, the exponents of the
    dual bound's and the 1D constant-current solve's node equations.  Over
    3,000 random draws of cases like these, split evenly among the three,
    the two agreed to 1.2e-14 in H-bar (relative to max(1, |H-bar|)) and to
    3.0e-14 in m (relative to max m), the mass of m was 1 to 6.2e-15, and
    the safeguard ran in 6-13% of each third.  The nested solve stops its
    H-bar iteration up to one step of 1e-14 + 8.9e-16 |H-bar| short, and
    where g' is tiny (theta near 1, large m) the mass is steep in H-bar; the
    bounds below, the mass held to the m bound, leave a margin of at least 8.
    """

    HBAR_TOL, M_TOL = 1e-13, 1e-12

    def assert_agree(self, got, want):
        (h1, m1), (h2, m2) = got, want
        assert abs(h1 - h2) <= self.HBAR_TOL * max(1.0, abs(h2))
        assert np.max(np.abs(m1 - m2)) <= self.M_TOL * np.max(m2)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        dim=st.sampled_from([1, 2]),
        a=st.one_of(st.sampled_from([1.0, 1.001, 1.5, 1.9, "gamma"]),
                    st.floats(0.1, 0.99), st.floats(1.01, 3.0)),
        gamma=st.sampled_from([2.0, 3.0]),
        # theta = 2 exactly and the quadratic (0.5, 2) are the coupling of
        # every benchmark problem, and the closed forms of `g`/`g_prime`
        terms=st.one_of(
            st.just([(0.5, 2.0)]),
            st.lists(st.tuples(st.floats(0.1, 2.0),
                               st.one_of(st.just(2.0), st.floats(1.2, 4.0))),
                     min_size=1, max_size=2)),
        amplitude=st.floats(0.1, 20.0),
        scale=st.floats(0.5, 2.0),
        shift=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_bracketed_solve(self, dim, a, gamma, terms, amplitude,
                                         scale, shift, seed):
        a = gamma if a == "gamma" else a
        spec, k = m_block_case(dim, gamma, tuple(terms), amplitude, seed, False)
        data = node_data(a, spec, k)
        hbar, m = nested_m(*data, *cold_start(spec, k))
        hbar0, m0 = hbar + shift, scale * m
        got = optimal_m(*data, hbar0, m0)
        self.assert_agree(got, nested_m(*data, hbar0, m0))
        assert abs(spec.grid.h**dim * got[1].sum() - 1.0) <= self.M_TOL
        assert got[1].min() >= 0.0

    def steep_case(self):
        # the uniform start of a steep 1D problem: at m = 1, psi' < 0 on the
        # nodes with V > hbar0 + g(1)
        spec, _ = m_block_case(1, 2.0, ((0.5, 2.0),), 10.0, 3, False)
        k = np.full(spec.grid.shape, spec.P_norm**2 / 2.0)
        return spec, k

    def test_psi_prime_not_positive_hands_over(self, monkeypatch):
        spec, k = self.steep_case()
        hbar0, m0 = cold_start(spec, k)
        a = 1.5
        data = node_data(a, spec, k)
        s = spec.coupling.g(m0) + hbar0 - spec.V.values
        assert np.any(a * s + spec.coupling.g_prime(m0) <= 0.0)  # psi'(1)
        calls = count_safeguard(monkeypatch)
        hbar, m = optimal_m(*data, hbar0, m0)
        assert calls == [1]
        # handed over at the start itself, so the answers are the same
        want = nested_m(*data, hbar0, m0)
        assert hbar == want[0] and np.array_equal(m, want[1])
        # and the joint iteration from a warm start agrees without it
        self.assert_agree(optimal_m(*data, hbar + 0.5, 1.5 * m), (hbar, m))
        assert calls == [1]

    @pytest.mark.parametrize("shift", [0.5, 1.0, 2.0, 4.0])
    def test_hbar_step_limit_keeps_the_block_joint(self, monkeypatch, shift):
        # a = 2 on steep V, started above the root with twice its m: the
        # full Newton step down in H-bar would leave g(m) + H-bar - V < 0
        # and psi' < 0 on some nodes; the limited step keeps the block
        # joint, with no hand-over
        spec, k = m_block_case(1, 2.0, ((0.5, 2.0),), 10.0, 5, False)
        data = node_data(2.0, spec, k)
        hbar, m = nested_m(*data, *cold_start(spec, k))
        calls = count_safeguard(monkeypatch)
        got = optimal_m(*data, hbar + shift, 2.0 * m)
        assert calls == []
        self.assert_agree(got, (hbar, m))

    def test_step_cap_hands_over(self, monkeypatch):
        # k > 0 at every node: the joint loop stops without help, and with
        # a cap of one step it hands over at the cap
        spec, k = m_block_case(2, 2.0, ((0.5, 2.0), (1.0, 3.0)), 2.0, 5, False)
        assert (k > 0.0).all()
        data = node_data(1.5, spec, k)
        hbar0, m0 = cold_start(spec, k)
        calls = count_safeguard(monkeypatch)
        want = optimal_m(*data, hbar0, m0)
        assert calls == []
        monkeypatch.setattr(variational, "_JOINT_STEPS", 1)
        got = optimal_m(*data, hbar0, m0)
        assert calls == [1]
        self.assert_agree(got, want)

    @pytest.mark.parametrize("fault", ["slope", "step"])
    def test_bad_first_step_hands_over(self, monkeypatch, fault):
        # the first `_node` call of the joint loop returns m^a = 0, so the
        # mass slope is 0, or psi = inf at one node, as an overflow would, so
        # the step is not finite: the block goes to `nested_m` from its start
        spec, k = m_block_case(1, 2.0, ((0.5, 2.0),), 1.0, 4, False)
        data = node_data(1.5, spec, k)
        hbar0, m0 = cold_start(spec, k)
        node, first = variational._node, [True]

        def faulty(*args):
            psi, dpsi, xa, s, dg = node(*args)
            if first[0]:
                first[0] = False
                if fault == "slope":
                    xa = np.zeros_like(xa)
                else:
                    psi = psi.copy()
                    psi[3] = np.inf
            return psi, dpsi, xa, s, dg

        calls = count_safeguard(monkeypatch)
        monkeypatch.setattr(variational, "_node", faulty)
        hbar, m = optimal_m(*data, hbar0, m0)
        assert calls == [1]
        want = nested_m(*data, hbar0, m0)
        assert hbar == want[0] and np.array_equal(m, want[1])

    @pytest.mark.parametrize("kin", ["mixed", "zero"])
    def test_a_zero_k_node_makes_the_block_nested_ms(self, monkeypatch, kin):
        # mixed k, and k = 0 everywhere with hbar0 above max V, where every
        # node is vacuum and the mass has slope 0 in H-bar: one `nested_m`
        # call from the caller's (hbar0, m0), whose answer comes back as is
        spec, k = m_block_case(1, 2.0, ((0.5, 2.0),), 3.0, 7, kin == "mixed")
        if kin == "zero":
            k = np.zeros_like(k)
        pos = k > 0.0
        assert not pos.all() and (pos.any() == (kin == "mixed"))
        data = node_data(1.5, spec, k)
        hbar, m = nested_m(*data, *cold_start(spec, k))
        hbar0, m0 = (hbar + 0.5, 1.5 * m) if kin == "mixed" else \
            (float(spec.V.values.max()) + 5.0, m)
        m0_before = m0.copy()
        seen = []

        def recorded(*args):
            seen.append((args, nested_m(*args)))
            return seen[-1][1]

        monkeypatch.setattr(variational, "nested_m", recorded)
        got = optimal_m(*data, hbar0, m0)
        assert len(seen) == 1
        args, answer = seen[0]
        assert args[:4] == data and args[4] == hbar0 and args[5] is m0
        assert np.array_equal(m0, m0_before)
        assert got[0] == answer[0] and got[1] is answer[1]
        self.assert_agree(got, (hbar, m))


class TestCouplingClosedForms:
    """`CouplingG.g` and `g_prime`, whose unchecked forms `_g` and
    `_g_prime` `_node` calls once each: a one-term theta = 2 coupling takes
    closed forms, equal bit for bit to the sum over terms."""

    @staticmethod
    def term_sums(terms, z, z_floor):
        g = sum(c * t * z ** (t - 1.0) for c, t in terms)
        gp = np.zeros_like(z)
        for c, t in terms:
            zz = np.maximum(z, z_floor) if t < 2.0 else z
            gp = gp + c * t * (t - 1.0) * zz ** (t - 2.0)
        return g, gp

    @pytest.mark.parametrize("terms", [((0.7, 1.5),), ((0.5, 2.0),), ((1.3, 3.0),),
                                       ((0.5, 2.0), (1.0, 3.0)),
                                       ((0.4, 1.2), (0.9, 2.5))])
    @pytest.mark.parametrize("z_floor", [1e-300, 1e-3])
    def test_equal_the_sum_over_terms(self, terms, z_floor):
        coupling = CouplingG(terms)
        z = np.concatenate([[0.0, 1e-310, 1e-300, 1e-4, 1e-3],
                            np.random.default_rng(3).uniform(0.0, 5.0, 40)])
        g, gp = self.term_sums(terms, z, z_floor)
        assert np.array_equal(coupling.g(z), g)
        got = coupling.g_prime(z, z_floor=z_floor)
        assert got.shape == z.shape and np.array_equal(got, gp)
        assert coupling.g(1.5) == self.term_sums(terms, np.float64(1.5), 0.0)[0]

    def test_floor_applies_below_theta_2(self):
        # g' of c z^1.5 blows up at 0; the floor bounds it
        coupling = CouplingG(((1.0, 1.5),))
        gp = coupling.g_prime(np.array([0.0, 1e-8]), z_floor=1e-4)
        assert np.array_equal(gp, np.full(2, 0.75 * 1e-4 ** -0.5))

    @pytest.mark.parametrize("terms", [((0.5, 2.0),), ((1.3, 3.0),),
                                       ((0.5, 2.0), (1.0, 3.0))])
    def test_negative_argument_raises(self, terms):
        z = np.array([1.0, -1e-12])
        for f in (CouplingG(terms).g, CouplingG(terms).g_prime):
            with pytest.raises(ValueError, match="negative"):
                f(z)

    def test_negative_m0_raises_through_optimal_m(self):
        # k > 0 at every node, so the joint loop evaluates g at m0
        spec, k = m_block_case(1, 2.0, ((0.5, 2.0),), 1.0, 4, False)
        hbar0, m0 = cold_start(spec, k)
        m0[0] = -0.5
        with pytest.raises(ValueError, match="negative"):
            optimal_m(*node_data(1.5, spec, k), hbar0, m0)


def bisection_m_block(a, k, V, coupling, cell):
    """(Hbar, m) by nodewise bisection inside brentq on the mass
    cell sum m = 1, with the cell h^d passed in.

    Each node bisects phi(m) = g(m) + Hbar - V - k/m^a, which increases in
    m; at k = 0 a node with phi(0+) >= 0 bisects down to 0.
    """
    g = coupling.g

    def density(hbar):
        def phi(m):
            return g(m) + hbar - V - k / m**a

        lo, hi = np.zeros_like(V), np.ones_like(V)
        while np.any(phi(hi) < 0.0):
            hi = np.where(phi(hi) < 0.0, 2.0 * hi, hi)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            below = phi(mid) < 0.0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    span = float(np.max(np.abs(V))) + float(np.max(k)) + float(g(1.0)) + 1.0
    hbar = brentq(lambda h: cell * density(h).sum() - 1.0, -span, span,
                  xtol=1e-14, rtol=8.9e-16)
    return hbar, density(hbar)


class TestNestedM:
    """The nested block on whole arrays (k > 0 at every node or at none)
    and on masked ones (mixed k), against bisection, at the exponents
    alpha = 1 and 1.5 of the oracles and the minimiser, and at a = 0, 0.5
    and 2.5, exponents that no ProblemSpec of those paths has.  At a = 0
    every node solves the k = 0 equation at the potential V + k, on whole
    arrays for any k; it agreed with bisection to 8.9e-15 in H-bar and
    1.1e-15 in m over these cases."""

    @pytest.mark.parametrize("terms", [((0.5, 2.0),), ((0.5, 2.0), (1.0, 3.0))])
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("kin_pattern", ["positive", "zero", "mixed"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_bisection(self, dim, kin_pattern, a, terms):
        spec, k = m_block_case(dim, 2.0, terms, 5.0, 11, kin_pattern == "mixed")
        if kin_pattern == "zero":
            k = np.zeros_like(k)
        pos = k > 0.0
        assert {"positive": pos.all(), "zero": not pos.any(),
                "mixed": pos.any() and not pos.all()}[kin_pattern]
        data = node_data(a, spec, k)
        hbar, m = nested_m(*data, *cold_start(spec, k))
        want_hbar, want_m = bisection_m_block(*data, spec.grid.h**spec.dim)
        tol = 1e-13 if a == 0.0 else 1e-12
        assert hbar == pytest.approx(want_hbar, abs=tol)
        assert np.max(np.abs(m - want_m)) <= tol * np.max(want_m)

    def test_exponent_0_block_is_one_nested_call_and_no_node_call(
            self, monkeypatch, count_calls):
        # k > 0 at every node would start the joint iteration at a > 0; at
        # a = 0 `optimal_m` hands the block to `nested_m` at once, whose
        # nodes take the vacuum density, with no psi
        spec, k = m_block_case(1, 2.0, ((0.5, 2.0),), 10.0, 3, False)
        assert (k > 0.0).all()
        data = node_data(0.0, spec, k)
        node = count_calls(variational._node)
        calls = count_safeguard(monkeypatch)
        got = optimal_m(*data, *cold_start(spec, k))
        assert calls == [1] and node.calls == 0
        want = bisection_m_block(*data, spec.grid.h**spec.dim)
        assert got[0] == pytest.approx(want[0], rel=1e-13, abs=1e-13)
        assert np.max(np.abs(got[1] - want[1])) <= 1e-13 * np.max(want[1])

    @pytest.mark.parametrize("terms", [((0.5, 2.0),), ((0.5, 2.0), (1.0, 3.0))])
    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_exponent_0_block_is_the_k_0_block_at_V_plus_k(self, dim, mixed, terms):
        # the a = 0 node equation g(m) + Hbar - (V + k) = 0 is the k = 0
        # equation at the potential V + k, at any exponent, bit for bit
        spec, k = m_block_case(dim, 2.0, terms, 5.0, 11, mixed)
        assert (k > 0.0).any() and (k > 0.0).all() != mixed
        _, _, V, coupling = node_data(0.0, spec, k)
        hbar0, m0 = cold_start(spec, k)
        got = [f(0.0, k, V, coupling, hbar0, m0) for f in (nested_m, optimal_m)]
        for a in (0.0, 1.5):
            want_hbar, want_m = nested_m(a, np.zeros_like(k), V + k, coupling, hbar0, m0)
            for hbar, m in got:
                assert hbar == want_hbar
                assert np.array_equal(m, want_m)

    def test_general_alpha_evaluates_g_once_per_node_step(self, monkeypatch):
        # each node Newton step evaluates psi and psi' in one `_node` call,
        # so g and g' run once each per step, and once more at the root for
        # dm/dHbar; psi and psi' written apart took two g per step.  `_node`
        # calls the unchecked `_g` and `_g_prime`, so those are counted
        spec, k = m_block_case(2, 2.0, ((0.5, 2.0), (1.0, 3.0)), 5.0, 11, False)
        assert (k > 0.0).all()
        data = node_data(1.7, spec, k)
        start = cold_start(spec, k)
        calls = {"_g": 0, "_g_prime": 0}
        for name in calls:
            def counted(self, *args, _name=name, _fn=getattr(CouplingG, name), **kw):
                calls[_name] += 1
                return _fn(self, *args, **kw)

            monkeypatch.setattr(CouplingG, name, counted)
        hbar, m = nested_m(*data, *start)
        monkeypatch.undo()
        assert calls["_g"] > 0
        assert calls["_g"] == calls["_g_prime"]
        want_hbar, want_m = bisection_m_block(*data, spec.grid.h**spec.dim)
        assert hbar == pytest.approx(want_hbar, abs=1e-12)
        assert np.max(np.abs(m - want_m)) <= 1e-12 * np.max(want_m)

    @pytest.mark.parametrize("c", [0.05, 0.5, 3.0])
    def test_alpha_1_quadratic_fast_branch_matches_the_hypot_form(
            self, monkeypatch, c):
        # inside the range where b b + r r neither overflows nor underflows,
        # s = sqrt(b b + r r) with no np.hypot; m and dm/dHbar agree with
        # the hypot two-quotient form to 4 eps relative (2.5 and 3.6 eps at
        # most over 2.4 million such draws)
        rng = np.random.default_rng(17)
        n = 4000
        hbar = float(rng.uniform(-10.0, 10.0))
        values = rng.uniform(-1e6, 1e6, n) * 10.0 ** rng.uniform(-6.0, 0.0, n)
        values[:50] = hbar  # b = 0
        k = 10.0 ** rng.uniform(-12.0, 3.0, n)
        b = hbar - values
        assert (b == 0.0).any() and np.abs(b).max() <= 1e6 + 10.0
        density = variational._node_density(1.0, k, values, CouplingG(((c, 2.0),)),
                                            np.ones(n))

        def no_hypot(*args):
            raise AssertionError("np.hypot called inside the fast range")

        monkeypatch.setattr(variational.np, "hypot", no_hypot)
        m, dm = density(hbar)
        monkeypatch.undo()
        kappa = 2.0 * c
        s = np.hypot(b, 2.0 * np.sqrt(kappa * k))
        big = s + np.abs(b)
        want = np.where(b >= 0.0, 2.0 * k / big, big / (2.0 * kappa))
        eps = np.finfo(float).eps
        assert np.max(np.abs(m - want) / want) <= 4.0 * eps
        assert np.max(np.abs(dm + want / s) / (want / s)) <= 4.0 * eps

    @pytest.mark.parametrize("k_end", [1e-310, 6e307])
    def test_alpha_1_quadratic_takes_hypot_where_r_leaves_the_range(self, k_end):
        # one node, with b = 0, whose r = 2 sqrt(kappa k) lies below 2^-500
        # or above 2^500, where r r would lose digits or overflow: the whole
        # block takes np.hypot, bit for bit the two-quotient form
        values = np.array([-3.0, -1.0, 0.5, 0.0, 1.5, 4.0])
        k = np.array([1e-6, 0.5, k_end, 2.0, 1e3, 7.0])
        m, dm = variational._node_density(1.0, k, values, QUAD, np.ones(6))(0.5)
        b = 0.5 - values
        s = np.hypot(b, 2.0 * np.sqrt(k))
        big = s + np.abs(b)
        want = np.where(b >= 0.0, 2.0 * k / big, big / 2.0)
        assert np.array_equal(m, want)
        assert np.array_equal(dm, -want / s)

    @pytest.mark.parametrize("hbar", [0.0, 1.5, -2.0])
    def test_alpha_1_quadratic_root_is_bitwise_the_two_quotient_form(self, hbar):
        # the positive root of kappa m^2 + (Hbar - V) m = k, g(m) = kappa m,
        # against np.where over both of its quotients
        terms = ((0.5, 2.0),)
        values = np.array([-1e200, -7e199, -3.0, -1.0, -1e-300, 0.0, hbar, 0.5,
                           1.5, 2.0, 4.0, 1e-12, 3e199, 1e200, -2.0, 1.5])
        k = np.random.default_rng(5).uniform(1e-6, 10.0, values.size)
        b = hbar - values
        assert (b < 0.0).any() and (b == 0.0).any() and (b > 0.0).any()
        m, dm = variational._node_density(1.0, k, values, CouplingG(terms),
                                          np.ones(values.size))(hbar)
        kappa = 2.0 * terms[0][0]
        s = np.hypot(b, 2.0 * np.sqrt(kappa * k))
        big = s + np.abs(b)
        want = np.where(b >= 0.0, 2.0 * k / big, big / (2.0 * kappa))
        assert np.array_equal(m, want)
        assert np.array_equal(dm, -want / s)
