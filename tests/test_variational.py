import numpy as np
import pytest
from scipy.integrate import quad

from torusmfg.grid import GridFunction, TorusGrid
from torusmfg.model import CouplingG, PotentialFamily, ProblemSpec
from torusmfg.variational import (
    DegenerateSolutionError,
    DiscreteObjective,
    FeasiblePoint,
    apriori_diagnostics,
    diagnostics_record,
    estimate_Hbar,
    project_feasible,
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


class TestGradJh:
    def test_uniform_point_gradient(self):
        spec = make_spec(n=16, V_fn=lambda x: np.cos(2 * np.pi * x))
        obj = DiscreteObjective(spec)
        gu, gm = obj.gradient(uniform_point(spec.grid))
        h = spec.grid.h
        assert np.all(gu.values == 0.0)
        assert np.allclose(gm.values, h * (-spec.V.values + 1.0), atol=1e-15)

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
            gu, gm = obj.gradient_arrays(pt.u.values, pt.m.values)
            du = rng.normal(size=spec.grid.shape)
            du -= du.mean()
            dm = rng.normal(size=spec.grid.shape)
            dm -= dm.mean()
            eps = 1e-6
            Jp = obj.value_arrays(pt.u.values + eps * du, pt.m.values + eps * dm)
            Jm = obj.value_arrays(pt.u.values - eps * du, pt.m.values - eps * dm)
            fd = (Jp - Jm) / (2 * eps)
            analytic = float(np.vdot(gu, du) + np.vdot(gm, dm))
            assert analytic == pytest.approx(fd, rel=1e-6)

    def test_translation_equivariance(self):
        spec = make_spec(n=20, P=(0.5,))
        obj = DiscreteObjective(spec)
        pt = random_feasible(spec.grid, 41)
        gu, gm = obj.gradient_arrays(pt.u.values, pt.m.values)
        shift = 7
        gu2, gm2 = obj.gradient_arrays(
            np.roll(pt.u.values, shift), np.roll(pt.m.values, shift)
        )
        assert np.array_equal(np.roll(gu, shift), gu2)
        assert np.array_equal(np.roll(gm, shift), gm2)

    def test_u_gradient_invariant_under_V_shift(self):
        spec = make_spec(n=16, V_fn=lambda x: np.sin(2 * np.pi * x))
        shifted = make_spec(n=16, V_fn=lambda x: np.sin(2 * np.pi * x) + 2.0)
        pt = random_feasible(spec.grid, 42)
        gu0, _ = DiscreteObjective(spec).gradient_arrays(pt.u.values, pt.m.values)
        gu1, _ = DiscreteObjective(shifted).gradient_arrays(pt.u.values, pt.m.values)
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
        mean, std = estimate_Hbar(pt, obj)
        assert mean == pytest.approx(-1.0, abs=1e-6)
        assert std <= 1e-6

    def test_constant_fields_with_drift(self):
        spec = make_spec(dim=2, n=8, P=(1.0, 0.0))
        mean, std = estimate_Hbar(uniform_point(spec.grid), DiscreteObjective(spec))
        assert mean == pytest.approx(-0.5, abs=1e-14)
        assert std == pytest.approx(0.0, abs=1e-14)

    def test_V_shift_moves_estimate_by_c(self):
        spec = make_spec(n=16, V_fn=lambda x: np.sin(2 * np.pi * x))
        shifted = make_spec(n=16, V_fn=lambda x: np.sin(2 * np.pi * x) + 2.5)
        pt = random_feasible(spec.grid, 61)
        m0, _ = estimate_Hbar(pt, DiscreteObjective(spec))
        m1, _ = estimate_Hbar(pt, DiscreteObjective(shifted))
        assert m1 == pytest.approx(m0 + 2.5, abs=1e-12)

    def test_empty_cutoff_set_raises(self):
        spec = make_spec(n=16)
        obj = DiscreteObjective(spec)
        pt = FeasiblePoint(spec.grid.zeros(), spec.grid.constant(1.0))
        with pytest.raises(DegenerateSolutionError):
            estimate_Hbar(pt, obj, mass_cutoff=10.0)


class TestAprioriDiagnostics:
    def test_all_zero_at_rest(self):
        spec = make_spec(n=16)
        d = apriori_diagnostics(uniform_point(spec.grid), DiscreteObjective(spec))
        assert d.congestion_energy_weighted == pytest.approx(0.0, abs=1e-14)
        assert d.coupling_balance == pytest.approx(0.0, abs=1e-14)
        assert d.second_order_proxy == pytest.approx(0.0, abs=1e-14)

    def test_drift_hand_value(self):
        spec = make_spec(dim=2, n=8, alpha=2.0, gamma=2.0, P=(1.0, 0.0))
        d = apriori_diagnostics(uniform_point(spec.grid), DiscreteObjective(spec))
        assert d.congestion_energy_weighted == pytest.approx(2.0, abs=1e-14)
        assert d.coupling_balance == pytest.approx(0.0, abs=1e-14)

    def test_nonnegativity_invariants(self):
        spec = make_spec(n=24, P=(0.7,), V_fn=lambda x: np.cos(2 * np.pi * x))
        obj = DiscreteObjective(spec)
        for seed in range(5):
            pt = random_feasible(spec.grid, 600 + seed)
            d = apriori_diagnostics(pt, obj)
            assert d.congestion_energy_weighted >= 0.0
            assert d.second_order_proxy >= 0.0

    def test_record_schema(self):
        spec = make_spec(n=16, V_fn=lambda x: np.cos(2 * np.pi * x))
        rec = diagnostics_record(uniform_point(spec.grid), DiscreteObjective(spec))
        assert set(rec) == {
            "Jh", "Hbar_mean", "Hbar_std", "mass_error", "umean_error", "apriori",
        }
        assert rec["mass_error"] <= 1e-12 and rec["umean_error"] <= 1e-12
