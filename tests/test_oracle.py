import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from torusmfg.grid import GridFunction, TorusGrid, integrate_values
from torusmfg.model import BracketError, CouplingG, PotentialFamily, ProblemSpec
from torusmfg import grid as grid_module, model, oracle, variational
from torusmfg.optimizer import SolveOptions, minimize
from torusmfg.oracle import (
    classical_existence_check,
    continuum_Hbar_P0,
    solve_critical,
    solve_P0,
)
from torusmfg.variational import (
    DiscreteObjective,
    FeasiblePoint,
    cold_hbar,
    estimate_Hbar,
    optimal_m,
)

QUAD = CouplingG.quadratic()


def make_spec(n=64, dim=1, alpha=1.5, gamma=2.0, P=None, V_fn=None, coupling=QUAD):
    g = TorusGrid(dim, n)
    V = g.zeros() if V_fn is None else g.from_callable(V_fn)
    if P is None:
        P = (0.0,) * dim
    return ProblemSpec(dim, n, alpha, gamma, P, V, coupling)


class TestSolveP0:
    def test_smooth_case_closed_form(self):
        spec = make_spec(n=200, V_fn=lambda x: 0.5 * np.cos(2 * np.pi * (x - 0.25)))
        res = solve_P0(spec)
        assert np.allclose(res.m.values, spec.V.values + 1.0, atol=1e-10)
        assert res.Hbar == pytest.approx(-1.0, abs=1e-10)
        assert np.all(res.u.values == 0.0)
        assert res.stop_reason == "stationary"

    def test_steep_case_mass_and_vanishing_region(self):
        spec = make_spec(n=200, V_fn=lambda x: 10 * np.cos(2 * np.pi * (x - 0.25)))
        res = solve_P0(spec)
        assert abs(integrate_values(res.m.values, res.m.grid.h) - 1.0) <= 1e-12
        assert np.any(res.m.values == 0.0)
        expected = np.maximum(spec.V.values - res.Hbar, 0.0)
        assert np.allclose(res.m.values, expected, atol=1e-12)

    def test_flat_potential_gives_uniform_mass(self):
        for coupling in (QUAD, CouplingG(((1.0, 3.0),)), CouplingG(((0.5, 2.0), (1.0, 3.0)))):
            spec = make_spec(n=32, coupling=coupling)
            res = solve_P0(spec)
            assert np.allclose(res.m.values, 1.0, atol=1e-10)
            assert res.Hbar == pytest.approx(-float(coupling.g(1.0)), abs=1e-9)

    def test_requires_zero_drift(self):
        spec = make_spec(n=16, P=(1.0,))
        with pytest.raises(ValueError):
            solve_P0(spec)

    def test_oracle_mass_invariant(self):
        rng = np.random.default_rng(0)
        for seed in range(4):
            g = TorusGrid(1, 48)
            vals = rng.normal(scale=2.0, size=48)
            vals = np.convolve(np.tile(vals, 3), np.ones(5) / 5, "same")[48:96]
            spec = ProblemSpec(1, 48, 1.5, 2.0, (0.0,),
                               GridFunction(g, vals), QUAD)
            res = solve_P0(spec)
            assert abs(integrate_values(res.m.values, res.m.grid.h) - 1.0) <= 1e-10

    def test_monotone_dependence_on_potential(self):
        spec = make_spec(n=64, V_fn=lambda x: np.sin(2 * np.pi * x))
        res = solve_P0(spec)
        bumped_vals = spec.V.values.copy()
        region = slice(10, 20)
        bumped_vals[region] += 0.5
        spec2 = ProblemSpec(1, 64, 1.5, 2.0, (0.0,),
                            GridFunction(spec.grid, bumped_vals), QUAD)
        res2 = solve_P0(spec2)
        assert np.all(res2.m.values[region] >= res.m.values[region] - 1e-12)

    def test_matches_minimizer_on_smooth_problem(self):
        spec = make_spec(n=64, V_fn=lambda x: 0.5 * np.cos(2 * np.pi * (x - 0.25)))
        res_o = solve_P0(spec)
        res_n = minimize(DiscreteObjective(spec), "uniform", SolveOptions(step0=64.0))
        assert np.max(np.abs(res_o.m.values - res_n.m.values)) <= 1e-6

    def test_continuum_normalization_close_to_discrete(self):
        pot = PotentialFamily("cosine-shift", {"amplitude": 10.0, "shift": 0.25})
        spec = make_spec(n=100, V_fn=lambda x: 10 * np.cos(2 * np.pi * (x - 0.25)))
        hbar_d = solve_P0(spec).Hbar
        hbar_c = continuum_Hbar_P0(spec, pot)
        assert hbar_c == pytest.approx(hbar_d, abs=5e-3)
        assert hbar_c == pytest.approx(5.2741016, abs=1e-5)

    def test_continuum_normalization_rejects_drift(self):
        # the closed form holds only at P = 0, as in solve_P0
        pot = PotentialFamily("cosine-shift", {"amplitude": 1.0})
        spec = make_spec(n=16, P=(1.0,), V_fn=lambda x: np.cos(2 * np.pi * x))
        with pytest.raises(ValueError, match="P = 0"):
            continuum_Hbar_P0(spec, pot)

    def test_continuum_normalization_2d_bitwise_equals_the_grid_formula(self):
        # the fine 2D sampling is an outer product of per-axis factors; the
        # formula sampled at every fine node gives the same H-bar to the bit
        pot = PotentialFamily("exp-sin-cos",
                              {"amplitude": 3.0, "shift_x": 0.2, "shift_y": -0.35})

        def formula(x, y):
            return (3.0 * np.exp(-np.sin(2 * np.pi * (x + 0.2)) ** 2)
                    * np.cos(2 * np.pi * (y - 0.35)))

        spec = make_spec(n=32, dim=2, V_fn=formula)
        fine = TorusGrid(2, oracle.N_FINE[2]).from_callable(formula)
        on_nodes = PotentialFamily("custom-samples", {"values": fine.values})
        hbar = continuum_Hbar_P0(spec, pot)
        assert hbar == continuum_Hbar_P0(spec, on_nodes)
        assert hbar == pytest.approx(solve_P0(spec).Hbar, abs=5e-3)

    def test_two_term_coupling_roots_run_no_check(self, monkeypatch, count_calls):
        # a two-term coupling inverts g by monotone_root, whose iterates
        # stay >= 0, so its steps evaluate g and g' unchecked: no check
        # runs inside its loop (58 did with the public g and g'), and the
        # answer is the one the checked steps gave, to the bit
        checks = count_calls(model._check_nonneg)
        inside = []
        root = model.monotone_root

        def watched(node, m0):
            before = checks.calls
            out = root(node, m0)
            inside.append(checks.calls - before)
            return out

        monkeypatch.setattr(model, "monotone_root", watched)
        spec = make_spec(n=4096, V_fn=lambda x: 5.0 * np.cos(2 * np.pi * x),
                         coupling=CouplingG(((0.5, 2.0), (1.0, 3.0))))
        res = solve_P0(spec)
        m = res.m.values
        assert len(inside) > 0 and sum(inside) == 0
        assert res.Hbar == float.fromhex("-0x1.3a7e78618e138p+2")
        assert int(np.count_nonzero(m == 0.0)) == 243
        assert float(m.max()) == float.fromhex("0x1.a8a9032df44ffp+0")
        assert float(m @ np.arange(4096.0)) == float.fromhex("0x1.ffcaeadf9a418p+22")
        assert float(m @ m) == float.fromhex("0x1.4e48018f679bep+12")


class TestSolveCritical:
    def test_symmetric_constant_solution(self):
        # gamma = 2, g(m) = m, |P| = sqrt(2): 1/m - m = Hbar, mass forces m = 1
        spec = make_spec(n=32, alpha=1.0, P=(np.sqrt(2.0),))
        res = solve_critical(spec)
        assert np.allclose(res.m.values, 1.0, atol=1e-10)
        assert res.Hbar == pytest.approx(0.0, abs=1e-10)

    def test_pointwise_residual_and_mass(self):
        spec = make_spec(
            n=64, alpha=1.0, gamma=3.0, P=(1.2,),
            V_fn=lambda x: np.sin(2 * np.pi * x),
            coupling=CouplingG(((0.5, 2.0), (1.0, 3.0))),
        )
        res = solve_critical(spec)
        m = res.m.values
        kin = spec.P_norm**3 / 3.0
        residual = kin / m - spec.coupling.g(m) - (res.Hbar - spec.V.values)
        assert np.max(np.abs(residual)) <= 1e-10
        assert abs(integrate_values(res.m.values, res.m.grid.h) - 1.0) <= 1e-10

    def test_2d_residual(self):
        spec = make_spec(
            n=20, dim=2, alpha=1.0, gamma=2.0, P=(1.0, -0.5),
            V_fn=lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y),
        )
        res = solve_critical(spec)
        kin = spec.P_norm**2 / 2.0
        residual = kin / res.m.values - spec.coupling.g(res.m.values) \
            - (res.Hbar - spec.V.values)
        assert np.max(np.abs(residual)) <= 1e-10

    def test_rejects_zero_drift_and_wrong_alpha(self):
        with pytest.raises(ValueError):
            solve_critical(make_spec(n=16, alpha=1.0, P=(0.0,)))
        with pytest.raises(ValueError):
            solve_critical(make_spec(n=16, alpha=1.5, P=(1.0,)))

    def test_consistent_with_variational_solver_near_critical(self):
        # alpha = 1 + 1e-3 sits just inside the variational range
        V_fn = lambda x: 0.5 * np.cos(2 * np.pi * (x - 0.25))
        crit = solve_critical(make_spec(n=50, alpha=1.0, P=(1.0,), V_fn=V_fn))
        near = make_spec(n=50, alpha=1.0 + 1e-3, P=(1.0,), V_fn=V_fn)
        res = minimize(
            DiscreteObjective(near), "uniform",
            SolveOptions(step0=50.0, max_iters=200000),
        )
        assert np.max(np.abs(res.m.values - crit.m.values)) <= 5e-2


def _solve_counting_densities(monkeypatch, solve, spec):
    """solve(spec) and the number of density evaluations its mass solve made."""
    calls = 0
    mass_root = variational.mass_root

    def counting_mass_root(density, *args):
        def counted(hbar):
            nonlocal calls
            calls += 1
            return density(hbar)

        return mass_root(counted, *args)

    with monkeypatch.context() as patch:
        patch.setattr(variational, "mass_root", counting_mass_root)
        res = solve(spec)
    return res, calls


class TestAnswerChecks:
    """The oracles check the m-block's answer themselves: an answer off in
    mass or in the node equation raises BracketError."""

    @staticmethod
    def patched(monkeypatch, shift=0.0, scale=1.0):
        """Make `oracle.nested_m` answer at H-bar + shift with m times scale,
        m the node roots at that H-bar; returns the list of its answers."""
        nested_m = oracle.nested_m
        answers = []

        def off(a, k, V, coupling, hbar0, m0):
            hbar, m = nested_m(a, k, V, coupling, hbar0, m0)
            m = variational._node_density(a, k, V, coupling, m)(hbar + shift)[0]
            answers.append((hbar + shift, scale * m))
            return answers[-1]

        monkeypatch.setattr(oracle, "nested_m", off)
        return answers

    def test_P0_mass_off(self, monkeypatch):
        self.patched(monkeypatch, scale=1.001)
        with pytest.raises(BracketError, match="mass normalisation"):
            solve_P0(make_spec(n=32, V_fn=lambda x: np.cos(2 * np.pi * x)))

    def test_critical_residual_off(self, monkeypatch):
        self.patched(monkeypatch, scale=1.001)
        with pytest.raises(BracketError, match="nodewise algebraic residual"):
            solve_critical(make_spec(n=32, alpha=1.0, P=(0.7,),
                                     V_fn=lambda x: np.cos(2 * np.pi * x)))

    def test_critical_mass_off(self, monkeypatch):
        # the node roots at a shifted H-bar solve every node but miss the mass
        self.patched(monkeypatch, shift=0.1)
        with pytest.raises(BracketError, match="mass normalisation"):
            solve_critical(make_spec(n=32, alpha=1.0, P=(0.7,),
                                     V_fn=lambda x: np.cos(2 * np.pi * x)))

    def test_critical_mass_off_by_1e_11(self, monkeypatch):
        # the critical mass used to pass at up to 1e-10; it is now held to
        # MASS_TOL = 1e-12, as the P = 0 mass always was
        answers = self.patched(monkeypatch, shift=2e-11)
        with pytest.raises(BracketError, match="mass normalisation"):
            solve_critical(make_spec(n=32, alpha=1.0, P=(0.7,),
                                     V_fn=lambda x: np.cos(2 * np.pi * x)))
        [(_, m)] = answers
        assert 1e-12 < abs(integrate_values(m, 1.0 / 32) - 1.0) < 1e-10


    @pytest.mark.parametrize("dim, P", [(1, (1e155,)), (1, (-3e160,)), (2, (1e155, 0.0))])
    def test_nan_answer_raises(self, dim, P):
        # k = |P|^2/2 overflows, and the m-block used to return H-bar = inf
        # and m all NaN as "stationary": NaN fails every comparison
        V_fn = (lambda x: np.cos(2 * np.pi * x)) if dim == 1 else \
            (lambda x, y: np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
        spec = make_spec(n=16, dim=dim, alpha=1.0, P=P, V_fn=V_fn)
        with np.errstate(all="ignore"), pytest.raises(BracketError):
            solve_critical(spec)


class TestWarmStartedMassSolve:
    """The mass solves start from Hbar guesses exact for constant V."""

    @pytest.mark.parametrize("coupling", [
        QUAD, CouplingG(((1.0, 3.0),)), CouplingG(((0.5, 2.0), (1.0, 3.0))),
    ])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_constant_potential_takes_at_most_two_densities(self, monkeypatch,
                                                            coupling, dim):
        for solve, alpha, P in ((solve_P0, 1.5, (0.0,) * dim),
                                (solve_critical, 1.0, (0.8, -0.5)[:dim])):
            spec = make_spec(n=16, dim=dim, alpha=alpha, P=P,
                             V_fn=lambda *x: np.full(np.shape(x[0]), 3.0),
                             coupling=coupling)
            res, calls = _solve_counting_densities(monkeypatch, solve, spec)
            assert 1 <= calls <= 2
            assert np.allclose(res.m.values, 1.0, rtol=0.0, atol=1e-12)

    def test_steep_critical_solve_takes_fewer_densities(self, monkeypatch):
        # 1D n = 4096, cosine amplitude 12: 6 density evaluations from the
        # constant-V guess, where a bracket grown from both ends takes 8
        pot = PotentialFamily("cosine-shift", {"amplitude": 12.0, "shift": 0.3})
        grid = TorusGrid(1, 4096)
        spec = ProblemSpec(1, 4096, 1.0, 2.0, (1.0,), pot.sample(grid), QUAD)
        res, calls = _solve_counting_densities(monkeypatch, solve_critical, spec)
        assert 1 <= calls <= 6
        assert abs(integrate_values(res.m.values, grid.h) - 1.0) <= 1e-12


class TestOneNestedBlockCall:
    """Each oracle is one u = 0 call of the nested m-block, never the joint
    Newton iteration."""

    @pytest.mark.parametrize("coupling", [QUAD, CouplingG(((0.5, 2.0), (1.0, 3.0)))])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_nested_call_and_no_joint_call(self, monkeypatch, coupling, dim):
        nested, joint = [], []
        nested_m, optimal_m_ = oracle.nested_m, variational.optimal_m

        def counted_nested(a, k, *args):
            nested.append(k)
            return nested_m(a, k, *args)

        def counted_joint(*args):
            joint.append(1)
            return optimal_m_(*args)

        monkeypatch.setattr(oracle, "nested_m", counted_nested)
        monkeypatch.setattr(variational, "optimal_m", counted_joint)
        V_fn = (lambda x: 12.0 * np.cos(2 * np.pi * (x - 0.3))) if dim == 1 else \
            (lambda x, y: 3.0 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        for solve, alpha, P in ((solve_P0, 1.5, (0.0,) * dim),
                                (solve_critical, 1.0, (0.8, -0.5)[:dim])):
            nested.clear()
            spec = make_spec(n=32, dim=dim, alpha=alpha, P=P, V_fn=V_fn,
                             coupling=coupling)
            solve(spec)
            assert len(nested) == 1
            # k = |P|^gamma / gamma at every node
            assert nested[0].shape == spec.grid.shape
            assert np.allclose(nested[0], spec.P_norm**2 / 2.0, rtol=1e-14, atol=0.0)
        assert joint == []

    @pytest.mark.parametrize("solve, dim, alpha, gamma, P", [
        (solve_P0, 1, 1.5, 2.5, (0.0,)),
        (solve_P0, 2, 1.5, 1.3, (0.0, 0.0)),
        (solve_critical, 1, 1.0, 2.5, (-0.7,)),
        (solve_critical, 1, 1.0, 2.0, (1.3,)),
        (solve_critical, 2, 1.0, 1.3, (0.3, -1.1)),
        (solve_critical, 2, 1.0, 2.0, (0.8, -0.5)),
    ])
    def test_k_is_the_grid_array_form_bit_for_bit(
            self, monkeypatch, solve, dim, alpha, gamma, P):
        # k is one number filled into the grid; it must equal
        # `kinetic_density` of the grid-shaped constant field w = P bit for
        # bit.  At gamma 2.5, P = -0.7 and gamma 1.3, P = (0.3, -1.1) the
        # power of a NumPy scalar differs from the array power in the last
        # bit, so a scalar form of k fails here
        seen = []
        nested_m = oracle.nested_m

        def counted_nested(a, k, *args):
            seen.append(k)
            return nested_m(a, k, *args)

        monkeypatch.setattr(oracle, "nested_m", counted_nested)
        V_fn = (lambda x: 2.0 * np.cos(2 * np.pi * x)) if dim == 1 else \
            (lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        spec = make_spec(n=16, dim=dim, alpha=alpha, gamma=gamma, P=P, V_fn=V_fn)
        solve(spec)
        want = DiscreteObjective(spec).kinetic_density(
            [np.full(spec.grid.shape, p) for p in P])
        assert len(seen) == 1
        assert seen[0].shape == spec.grid.shape
        assert np.array_equal(seen[0], want)


class TestResultAssembly:
    """The oracle point has u = 0 and the result holds no integral of Dm, so
    an oracle solve makes no stencil call at all; its answer check's
    nodewise Hamiltonian gives Hbar_std, with no `estimate_Hbar` call."""

    @pytest.mark.parametrize("solve, dim, alpha, gamma, P", [
        (solve_P0, 1, 1.5, 2.0, (0.0,)),
        (solve_P0, 2, 1.5, 3.0, (0.0, 0.0)),
        (solve_critical, 1, 1.0, 2.0, (-0.7,)),
        (solve_critical, 1, 1.0, 1.5, (1.3,)),
        (solve_critical, 2, 1.0, 3.0, (0.3, -1.1)),
        (solve_critical, 2, 1.0, 2.0, (0.6, 0.0)),
    ])
    def test_no_stencil_call_and_fields_equal_the_stencil_path(
            self, count_calls, solve, dim, alpha, gamma, P):
        V_fn = (lambda x: 2.0 * np.cos(2 * np.pi * x)) if dim == 1 else \
            (lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        spec = make_spec(n=16, dim=dim, alpha=alpha, gamma=gamma, P=P, V_fn=V_fn)
        stencil = count_calls(grid_module.central_diff_values)
        estimate = count_calls(estimate_Hbar)
        res = solve(spec)
        assert stencil.calls == 0 and estimate.calls == 0
        # the same evaluations with k = |P + Du|^gamma / gamma from the stencils
        obj = DiscreteObjective(spec)
        point = FeasiblePoint(spec.grid.zeros(), res.m)
        assert np.array_equal(res.u.values, point.u.values)
        k = obj.kinetic_density(obj.drifted_grad(point.u.values))
        assert res.Hbar_std == estimate_Hbar(point, obj, k)[1]
        if alpha > 1.0:
            assert res.objective == obj.value(point)
        else:
            assert np.isnan(res.objective)


def _bisection_root(phi, dphi, lo, hi):
    """Nodewise root by 90 bisections and 3 Newton steps clamped at lo."""
    lo = np.full_like(hi, lo)
    floor = lo
    while True:
        short = phi(hi) < 0.0
        if not short.any():
            break
        hi = np.where(short, 2.0 * hi, hi)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = phi(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    m = 0.5 * (lo + hi)
    for _ in range(3):
        m = np.maximum(m - phi(m) / dphi(m), floor)
    return m


def _bisection_reference(spec):
    """(Hbar, m) of solve_P0 or solve_critical by bisection and brentq."""
    V, coupling = spec.V.values, spec.coupling
    g1 = float(coupling.g(1.0))
    if spec.P_norm == 0.0:
        def density(hbar):
            q = V - hbar
            m = np.zeros_like(q)
            pos = q > 0.0
            m[pos] = _bisection_root(
                lambda m: coupling.g(m) - q[pos],
                lambda m: coupling.g_prime(m, z_floor=1e-300),
                0.0, np.ones(int(pos.sum())),
            )
            return m

        lo, hi = float(V.min()) - g1 - 1.0, float(V.max())
    else:
        kin = spec.P_norm**spec.gamma / spec.gamma

        def density(hbar):
            return _bisection_root(
                lambda m: coupling.g(m) + hbar - V - kin / m,
                lambda m: coupling.g_prime(m) + kin / m**2,
                1e-14, np.ones_like(V),
            )

        lo = float(V.min()) - g1 - kin - 1.0
        hi = float(V.max()) + g1 + kin + 1.0
    hd = spec.grid.h**spec.dim
    hbar = brentq(lambda h: hd * density(h).sum() - 1.0, lo, hi,
                  xtol=1e-14, rtol=8.9e-16)
    return hbar, density(hbar)


class TestNewtonKernelsMatchBisection:
    """solve_P0 and solve_critical against bisection and brentq."""

    @pytest.mark.parametrize("terms", [
        ((0.5, 2.0),), ((1.0, 1.5),), ((1.0, 4.0),),
        ((0.5, 2.0), (1.0, 3.0)), ((1.0, 1.2), (1.0, 5.0)),
    ])
    @pytest.mark.parametrize("dim, n", [(1, 2048), (2, 64)])
    @pytest.mark.parametrize("amplitude", [0.5, 12.0])
    def test_hbar_and_m(self, terms, dim, n, amplitude):
        grid = TorusGrid(dim, n)
        if dim == 1:
            pot = PotentialFamily("cosine-shift", {"amplitude": amplitude, "shift": 0.3})
        else:
            pot = PotentialFamily("sine-cosine-product",
                                  {"amplitude": amplitude, "shift_x": 0.1, "shift_y": 0.2})
        V, coupling = pot.sample(grid), CouplingG(terms)
        for solve, alpha, P in ((solve_P0, 1.5, (0.0,) * dim),
                                (solve_critical, 1.0, (0.8, -0.5)[:dim])):
            spec = ProblemSpec(dim, n, alpha, 2.0, P, V, coupling)
            hbar_ref, m_ref = _bisection_reference(spec)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = solve(spec)
            assert res.Hbar == pytest.approx(hbar_ref, abs=1e-12)
            assert np.max(np.abs(res.m.values - m_ref)) <= 1e-12


class TestClosedFormMatchesNewton:
    """Closed-form node roots against Newton on the same g split in two terms."""

    @pytest.mark.parametrize("one, split, solvers", [
        (((0.5, 2.0),), ((0.25, 2.0), (0.25, 2.0)), ("P0", "critical")),
        (((0.5, 1.5),), ((0.25, 1.5), (0.25, 1.5)), ("P0",)),
    ])
    @pytest.mark.parametrize("dim, n", [(1, 2048), (2, 64)])
    @pytest.mark.parametrize("amplitude", [0.5, 12.0])
    def test_hbar_and_m(self, count_calls, one, split, solvers, dim, n, amplitude):
        roots = count_calls(model.monotone_root)
        grid = TorusGrid(dim, n)
        if dim == 1:
            pot = PotentialFamily("cosine-shift", {"amplitude": amplitude, "shift": 0.3})
        else:
            pot = PotentialFamily("sine-cosine-product",
                                  {"amplitude": amplitude, "shift_x": 0.1, "shift_y": 0.2})
        V = pot.sample(grid)
        cases = {"P0": (solve_P0, 1.5, (0.0,) * dim),
                 "critical": (solve_critical, 1.0, (0.8, -0.5)[:dim])}
        for solve, alpha, P in (cases[k] for k in solvers):
            roots.calls = 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                closed = solve(ProblemSpec(dim, n, alpha, 2.0, P, V, CouplingG(one)))
                assert roots.calls == 0
                newton = solve(ProblemSpec(dim, n, alpha, 2.0, P, V, CouplingG(split)))
                assert roots.calls > 0
            assert closed.Hbar == pytest.approx(newton.Hbar, abs=1e-12)
            assert np.max(np.abs(closed.m.values - newton.m.values)) <= 1e-12


class TestOptimalMatchesOracles:
    """The joint m-block at u = 0 agrees with the oracles' nested block."""

    @pytest.mark.parametrize("terms", [((0.5, 2.0),), ((1.0, 1.5),), ((0.5, 2.0), (1.0, 3.0))])
    @pytest.mark.parametrize("dim, n", [(1, 512), (2, 32)])
    @pytest.mark.parametrize("amplitude", [0.5, 12.0])
    def test_hbar_and_m(self, terms, dim, n, amplitude):
        grid = TorusGrid(dim, n)
        if dim == 1:
            pot = PotentialFamily("cosine-shift", {"amplitude": amplitude, "shift": 0.3})
        else:
            pot = PotentialFamily("sine-cosine-product",
                                  {"amplitude": amplitude, "shift_x": 0.1, "shift_y": 0.2})
        V, coupling = pot.sample(grid), CouplingG(terms)
        for solve, alpha, P in ((solve_P0, 1.5, (0.0,) * dim),
                                (solve_critical, 1.0, (0.8, -0.5)[:dim])):
            spec = ProblemSpec(dim, n, alpha, 2.0, P, V, coupling)
            k = np.full(grid.shape, spec.P_norm**2 / 2.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                # the oracles' first guess
                hbar, m = optimal_m(alpha, k, V.values, coupling,
                                    cold_hbar(k, V.values, coupling), np.ones(grid.shape))
            res = solve(spec)
            assert hbar == pytest.approx(res.Hbar, abs=1e-13)
            assert np.max(np.abs(m - res.m.values)) <= 1e-13


class TestClassicalExistence:
    def check(self, amplitude):
        spec = make_spec(
            n=200, V_fn=lambda x: amplitude * np.cos(2 * np.pi * (x - 0.25))
        )
        return classical_existence_check(spec)

    def test_smooth_potential_classical(self):
        out = self.check(0.5)
        assert out.classical_exists
        assert out.min_value == pytest.approx(0.5, abs=1e-12)

    def test_steep_potential_not_classical(self):
        out = self.check(10.0)
        assert not out.classical_exists
        assert out.min_value == pytest.approx(-9.0, abs=1e-12)

    def test_borderline(self):
        out = self.check(1.0)
        assert not out.classical_exists
        assert out.min_value == pytest.approx(0.0, abs=1e-12)

    def test_formula_is_one_plus_normalized_V(self):
        spec = make_spec(n=64, V_fn=lambda x: np.cos(2 * np.pi * x) + 5.0)
        out = classical_existence_check(spec)
        # mean of V removed before forming 1 + V
        assert out.m_formula.values.mean() == pytest.approx(1.0, abs=1e-12)

    def test_requires_quadratic_setup(self):
        with pytest.raises(ValueError):
            classical_existence_check(make_spec(n=16, P=(1.0,)))
        with pytest.raises(ValueError):
            classical_existence_check(make_spec(n=16, gamma=3.0))
        with pytest.raises(ValueError):
            classical_existence_check(
                make_spec(n=16, coupling=CouplingG(((1.0, 3.0),)))
            )
