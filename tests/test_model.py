import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusmfg import model
from torusmfg.grid import GridFunction, TorusGrid
from torusmfg.model import (
    BracketError,
    CouplingG,
    PotentialFamily,
    ProblemSpec,
    barf,
    barf_recession,
    mass_root,
    monotone_root,
)

QUAD = CouplingG.quadratic()          # G = m^2/2, g = m
CUBIC = CouplingG(((1.0, 3.0),))      # G = m^3,   g = 3 m^2
MIXED = CouplingG(((0.5, 2.0), (1.0, 3.0)))  # G = m^2/2 + m^3


class TestCoupling:
    def test_quadratic_values(self):
        assert QUAD.G(1.0) == pytest.approx(0.5)
        assert QUAD.g(1.0) == pytest.approx(1.0)

    def test_cubic_derivative(self):
        assert CUBIC.g(2.0) == pytest.approx(12.0)

    def test_sum_rule(self):
        assert MIXED.g(1.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("terms", [((math.nan, 2.0),), ((math.inf, 2.0),),
                                       ((0.5, math.nan),), ((0.5, math.inf),),
                                       ((0.5, 2.0), (math.nan, 3.0))])
    def test_rejects_non_finite_terms(self, terms):
        # these used to fail only deep inside a solve
        with pytest.raises(ValueError, match="finite"):
            CouplingG(terms)

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            CouplingG(((0.0, 2.0),))
        with pytest.raises(ValueError):
            CouplingG(((1.0, 1.0),))
        with pytest.raises(ValueError):
            CouplingG(())

    def test_serialize_record(self):
        assert MIXED.serialize() == [{"c": 0.5, "theta": 2.0}, {"c": 1.0, "theta": 3.0}]
        assert CouplingG(((2, 3),)).serialize() == [{"c": 2.0, "theta": 3.0}]

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            QUAD.G(-0.1)
        with pytest.raises(ValueError):
            QUAD.g(np.array([0.5, -1.0]))

    def test_g_at_zero_is_right_limit(self):
        assert QUAD.g(0.0) == 0.0
        assert MIXED.g(0.0) == 0.0

    def test_g_strictly_increasing(self):
        z = np.linspace(1e-3, 10.0, 300)
        for coup in (QUAD, CUBIC, MIXED):
            vals = coup.g(z)
            assert np.all(np.diff(vals) > 0)


class TestConjugateDeriv:
    def test_quadratic_is_positive_part(self):
        assert QUAD.conjugate_deriv(-1.0) == 0.0
        assert QUAD.conjugate_deriv(2.0) == pytest.approx(2.0, rel=1e-12)

    def test_cubic_closed_form(self):
        # solve 3 m^2 = 3
        assert CUBIC.conjugate_deriv(3.0) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(0.1, 10.0, size=40)
        for coup in (QUAD, CUBIC, MIXED):
            back = coup.conjugate_deriv(coup.g(m))
            assert np.max(np.abs(back - m) / m) <= 1e-10

    def test_nondecreasing_and_vanishing_below_zero(self):
        q = np.linspace(-3.0, 5.0, 200)
        for coup in (QUAD, MIXED):
            vals = coup.conjugate_deriv(q)
            assert np.all(np.diff(vals) >= -1e-13)
            assert np.all(vals[q <= 0.0] == 0.0)
            assert np.all(vals[q > 1e-8] > 0.0)


class TestConjugateDerivClosedForm:
    """One-term couplings invert g by a power, sums of terms by Newton."""

    def test_theta_near_one_round_trips_without_newton(self, monkeypatch):
        # roots from about 4e-41 to 4e19; monotone_root took 138 steps here
        calls = 0
        root = model.monotone_root

        def counting(*args):
            nonlocal calls
            calls += 1
            return root(*args)

        monkeypatch.setattr(model, "monotone_root", counting)
        q = np.geomspace(1e-8, 1e4, 400)
        coupling = CouplingG(((1.0, 1.2),))
        m = coupling.conjugate_deriv(q)
        assert calls == 0
        assert np.all(m > 0.0)
        assert np.allclose(coupling.g(m), q, rtol=1e-12, atol=0.0)
        # the same g split in two terms goes through Newton
        split = CouplingG(((0.5, 1.2), (0.5, 1.2))).conjugate_deriv(q)
        assert calls == 1
        assert np.allclose(split, m, rtol=1e-12, atol=0.0)

    def test_sum_started_at_zero_derivative_without_warning(self):
        # g'(0) = 0 for a sum of theta > 2 terms: Newton from m = 0 must bisect
        coupling = CouplingG(((1.0, 4.0), (0.5, 3.0)))
        q = np.array([1e-6, 0.3, 4.0, 2e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = coupling.conjugate_deriv(q, m0=np.zeros_like(q))
        assert np.allclose(coupling.g(m), q, rtol=1e-14, atol=0.0)


class TestRootKernels:
    def test_monotone_root_doubles_past_the_start(self):
        # m^3 = q with roots up to 100, far above the start 1
        q = np.array([1e-9, 0.5, 8.0, 1e6])
        m = monotone_root(lambda m: (m**3 - q, 3.0 * m**2), np.ones_like(q))
        assert np.allclose(m, np.cbrt(q), rtol=1e-14, atol=0.0)

    def test_monotone_root_matches_bisection_in_few_steps(self):
        # the kernel against 90 bisections and 3 Newton steps, and all its
        # phi calls, cold and warm-started
        q = np.geomspace(1e-6, 1e4, 300)
        calls = 0

        def phi(m):
            nonlocal calls
            calls += 1
            return m**3 - q

        def dphi(m):
            return 3.0 * m**2

        lo, hi = np.zeros_like(q), np.ones_like(q)
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
        ref = 0.5 * (lo + hi)
        for _ in range(3):
            ref = np.maximum(ref - phi(ref) / dphi(ref), 0.0)

        def node(m):
            return phi(m), dphi(m)

        calls = 0
        m = monotone_root(node, np.ones_like(q))
        assert np.allclose(m, ref, rtol=1e-15, atol=0.0)
        assert calls <= 16

        calls = 0
        m = monotone_root(node, np.cbrt(q))
        assert np.allclose(m, ref, rtol=1e-15, atol=0.0)
        assert calls <= 2

    def test_zero_derivative_bisects_without_warning(self):
        # g'(0) = 0 for theta > 2: a node started at m = 0 must not divide by it
        quartic = CouplingG(((1.0, 4.0),))
        q = np.array([1e-6, 0.3, 4.0, 2e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = quartic.conjugate_deriv(q, m0=np.zeros_like(q))
        assert np.allclose(quartic.g(m), q, rtol=1e-14, atol=0.0)

    def test_monotone_root_raises_when_newton_cannot_finish(self):
        # phi is NaN everywhere: no bracket end ever moves
        with pytest.raises(BracketError):
            monotone_root(lambda m: (np.full_like(m, np.nan), np.ones_like(m)),
                          np.ones(3))

    def test_monotone_root_stops_on_a_collapsed_bracket(self):
        # phi jumps at its root, so no Newton step there is small; the
        # bracket shrinks onto one float and the node must stop at it
        root = monotone_root(lambda m: (np.where(m >= 1.0, 1.0, -1.0), np.ones_like(m)),
                             np.array([0.3, 5.0]))
        assert np.array_equal(root, [1.0, 1.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        terms=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(1.2, 6.0)),
                       min_size=1, max_size=3),
        log_q=st.lists(st.floats(-8.0, 4.0), min_size=1, max_size=20),
        warm=st.one_of(st.none(), st.floats(0.0, 1e3)),
    )
    def test_monotone_root_property(self, terms, log_q, warm):
        coupling = CouplingG(tuple(terms))
        q = 10.0 ** np.array(log_q)
        m0 = np.ones_like(q) if warm is None else np.full_like(q, warm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = monotone_root(
                lambda m: (coupling.g(m) - q, coupling.g_prime(m, z_floor=1e-300)),
                m0,
            )
        hi = np.ones_like(q)
        while (coupling.g(hi) <= q).any():
            hi = np.where(coupling.g(hi) <= q, 2.0 * hi, hi)
        assert np.all((0.0 <= m) & (m <= hi))
        assert np.all(np.abs(coupling.g(m) - q) <= 1e-12 * np.maximum(1.0, q))

    @pytest.mark.parametrize("hbar0", [-10.0, -1e-3, 1e-3, 10.0])
    def test_mass_root_widens_the_bracket(self, hbar0):
        # mass e^(-Hbar) on four nodes of weight 1/4: unit mass at Hbar = 0,
        # approached from guesses on both sides
        def density(hbar):
            return np.full(4, np.exp(-hbar)), np.full(4, -np.exp(-hbar))

        hbar, m = mass_root(density, hbar0)
        assert hbar == pytest.approx(0.0, abs=1e-14)
        assert np.array_equal(m, density(hbar)[0])

    @pytest.mark.parametrize("hbar0", [-3.0, 5.0])
    def test_mass_root_bisects_where_the_slope_is_zero(self, hbar0):
        # a zero slope, as where every node is vacuum, must not be divided by
        def density(hbar):
            return np.full(4, np.exp(-hbar)), np.zeros(4)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hbar, _ = mass_root(density, hbar0)
        assert hbar == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("hbar0", [-5.0, 5.0])
    @pytest.mark.parametrize("mass", [0.5, 2.0])
    def test_mass_root_raises_without_sign_change(self, mass, hbar0):
        # constant mass below and above 1: the search runs out of doublings
        with pytest.raises(BracketError):
            mass_root(lambda hbar: (np.full(4, mass), np.zeros(4)), hbar0)

    def test_mass_root_raises_at_the_step_cap(self, monkeypatch):
        # Newton on the convex mass e^(-Hbar) from far below the root needs
        # more than two steps
        monkeypatch.setattr(model, "_MAX_STEPS", 2)
        with pytest.raises(BracketError, match="did not converge"):
            mass_root(lambda hbar: (np.full(4, np.exp(-hbar)),
                                    np.full(4, -np.exp(-hbar))), -10.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        nodes=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 3.0)),
                       min_size=1, max_size=8),
        vacuum=st.booleans(),
        hbar0=st.floats(-100.0, 100.0),
    )
    def test_mass_root_property(self, nodes, vacuum, hbar0):
        # masses c e^(-a Hbar), or max(b - Hbar, 0) with vacuum nodes of slope
        # 0, from an arbitrary guess
        first, second = (np.array(x) for x in zip(*nodes))
        if vacuum:
            def density(hbar):
                m = np.maximum(second * first - hbar, 0.0)
                return m, -(m > 0.0).astype(float)
        else:
            def density(hbar):
                m = first * np.exp(-second * hbar)
                return m, -second * m
        cell = 1.0 / len(nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hbar, m = mass_root(density, hbar0)
        assert np.array_equal(m, density(hbar)[0])
        assert abs(cell * m.sum() - 1.0) <= 1e-12


class TestBarf:
    def test_zero_at_minus_P_with_zero_mass(self):
        assert barf((-0.5, 1.0), 0.0, (0.5, -1.0), 1.5, 2.0) == 0.0

    def test_infinite_at_zero_mass_otherwise(self):
        assert barf((0.1,), 0.0, (0.0,), 1.5, 2.0) == math.inf

    def test_hand_value(self):
        # |p|^2 / (gamma (alpha-1) m^(alpha-1)) = 1 / (2 * 0.5 * 2) = 0.5
        assert barf((1.0, 0.0), 4.0, (0.0, 0.0), 1.5, 2.0) == pytest.approx(0.5)

    def test_zero_along_minus_P_for_all_masses(self):
        for m in (0.0, 0.3, 1.0, 7.5):
            assert barf((-2.0,), m, (2.0,), 1.5, 3.0) == 0.0

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            barf((0.0,), 1.0, (0.0,), 1.0, 2.0)
        with pytest.raises(ValueError):
            barf((0.0,), 1.0, (0.0,), 2.5, 2.0)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            barf((0.1,), -1.0, (0.0,), 1.5, 2.0)

    def test_midpoint_convexity_sampled(self):
        rng = np.random.default_rng(11)
        P = (0.7, -0.3)
        for _ in range(2000):
            p1 = rng.uniform(-5, 5, size=2)
            p2 = rng.uniform(-5, 5, size=2)
            m1, m2 = rng.uniform(0.05, 10.0, size=2)
            alpha, gamma = 1.5, 2.0
            mid = barf(0.5 * (p1 + p2), 0.5 * (m1 + m2), P, alpha, gamma)
            avg = 0.5 * barf(p1, m1, P, alpha, gamma) + 0.5 * barf(p2, m2, P, alpha, gamma)
            assert mid <= avg + 1e-12

    def test_lower_semicontinuity_toward_vanishing_mass(self):
        # along (p_j, m_j) -> (-P, 0) the liminf stays >= 0 = barf(-P, 0)
        P = (1.0,)
        vals = [
            barf((-1.0 + 2.0**-j,), 2.0**-j, P, 1.5, 2.0) for j in range(1, 40)
        ]
        assert min(vals) >= 0.0


class TestRecession:
    def test_origin_value(self):
        assert barf_recession((0.0,), 0.0, 2.0) == 0.0

    def test_hand_value(self):
        assert barf_recession((2.0, 0.0), 1.0, 2.0) == pytest.approx(2.0)

    def test_infinite_branch(self):
        assert barf_recession((1e-9,), 0.0, 2.0) == math.inf

    def test_rejects_bad_gamma_and_negative_mass(self):
        with pytest.raises(ValueError, match="gamma"):
            barf_recession((0.1,), 1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            barf_recession((0.1,), -1.0, 2.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = rng.uniform(-4, 4, size=2)
            m = rng.uniform(0.01, 5.0)
            t = rng.uniform(0.5, 2.0)
            gamma = rng.uniform(1.2, 4.0)
            lhs = barf_recession(t * p, t * m, gamma)
            rhs = t * barf_recession(p, m, gamma)
            assert lhs == pytest.approx(rhs, rel=1e-14)


class TestPotentials:
    def test_cosine_shift(self):
        g = TorusGrid(1, 64)
        V = PotentialFamily("cosine-shift", {"amplitude": 0.5, "shift": 0.25}).sample(g)
        x = g.axis_coords()
        assert np.allclose(V.values, 0.5 * np.cos(2 * np.pi * (x - 0.25)))

    def test_product_family_requires_2d(self):
        for family in ("sine-cosine-product", "exp-sin-cos"):
            with pytest.raises(ValueError, match="two-dimensional"):
                PotentialFamily(family).sample(TorusGrid(1, 16))

    def test_line_families_require_1d(self):
        # they used to sample a 2D grid along x alone, constant in y
        for family in ("cosine-shift", "gaussian-bump"):
            with pytest.raises(ValueError, match="one-dimensional"):
                PotentialFamily(family).sample(TorusGrid(2, 8))

    def test_gaussian_bump(self):
        g = TorusGrid(1, 32)
        V = PotentialFamily("gaussian-bump", {"amplitude": 2.0, "center": 0.3}).sample(g)
        assert np.array_equal(V.values, 2.0 * np.exp(-((g.axis_coords() - 0.3) ** 2)))

    def test_exp_sin_cos_values(self):
        g = TorusGrid(2, 16)
        V = PotentialFamily(
            "exp-sin-cos", {"shift_x": 0.25, "shift_y": -0.25}
        ).sample(g)
        X, Y = g.coords()
        expected = np.exp(-np.sin(2 * np.pi * (X + 0.25)) ** 2) * np.cos(
            2 * np.pi * (Y - 0.25)
        )
        assert np.allclose(V.values, expected)

    def test_custom_samples_and_finiteness(self):
        g = TorusGrid(1, 8)
        V = PotentialFamily("custom-samples", {"values": np.arange(8.0)}).sample(g)
        assert np.array_equal(V.values, np.arange(8.0))
        with pytest.raises(ValueError):
            PotentialFamily(
                "custom-samples", {"values": [np.inf] + [0.0] * 7
            }).sample(g)

    def test_serialize_records(self):
        # the records a spec file would hold; custom samples leave out their
        # values
        pot = PotentialFamily("cosine-shift", {"amplitude": 2.0, "shift": 0.3})
        assert pot.serialize() == {"family": "cosine-shift", "amplitude": 2.0,
                                   "shift": 0.3}
        custom = PotentialFamily("custom-samples", {"values": [1.0] * 8, "tag": 7})
        assert custom.serialize() == {"family": "custom-samples", "tag": 7}

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            PotentialFamily("spline")

    @pytest.mark.parametrize("family, params, match", [
        # a misspelled shift used to sample the unshifted cosine
        ("cosine-shift", {"amplitude": 2.0, "shfit": 0.3}, "takes only"),
        ("gaussian-bump", {"centre": 0.3}, "takes only"),
        ("sine-cosine-product", {"shift": 0.3}, "takes only"),
        ("exp-sin-cos", {"amplitude": 1.0, "shift_z": 0.1}, "takes only"),
        # used to raise a bare KeyError when sampled
        ("custom-samples", {}, "values"),
        ("custom-samples", {"tag": 7}, "values"),
    ])
    def test_rejects_parameters_outside_the_family(self, family, params, match):
        with pytest.raises(ValueError, match=match):
            PotentialFamily(family, params)

    def test_accepts_every_listed_parameter(self):
        names = {"cosine-shift": ("amplitude", "shift"),
                 "gaussian-bump": ("amplitude", "center"),
                 "sine-cosine-product": ("amplitude", "shift_x", "shift_y"),
                 "exp-sin-cos": ("amplitude", "shift_x", "shift_y")}
        for family, keys in names.items():
            dim = 1 if family in ("cosine-shift", "gaussian-bump") else 2
            pot = PotentialFamily(family, dict.fromkeys(keys, 0.25))
            V = pot.sample(TorusGrid(dim, 8))
            assert np.isfinite(V.values).all()

    # the formulas of the 2D families at every node of a coordinate grid
    GRID_FORMULAS = {
        "sine-cosine-product": lambda X, Y, A, sx, sy: (
            A * np.sin(2 * np.pi * (X + sx)) * np.cos(2 * np.pi * (Y + sy))),
        "exp-sin-cos": lambda X, Y, A, sx, sy: (
            A * np.exp(-np.sin(2 * np.pi * (X + sx)) ** 2)
            * np.cos(2 * np.pi * (Y + sy))),
    }

    @pytest.mark.parametrize("n", [5, 12, 33, 128])
    @pytest.mark.parametrize("family", sorted(GRID_FORMULAS))
    def test_product_families_bitwise_equal_the_grid_formula(self, family, n):
        # sampled as an outer product of an x factor and a y factor, with
        # the products in the formula's order, every bit matches; zero and
        # negative amplitudes keep their signed zeros, and shifts outside
        # [0, 1) wrap as the formula does
        g = TorusGrid(2, n)
        X, Y = np.meshgrid(g.axis_coords(), g.axis_coords(), indexing="ij")
        for A in (0.0, -0.0, 1.0, -2.5, 11.3):
            for sx, sy in ((0.0, 0.0), (0.3, -0.45), (-1.7, 2.25), (13.61, -0.5)):
                V = PotentialFamily(
                    family, {"amplitude": A, "shift_x": sx, "shift_y": sy}
                ).sample(g)
                want = self.GRID_FORMULAS[family](X, Y, A, sx, sy)
                assert V.values.shape == (n, n)
                assert V.values.tobytes() == want.tobytes()
        # the defaults: amplitude 1, no shift
        V = PotentialFamily(family).sample(g)
        assert V.values.tobytes() == self.GRID_FORMULAS[family](X, Y, 1.0, 0.0, 0.0).tobytes()

    def test_analytic_families_sample_without_a_coordinate_grid(self, monkeypatch):
        # every analytic family reads the axis coordinates alone
        def no_grid(self):
            raise AssertionError("a potential sampled a coordinate grid")

        monkeypatch.setattr(TorusGrid, "coords", no_grid)
        dims = {"cosine-shift": 1, "gaussian-bump": 1,
                "sine-cosine-product": 2, "exp-sin-cos": 2}
        assert set(dims) == {f for f, keys in model.POTENTIAL_FAMILIES.items()
                             if keys is not None}
        for family, dim in dims.items():
            V = PotentialFamily(family, {"amplitude": 2.0}).sample(TorusGrid(dim, 16))
            assert V.values.shape == (16,) * dim
            assert np.isfinite(V.values).all()


class TestProblemSpec:
    def test_grid_mismatch_rejected(self):
        g = TorusGrid(1, 16)
        V = g.zeros()
        with pytest.raises(ValueError):
            ProblemSpec(1, 32, 1.5, 2.0, (0.0,), V, QUAD)

    @pytest.mark.parametrize("alpha, gamma, P", [
        (math.nan, 2.0, (0.0,)), (math.inf, 2.0, (0.0,)),
        (1.5, math.nan, (0.0,)), (1.5, math.inf, (0.0,)),
        (1.5, 2.0, (math.nan,)), (1.5, 2.0, (-math.inf,)),
    ])
    def test_non_finite_exponent_or_drift_rejected(self, alpha, gamma, P):
        # a NaN alpha let solve_P0 return "stationary" with a NaN objective
        g = TorusGrid(1, 16)
        with pytest.raises(ValueError, match="finite"):
            ProblemSpec(1, 16, alpha, gamma, P, g.zeros(), QUAD)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_potential_rejected(self, bad):
        # a hand-built V skips PotentialFamily.sample's check: with V[3] NaN
        # the oracles and minimize raised BracketError, with inf solve_P0
        # raised DegenerateSolutionError
        g = TorusGrid(1, 16)
        values = np.cos(2 * np.pi * g.axis_coords())
        values[3] = bad
        with pytest.raises(ValueError, match="potential samples must be finite"):
            ProblemSpec(1, 16, 1.5, 2.0, (0.0,), GridFunction(g, values), QUAD)

    def test_drift_length_checked(self):
        g = TorusGrid(2, 8)
        with pytest.raises(ValueError):
            ProblemSpec(2, 8, 1.5, 2.0, (0.0,), g.zeros(), QUAD)
