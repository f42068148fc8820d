import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from torusmfg import transform
from torusmfg.grid import (
    GridFunction,
    TorusGrid,
    integrate_values,
    nested_dissection_order,
    periodic_shift,
    upwind_slopes,
)
from torusmfg.model import CouplingG, PotentialFamily, ProblemSpec
from torusmfg.optimizer import minimize
from torusmfg.transform import (
    DualSpec,
    HJBConvergenceError,
    _dual_flux,
    _hjb_jacobian,
    _hjb_scheme,
    curl_proxy,
    dual_divergence_residual,
    hjb_residual,
    pipeline_alpha_lt_1,
    recover_P,
    solve_hjb_discounted,
    transform_exponents,
)
from torusmfg.variational import DiscreteObjective

QUAD = CouplingG.quadratic()


def base_spec(n, V=None, alpha=0.5, gamma=2.0):
    g = TorusGrid(2, n)
    return ProblemSpec(2, n, alpha, gamma, (0.0, 0.0),
                       g.zeros() if V is None else V.sample(g), QUAD)


def sine_cosine(shift=(0.0, 0.0)):
    return PotentialFamily("sine-cosine-product",
                           {"amplitude": 1.0, "shift_x": shift[0], "shift_y": shift[1]})


class TestExponents:
    def test_lands_in_variational_range(self):
        for alpha in np.linspace(0.02, 0.98, 25):
            for gamma in (1.1, 1.5, 2.0, 3.0, 7.0):
                gamma_prime, alpha_tilde = transform_exponents(alpha, gamma)
                assert gamma_prime == pytest.approx(gamma / (gamma - 1.0))
                assert 1.0 < alpha_tilde < gamma_prime

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError):
            transform_exponents(alpha, 2.0)

    def test_rejects_gamma_at_most_one(self):
        with pytest.raises(ValueError):
            transform_exponents(0.5, 1.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_rejects_non_finite_gamma(self, gamma):
        # NaN passed `gamma <= 1` and failed the bare assert on alpha~
        with pytest.raises(ValueError, match="gamma"):
            transform_exponents(0.5, gamma)

    @pytest.mark.parametrize("alpha, gamma", [
        (1e-20, 2.0), (1e-17, 2.0), (0.5, 1e300), (0.9999999999999999, 2.0),
        (1e-300, 1.0000000001),
    ])
    def test_rejects_exponents_that_round_onto_an_end(self, alpha, gamma):
        # alpha~ rounds onto 1 or onto gamma' here; a bare assert raised
        # AssertionError, and under python -O let the exponents through
        base = base_spec(8, alpha=alpha, gamma=gamma)
        with pytest.raises(ValueError, match="alpha~ = .*gamma' = "):
            transform_exponents(alpha, gamma)
        with pytest.raises(ValueError, match="alpha~"):
            DualSpec(base, (1.0, 0.0))


class TestDualSpec:
    def test_rejects_a_base_drift(self):
        # the pipeline recovers P from the dual flux, so a base P would be
        # dropped without a word: (3, -2) gave bitwise the answer of (0, 0)
        g = TorusGrid(2, 16)
        base = ProblemSpec(2, 16, 0.5, 2.0, (3.0, -2.0), sine_cosine().sample(g), QUAD)
        with pytest.raises(ValueError, match="base drift"):
            DualSpec(base, (1.0, 0.0))

    def test_rejects_a_1d_base(self):
        g = TorusGrid(1, 16)
        base = ProblemSpec(1, 16, 0.5, 2.0, (0.0,), g.zeros(), QUAD)
        with pytest.raises(ValueError, match="two-dimensional"):
            DualSpec(base, (1.0, 0.0))

    def test_rejects_a_Q_with_three_components(self):
        with pytest.raises(ValueError, match="two components"):
            DualSpec(base_spec(8), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("Q", [(float("nan"), 0.0), (1.0, float("inf"))])
    def test_rejects_a_non_finite_Q(self, Q):
        with pytest.raises(ValueError, match="Q must be finite"):
            DualSpec(base_spec(8), Q)


class TestConstantRoundTrip:
    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("Q", [(1.0, 0.0), (0.0, -1.0), (0.6, -1.3)])
    def test_constant_potential_recovers_rotated_Q(self, Q, gamma):
        # flat V: psi = 0 and m = 1 solve the dual problem, and the flux is
        # |Q|^(gamma'-2) Q, so Pperp = |Q|^(gamma'-2) Q and P = (Pperp_2, -Pperp_1)
        dual = DualSpec(base_spec(12, gamma=gamma), Q)
        res = minimize(DiscreteObjective(dual.problem), "uniform")
        psi, m = res.u, res.m
        assert np.max(np.abs(psi.values)) <= 1e-12
        assert np.max(np.abs(m.values - 1.0)) <= 1e-12
        pperp = np.hypot(*Q) ** (dual.gamma_prime - 2.0) * np.array(Q)
        P = recover_P(_dual_flux(psi, m, dual), dual.base.grid.h)
        assert P == pytest.approx([pperp[1], -pperp[0]], abs=1e-12)


class TestPipeline:
    def test_hjb_residual_meets_tolerance(self):
        res = pipeline_alpha_lt_1(DualSpec(base_spec(16, sine_cosine()), (1.0, 0.0)))
        assert res.residuals["hjb_max_residual"] <= 1e-10
        assert res.u.values.max() == 0.0
        assert res.residuals["hbar_dual_consistency"] <= 2e-4

    def test_curl_proxy_repeats_the_divergence_residual(self):
        # the curl of the rotated flux deficit is the 2-point divergence of
        # the flux, so the pipeline reports only the latter
        dual = DualSpec(base_spec(16, sine_cosine()), (1.0, 0.0))
        res = pipeline_alpha_lt_1(dual)
        flux, h = _dual_flux(res.psi, res.m, dual), dual.base.grid.h
        div = dual_divergence_residual(flux, h)
        assert res.residuals["dual_divergence_l1"] == div
        assert curl_proxy(flux, res.P_recovered, h) == pytest.approx(
            div, rel=1e-13, abs=0.0)
        assert set(res.residuals) == {
            "dual_divergence_l1", "hjb_max_residual", "hbar_dual_consistency"}

    def test_dual_flux_is_formed_once(self, monkeypatch):
        # the drift recovery, the start and the divergence residual share it
        calls = []
        original = transform._dual_flux

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(transform, "_dual_flux", counted)
        pipeline_alpha_lt_1(DualSpec(base_spec(16, sine_cosine()), (1.0, 0.0)))
        assert calls == [1]

    def test_reversed_Q_mirrors_psi_and_P(self):
        # psi -> -psi with m unchanged solves the dual problem for -Q, so the
        # recovered drift flips sign.  The HJB step is not mirrored: beta u
        # breaks the u -> -u symmetry.
        fwd, back = (pipeline_alpha_lt_1(DualSpec(base_spec(16, sine_cosine()), Q))
                     for Q in ((1.0, 0.0), (-1.0, 0.0)))
        assert np.array_equal(fwd.psi.values, -back.psi.values)
        assert np.array_equal(fwd.m.values, back.m.values)
        assert np.array_equal(fwd.P_recovered, -back.P_recovered)

    def test_hbar_dual_consistency_falls_under_refinement(self):
        # the dual and HJB estimates of H-bar differ by discretisation error
        # only, so the gap shrinks as the grid is refined
        gap = {
            n: pipeline_alpha_lt_1(DualSpec(base_spec(n, sine_cosine()), (1.0, 0.0)))
            .residuals["hbar_dual_consistency"]
            for n in (16, 32)
        }
        assert gap[32] <= gap[16] / 3.0

    def test_vanishing_discount_warm_start_off_grid_shift(self):
        # The old discount schedule stalled on this input (HJBConvergenceError)
        # when it rescaled the whole of u between rates; the dual start must
        # reach the H-bar of a cold solve at the same rate.
        base = base_spec(32, sine_cosine((0.40639737180044866, 0.48768299940789794)))
        res = pipeline_alpha_lt_1(DualSpec(base, (-1.0, 0.0)))
        assert res.residuals["hjb_max_residual"] <= 1e-10
        assert res.Hbar == pytest.approx(cold_hbar(res, base), abs=1e-12)

    def test_dual_start_is_near_the_solution(self, monkeypatch):
        # P + Du is the rotated dual flux, and the dual fixes H-bar, so the
        # start is close where u = 0 is not; the solve from it reaches the
        # H-bar of a cold solve
        starts = []
        solve = transform.solve_hjb_discounted

        def recording_solve(m, P, spec, beta, u0=None):
            starts.append((u0, beta))
            return solve(m, P, spec, beta, u0=u0)

        monkeypatch.setattr(transform, "solve_hjb_discounted", recording_solve)
        base = base_spec(32, sine_cosine())
        res = pipeline_alpha_lt_1(DualSpec(base, (1.0, 0.0)))
        [(u0, beta)] = starts
        at_start, at_zero = (
            hjb_residual(GridFunction(base.grid, u), res.m, res.P_recovered, base, beta)
            for u in (u0, np.zeros(base.grid.shape)))
        assert at_start <= 0.05
        assert at_start < at_zero / 10.0
        assert res.Hbar == pytest.approx(cold_hbar(res, base), abs=1e-12)


def cold_hbar(res, base, beta=1e-3):
    """H-bar of a solve from u = 0 at the pipeline's m, drift and rate."""
    cold = solve_hjb_discounted(res.m, res.P_recovered, base, beta)
    return -beta * integrate_values(cold.values, base.grid.h)


class TestScheduleErrors:
    # NaN and inf used to fail inside the first spsolve
    @pytest.mark.parametrize("beta", [0.0, -1e-3, math.nan, math.inf])
    def test_hjb_rejects_nonpositive_beta(self, beta):
        base = base_spec(8, sine_cosine())
        m = GridFunction(base.grid, np.ones(base.grid.shape))
        with pytest.raises(ValueError, match="beta"):
            solve_hjb_discounted(m, (0.0, 1.0), base, beta)


class TestHJBInputErrors:
    """Inputs that used to run with a wrong answer or fail deep in the solve:
    a second drift component was ignored, a NaN drift ended in "Matrix is
    exactly singular", a wrong grid in a broadcast error, and u0 = 0.0 in
    "argmax of an empty sequence"."""

    @pytest.mark.parametrize("change, match", [
        ({"P": (0.5, 0.1)}, "drift P"),
        ({"P": (math.nan,)}, "drift P"),
        ({"m": GridFunction(TorusGrid(1, 32), np.ones(32))}, "m lies on"),
        ({"u0": 0.0}, "u0"),
        ({"u0": np.zeros(8)}, "u0"),
        ({"u0": np.full(16, math.nan)}, "u0"),
    ], ids=["extra-drift-component", "nan-drift", "m-on-another-grid", "scalar-u0",
            "u0-of-another-shape", "nan-u0"])
    def test_rejected(self, change, match):
        spec, m = hjb_problem(1, 16, 2.0)
        args = {"m": m, "P": (0.5,), "u0": None, **change}
        with pytest.raises(ValueError, match=match):
            solve_hjb_discounted(args["m"], args["P"], spec, 1e-2, u0=args["u0"])
        if args["u0"] is None:
            # the residual shares the scheme and its checks
            with pytest.raises(ValueError, match=match):
                hjb_residual(spec.grid.zeros(), args["m"], args["P"], spec, 1e-2)

    def test_residual_rejects_a_u_on_another_grid(self):
        # a 1D zero u broadcast against the 2D arrays and returned 1.955,
        # where the 2D zero u gives 1.95
        spec = ProblemSpec(2, 8, 0.5, 2.0, (0.0, 0.0), sine_cosine().sample(TorusGrid(2, 8)),
                           QUAD)
        m, P = spec.grid.constant(1.0), (0.3, 0.1)
        assert hjb_residual(spec.grid.zeros(), m, P, spec, 1e-3) == pytest.approx(1.95)
        with pytest.raises(ValueError, match="u lies on"):
            hjb_residual(TorusGrid(1, 8).zeros(), m, P, spec, 1e-3)


def scheme_power_sum(u, p, gamma):
    """S(u), the upwind sum of a_k^gamma + b_k^gamma, from the `_hjb_scheme`
    residual alone: m = 1 and V = g(1) = 1 leave denom = gamma and no
    source, and beta = 0 drops beta u."""
    grid = TorusGrid(u.ndim, u.shape[0])
    spec = ProblemSpec(grid.dim, grid.n, 0.5, gamma, (0.0,) * grid.dim,
                       grid.constant(1.0), QUAD)
    residual, denom = _hjb_scheme(grid.constant(1.0), p, spec, 0.0)
    return residual(u)[0] * denom


class TestUpwindScheme:
    """The upwind sum in the `_hjb_scheme` residual."""

    def test_constant_u_gives_drift_power(self):
        out = scheme_power_sum(np.full((8, 8), 2.0), np.array([1.5, -0.5]), 2.5)
        expected = 1.5**2.5 + 0.5**2.5
        assert np.allclose(out, expected, rtol=1e-14)

    def test_constant_u_zero_drift(self):
        out = scheme_power_sum(np.ones(64), np.array([0.0]), 2.0)
        assert np.all(out == 0.0)

    def test_nonnegative_on_random_input(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(12, 12))
        out = scheme_power_sum(u, rng.normal(size=2), 1.7)
        assert np.all(out >= 0.0)

    def test_monotone_in_neighbors(self):
        # raising one neighbor value never raises the scheme value elsewhere
        rng = np.random.default_rng(6)
        u = rng.normal(size=16)
        p = np.array([0.7])
        base = scheme_power_sum(u, p, 2.0)
        for i in (0, 5, 11):
            bumped = u.copy()
            bumped[i] += 0.3
            out = scheme_power_sum(bumped, p, 2.0)
            mask = np.ones(16, bool)
            mask[i] = False
            assert np.all(out[mask] <= base[mask] + 1e-14)

    def test_first_order_on_smooth_u(self):
        ns, errs = (64, 128, 256), []
        for n in ns:
            x = np.arange(n) / n
            u = np.sin(2 * np.pi * x) / (2 * np.pi)
            out = scheme_power_sum(u, np.array([0.0]), 2.0)
            errs.append(np.max(np.abs(out - np.cos(2 * np.pi * x) ** 2)))
        order = np.polyfit(np.log(1.0 / np.asarray(ns)), np.log(errs), 1)[0]
        assert 0.7 <= order <= 1.3
        assert errs[1] <= 8.0 / 128


def full_jacobian(u, p, gamma, h, denom, beta):
    """The HJB Jacobian with both neighbour entries of every axis stored,
    zeros included: the matrix the active-entry build must reproduce."""
    size = u.size
    idx = np.arange(size).reshape(u.shape)
    a, b = upwind_slopes(u, p, h)
    rows, cols, vals = [], [], []
    diag = np.full(u.shape, beta)
    for k in range(u.ndim):
        ca = gamma * a[k] ** (gamma - 1.0) / (h * denom)
        cb = gamma * b[k] ** (gamma - 1.0) / (h * denom)
        diag += ca + cb
        for c, s in ((ca, 1), (cb, -1)):
            rows.append(idx.ravel())
            cols.append(periodic_shift(idx, s, k).ravel())
            vals.append(-c.ravel())
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


class TestHJBJacobian:
    """The Jacobian is built in the nested-dissection order of the grid:
    row and column i belong to node perm[i]."""

    n, beta, p = 12, 1e-2, np.array([0.7, -0.4])

    def build(self, gamma, u_scale, n=None):
        n = self.n if n is None else n
        base = base_spec(n, sine_cosine(), gamma=gamma)
        grid = base.grid
        x, y = np.meshgrid(*(np.arange(n) * grid.h,) * 2, indexing="ij")
        m = GridFunction(grid, 1.0 + 0.5 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        residual, denom = _hjb_scheme(m, self.p, base, self.beta)
        u = u_scale * np.random.default_rng(3).standard_normal(grid.shape)
        args = (self.p, gamma, grid.h, denom, self.beta)
        jac = _hjb_jacobian(residual(u)[1], *args[1:])
        return u, residual, args, jac

    @pytest.mark.parametrize("u_scale", [0.0, 0.01, 0.1])
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    def test_stores_only_the_active_entries_of_the_full_matrix(self, gamma, u_scale):
        u, _, args, jac = self.build(gamma, u_scale)
        perm, _ = nested_dissection_order(u.shape)
        assert jac.has_sorted_indices
        assert np.all(jac.data != 0.0)
        assert np.diff(jac.indptr).max() <= 2 * u.ndim + 1
        ref = full_jacobian(u, *args)
        ref.eliminate_zeros()
        assert jac.nnz == ref.nnz
        assert np.array_equal(jac.toarray(), ref.toarray()[np.ix_(perm, perm)])
        if u_scale == 0.0:
            # a constant u leaves one upwind slope per axis: 3 entries a row
            assert np.all(np.diff(jac.indptr) == u.ndim + 1)

    @pytest.mark.parametrize("u_scale", [0.0, 0.01, 0.1])
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    def test_rows_sum_to_beta(self, gamma, u_scale):
        # the upwind part of every row sums to zero, so J 1 = beta 1 for any u
        u, _, _, jac = self.build(gamma, u_scale)
        sums = jac @ np.ones(u.size)
        assert np.all(np.abs(sums - self.beta) <= 8 * np.finfo(float).eps * jac.diagonal())

    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    def test_product_matches_central_difference_of_the_residual(self, gamma):
        u, residual, _, jac = self.build(gamma, 0.1)
        perm, _ = nested_dissection_order(u.shape)
        # away from the kinks every upwind slope is either zero for the
        # whole stencil of the difference or bounded away from zero
        fwd = [(periodic_shift(u, 1, k) - u) * self.n for k in range(2)]
        assert min(np.min(np.abs(-self.p[k] - fwd[k])) for k in range(2)) > 1e-2
        v = np.random.default_rng(4).uniform(-1.0, 1.0, u.shape)
        eps = 1e-7
        fd = (residual(u + eps * v)[0] - residual(u - eps * v)[0]) / (2.0 * eps)
        fd = fd.ravel()[perm]
        jv = jac @ v.ravel()[perm]
        assert np.allclose(jv, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("n", [12, 33])
    def test_nested_dissection_step_equals_the_natural_order_step(self, n):
        # the Newton step as solve_hjb_discounted takes it, scattered back
        # through perm, against SuperLU's default ordering on C order
        u, residual, args, jac = self.build(3.0, 0.1, n)
        perm, inv = nested_dissection_order(u.shape)
        r = residual(u)[0].ravel()
        step = spla.spsolve(jac, -r[perm], permc_spec="NATURAL")[inv]
        ref = full_jacobian(u, *args)
        ref.eliminate_zeros()
        expected = spla.spsolve(ref, -r)
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)


class CountingFactor:
    """A SuperLU factor whose solves are counted; `fill` replaces them."""

    def __init__(self, lu, solves, fill=None):
        self.lu, self.solves, self.fill = lu, solves, fill

    def solve(self, rhs, trans="N"):
        self.solves.append(trans)
        if self.fill is not None:
            return np.full(rhs.shape, self.fill)
        return self.lu.solve(rhs, trans=trans)


def count_factor_work(monkeypatch, fill=None):
    """Wrap spsolve and splu in transform: the sizes of the spsolve and splu
    calls, and the trans flag of every factor solve."""
    work = {"spsolve": [], "splu": [], "solve": []}
    spsolve, splu = spla.spsolve, spla.splu

    def counting_spsolve(*args, **kwargs):
        work["spsolve"].append(args[0].shape[0])
        return spsolve(*args, **kwargs)

    def counting_splu(*args, **kwargs):
        work["splu"].append(args[0].shape[0])
        return CountingFactor(splu(*args, **kwargs), work["solve"], fill)

    monkeypatch.setattr(transform.spla, "spsolve", counting_spsolve)
    monkeypatch.setattr(transform.spla, "splu", counting_splu)
    return work


def hjb_problem(dim, n, gamma):
    """sin V (sin cos in 2D), m proportional to 1 + 0.5 cos 2 pi (x + 0.3),
    unit quadratic G, alpha 0.5: the input of the cold-start stalls."""
    grid = TorusGrid(dim, n)
    if dim == 1:
        V = PotentialFamily("cosine-shift", {"amplitude": 1.0, "shift": 0.25})
    else:
        V = sine_cosine()
    spec = ProblemSpec(dim, n, 0.5, gamma, (0.0,) * dim, V.sample(grid), QUAD)
    mv = 1.0 + 0.5 * np.cos(2 * np.pi * (grid.coords()[0] + 0.3))
    return spec, GridFunction(grid, mv / mv.mean())


def plain_newton(m, P, spec, beta, u0):
    """Full Newton steps in C order, a fresh `spsolve` every step, until the
    residual is under 1e-10 and stops falling."""
    p = np.asarray(P, dtype=float)
    residual, denom = _hjb_scheme(m, p, spec, beta)
    u = np.array(u0, dtype=float)
    r = residual(u)[0]
    for _ in range(200):
        jac = full_jacobian(u, p, spec.gamma, m.grid.h, denom, beta)
        u_next = u + spla.spsolve(jac.tocsc(), -r.ravel()).reshape(u.shape)
        r_next = residual(u_next)[0]
        if np.max(np.abs(r)) <= 1e-10 and np.max(np.abs(r_next)) >= np.max(np.abs(r)):
            return u
        u, r = u_next, r_next
    raise AssertionError("plain Newton did not settle")


class TestHJBNewton:
    def test_pipeline_newton_work_and_hbar_are_pinned(self, monkeypatch):
        # alpha_lt_1-style problem, one solve at beta = 0.001 from the dual
        # start: one spsolve, then one factor that carries the rest of the
        # solve (6 factor solves).  H-bar is that of the 10 C-order Newton
        # solves of the first sparse pipeline, and the factor-solve count
        # follows the dual m to rounding
        work = count_factor_work(monkeypatch)
        res = pipeline_alpha_lt_1(DualSpec(base_spec(32, sine_cosine()), (1.0, 0.0)))
        assert work["spsolve"] == [32 * 32]
        assert work["splu"] == [32 * 32]
        assert work["solve"] == ["T"] * 6
        assert res.Hbar == pytest.approx(-0.4300979012669483, abs=1e-12)
        assert res.residuals["hjb_max_residual"] <= 1e-10

    @pytest.mark.parametrize("dim, n, P", [(2, 32, (0.7, -0.4)), (1, 512, (0.5,))])
    def test_one_upwind_pass_per_residual(self, monkeypatch, dim, n, P):
        # the Jacobian reads the slopes of its iterate's residual, so the
        # upwind slopes run once per residual evaluation and never inside
        # `_hjb_jacobian`; the rounding floor is read off the Jacobian of the
        # next fresh step, so the 1D case, which stops on the floor, builds
        # one Jacobian that no step factors
        work = count_factor_work(monkeypatch)
        passes, residuals, jacobians = [], [], []
        in_jacobian = [False]
        upwind, scheme, jacobian = (transform.upwind_slopes, transform._hjb_scheme,
                                    transform._hjb_jacobian)

        def counted_slopes(*args):
            passes.append(in_jacobian[0])
            return upwind(*args)

        def counted_scheme(*args):
            residual, denom = scheme(*args)

            def counted_residual(u):
                residuals.append(1)
                return residual(u)

            return counted_residual, denom

        def counted_jacobian(*args):
            jacobians.append(1)
            in_jacobian[0] = True
            try:
                return jacobian(*args)
            finally:
                in_jacobian[0] = False

        monkeypatch.setattr(transform, "upwind_slopes", counted_slopes)
        monkeypatch.setattr(transform, "_hjb_scheme", counted_scheme)
        monkeypatch.setattr(transform, "_hjb_jacobian", counted_jacobian)
        spec, m = hjb_problem(dim, n, 3.0)
        solve_hjb_discounted(m, P, spec, 1e-3)
        factored = len(work["spsolve"]) + len(work["splu"])
        assert not any(passes)
        assert len(passes) == len(residuals) > len(jacobians)
        assert len(jacobians) == factored + (dim == 1)

    def test_non_finite_step_raises_at_once(self, monkeypatch):
        # spsolve returns NaN for an exactly singular matrix; the step
        # used to be halved 60 times before a "stalled" error
        calls = []

        def nan_solve(jac, rhs, **kwargs):
            calls.append(1)
            return np.full(rhs.shape, np.nan)

        monkeypatch.setattr(transform.spla, "spsolve", nan_solve)
        base = base_spec(8, sine_cosine())
        m = GridFunction(base.grid, np.ones(base.grid.shape))
        with pytest.raises(HJBConvergenceError, match="not finite"):
            solve_hjb_discounted(m, (1.0, 0.0), base, 0.1)
        assert calls == [1]

    def test_iteration_cap_raises(self, monkeypatch):
        # a cold start at n = 256 takes dozens of steps; with a cap of two the
        # residual is far above the tolerance and its rounding floor
        monkeypatch.setattr(transform, "_MAX_NEWTON", 2)
        spec, m = hjb_problem(1, 256, 3.0)
        with pytest.raises(HJBConvergenceError, match="did not reach tolerance"):
            solve_hjb_discounted(m, (0.5,), spec, 1e-3)

    def test_non_finite_factor_solve_raises_at_once(self, monkeypatch):
        # the first step is a plain spsolve; the second factors its Jacobian
        # and keeps the factor
        work = count_factor_work(monkeypatch, fill=np.nan)
        base = base_spec(8, sine_cosine())
        m = GridFunction(base.grid, np.ones(base.grid.shape))
        with pytest.raises(HJBConvergenceError, match="not finite"):
            solve_hjb_discounted(m, (1.0, 0.0), base, 0.1, u0=base.V.values)
        assert work == {"spsolve": [64], "splu": [64], "solve": ["T"]}

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("beta", [0.1, 1e-3])
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 12), (2, 24), (2, 33)])
    def test_kept_factor_solves_agree_with_plain_newton(self, dim, n, gamma, beta, warm):
        spec, m = hjb_problem(dim, n, gamma)
        P = (0.5,) if dim == 1 else (0.7, -0.4)
        u0 = spec.V.values - 0.45 / beta if warm else None
        u = solve_hjb_discounted(m, P, spec, beta, u0=u0).values
        ref = plain_newton(m, P, spec, beta, np.zeros(spec.grid.shape) if u0 is None else u0)
        h = spec.grid.h
        assert -beta * integrate_values(u, h) == pytest.approx(
            -beta * integrate_values(ref, h), abs=1e-12)
        assert np.max(np.abs(u - ref)) <= 1e-10

    @pytest.mark.parametrize("betas", [(0.1, 1e-2), (1e-2, 1e-3)])
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 12), (2, 24), (2, 33)])
    def test_reused_factor_solves_agree_with_fresh_solves(self, dim, n, gamma, betas):
        # a start near the solution, the solution at a neighbouring rate with
        # its mean rescaled by beta_prev / beta: the chord steps on the kept
        # factor reach the point that fresh Newton solves reach
        spec, m = hjb_problem(dim, n, gamma)
        P = (0.5,) if dim == 1 else (0.7, -0.4)
        beta_prev, beta = betas
        u_prev = solve_hjb_discounted(m, P, spec, beta_prev).values
        warm = u_prev + u_prev.mean() * (beta_prev / beta - 1.0)
        u = solve_hjb_discounted(m, P, spec, beta, u0=warm).values
        ref = plain_newton(m, P, spec, beta, warm)
        h = spec.grid.h
        assert -beta * integrate_values(u, h) == pytest.approx(
            -beta * integrate_values(ref, h), abs=1e-12)
        assert np.max(np.abs(u - ref)) <= 1e-10

    def test_pipeline_never_holds_two_factors(self, monkeypatch):
        factors = []
        splu = spla.splu

        def single_splu(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in factors)
            lu = CountingFactor(splu(*args, **kwargs), [])
            factors.append(weakref.ref(lu))
            return lu

        monkeypatch.setattr(transform.spla, "splu", single_splu)
        pipeline_alpha_lt_1(DualSpec(base_spec(32, sine_cosine()), (1.0, 0.0)))
        gc.collect()
        assert len(factors) == 1
        assert all(ref() is None for ref in factors)


class TestHJBRegressions:
    def test_inputs_that_used_to_stall_meet_the_tolerance(self):
        # n = 48 with |Q| = 1.2 raised HJBConvergenceError once; the two
        # axis directions are symmetry images, so their H-bar agree, and
        # each equals the H-bar of a cold solve
        base = base_spec(48, sine_cosine())
        hbar = []
        for Q in ((1.2, 0.0), (0.0, 1.2)):
            res = pipeline_alpha_lt_1(DualSpec(base, Q))
            assert res.residuals["hjb_max_residual"] <= 1e-10
            assert res.Hbar == pytest.approx(cold_hbar(res, base), abs=1e-12)
            hbar.append(res.Hbar)
        assert hbar[0] == pytest.approx(hbar[1], abs=1e-7)

    # Backtracking on the max residual stalled cold starts at these inputs
    # until the 200-step cap (HJBConvergenceError); full Newton steps on
    # fresh Jacobians converge.
    @pytest.mark.parametrize("P", [0.5, -0.9])
    @pytest.mark.parametrize("beta", [0.1, 1e-3])
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    def test_1d_cold_starts_that_used_to_stall(self, gamma, beta, P):
        spec, m = hjb_problem(1, 256, gamma)
        u = solve_hjb_discounted(m, (P,), spec, beta)
        assert hjb_residual(u, m, (P,), spec, beta) <= 1e-10

    # |u| is about 480 at beta = 1e-3, so on n = 512 the residual cannot
    # get under about 1e-10: rounding of u moves the gamma = 3 slopes by
    # eps |u| / h.  The solve stopped at 1.068e-10 (P 0.5) and 1.013e-10
    # (P -0.9) and raised HJBConvergenceError after 200 steps; it now stops
    # at the tolerance plus that rounding estimate, 2.2e-10 here
    @pytest.mark.parametrize("P", [0.5, -0.9])
    def test_1d_fine_grid_stops_at_the_rounding_floor(self, P):
        spec, m = hjb_problem(1, 512, 3.0)
        u = solve_hjb_discounted(m, (P,), spec, 1e-3)
        assert hjb_residual(u, m, (P,), spec, 1e-3) <= 1.5e-10

    def test_2d_cold_start_that_used_to_stall(self):
        spec, m = hjb_problem(2, 96, 2.0)
        u = solve_hjb_discounted(m, (0.5, 0.5), spec, 0.1)
        assert hjb_residual(u, m, (0.5, 0.5), spec, 0.1) <= 1e-10
