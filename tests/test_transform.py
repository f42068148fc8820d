import numpy as np
import pytest
import scipy.sparse as sps

from torusmfg import transform
from torusmfg.grid import GridFunction, TorusGrid, integrate_values, periodic_shift, upwind_slopes
from torusmfg.model import CouplingG, PotentialFamily, ProblemSpec
from torusmfg.transform import (
    DualSpec,
    _hjb_jacobian,
    _hjb_scheme,
    _neighbour_columns,
    pipeline_alpha_lt_1,
    recover_P,
    solve_dual,
    solve_hjb_discounted,
    transform_exponents,
)

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


class TestConstantRoundTrip:
    @pytest.mark.parametrize("Q", [(1.0, 0.0), (0.0, -1.0), (0.6, -1.3)])
    def test_constant_potential_recovers_rotated_Q(self, Q):
        # flat V: psi = 0 and m = 1 solve the dual problem, the flux is Q
        # itself (gamma' = 2), so Pperp = Q and P = (Q2, -Q1)
        dual = DualSpec(base_spec(12), Q)
        res = solve_dual(dual)
        psi, m = res.u, res.m
        assert np.max(np.abs(psi.values)) <= 1e-12
        assert np.max(np.abs(m.values - 1.0)) <= 1e-12
        P = recover_P(psi, m, dual)
        assert P == pytest.approx([Q[1], -Q[0]], abs=1e-12)


class TestPipeline:
    def test_hjb_residual_meets_tolerance(self):
        res = pipeline_alpha_lt_1(DualSpec(base_spec(16, sine_cosine()), (1.0, 0.0)),
                                  hjb_tol=1e-10)
        assert res.residuals["hjb_max_residual"] <= 1e-10
        assert [b for b, _, _ in res.discount_estimates] == [1e-1, 1e-2, 1e-3]
        assert all(r <= 1e-10 for _, _, r in res.discount_estimates)
        assert res.u.values.max() == 0.0
        assert res.residuals["hbar_dual_consistency"] <= 2e-4

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
        # Rescaling the whole of u by beta_prev / beta between discount
        # rates blew up its oscillating part and the Newton loop stalled
        # (HJBConvergenceError) on this input.
        base = base_spec(32, sine_cosine((0.40639737180044866, 0.48768299940789794)))
        res = pipeline_alpha_lt_1(DualSpec(base, (-1.0, 0.0)))
        assert res.residuals["hjb_max_residual"] <= 1e-10
        beta = 1e-3
        cold = solve_hjb_discounted(res.m, res.P_recovered, base, beta)
        hbar_cold = -beta * integrate_values(cold.values, base.grid.h)
        assert res.Hbar == pytest.approx(hbar_cold, abs=1e-12)


class TestScheduleErrors:
    @pytest.mark.parametrize("schedule", [(), (0.1, 0.0), (1e-3, 1e-1), (0.1, 0.1),
                                          (0.1, -1e-3), (float("nan"),)])
    def test_bad_beta_schedule_raises_before_the_dual_solve(self, schedule, monkeypatch):
        # () used to raise IndexError after the dual solve, (0.1, 0.0)
        # ZeroDivisionError in the warm start, and (1e-3, 1e-1) returned
        # the beta = 0.1 estimate as H-bar
        def no_dual_solve(*args, **kwargs):
            raise AssertionError("the schedule is checked before the dual solve")

        monkeypatch.setattr(transform, "solve_dual", no_dual_solve)
        dual = DualSpec(base_spec(8, sine_cosine()), (1.0, 0.0))
        with pytest.raises(ValueError, match="beta_schedule"):
            pipeline_alpha_lt_1(dual, beta_schedule=schedule)

    @pytest.mark.parametrize("beta", [0.0, -1e-3])
    def test_hjb_rejects_nonpositive_beta(self, beta):
        base = base_spec(8, sine_cosine())
        m = GridFunction(base.grid, np.ones(base.grid.shape))
        with pytest.raises(ValueError, match="beta"):
            solve_hjb_discounted(m, (0.0, 1.0), base, beta)


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
    n, beta, p = 12, 1e-2, np.array([0.7, -0.4])

    def build(self, gamma, u_scale):
        base = base_spec(self.n, sine_cosine(), gamma=gamma)
        grid = base.grid
        x, y = np.meshgrid(*(np.arange(self.n) * grid.h,) * 2, indexing="ij")
        m = GridFunction(grid, 1.0 + 0.5 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        residual, denom = _hjb_scheme(m, self.p, base, self.beta)
        u = u_scale * np.random.default_rng(3).standard_normal(grid.shape)
        args = (self.p, gamma, grid.h, denom, self.beta)
        jac = _hjb_jacobian(u, *args, _neighbour_columns(grid.shape))
        return u, residual, args, jac

    @pytest.mark.parametrize("u_scale", [0.0, 0.01, 0.1])
    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    def test_stores_only_the_active_entries_of_the_full_matrix(self, gamma, u_scale):
        u, _, args, jac = self.build(gamma, u_scale)
        assert np.all(jac.data != 0.0)
        assert np.diff(jac.indptr).max() <= 2 * u.ndim + 1
        ref = full_jacobian(u, *args)
        ref.eliminate_zeros()
        assert jac.nnz == ref.nnz
        assert np.array_equal(jac.toarray(), ref.toarray())
        if u_scale == 0.0:
            # a constant u leaves one upwind slope per axis: 3 entries a row
            assert np.all(np.diff(jac.indptr) == u.ndim + 1)

    @pytest.mark.parametrize("gamma", [2.0, 3.0])
    def test_product_matches_central_difference_of_the_residual(self, gamma):
        u, residual, _, jac = self.build(gamma, 0.1)
        # away from the kinks every upwind slope is either zero for the
        # whole stencil of the difference or bounded away from zero
        fwd = [(periodic_shift(u, 1, k) - u) * self.n for k in range(2)]
        assert min(np.min(np.abs(-self.p[k] - fwd[k])) for k in range(2)) > 1e-2
        v = np.random.default_rng(4).uniform(-1.0, 1.0, u.shape)
        eps = 1e-7
        fd = (residual(u + eps * v) - residual(u - eps * v)) / (2.0 * eps)
        jv = (jac @ v.ravel()).reshape(u.shape)
        assert np.allclose(jv, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


class TestHJBRegressions:
    def test_inputs_that_used_to_stall_meet_the_tolerance(self):
        # n = 48 with |Q| = 1.2 raised HJBConvergenceError once; the two
        # axis directions are symmetry images, so their H-bar agree
        hbar = []
        for Q in ((1.2, 0.0), (0.0, 1.2)):
            res = pipeline_alpha_lt_1(DualSpec(base_spec(48, sine_cosine()), Q))
            assert res.residuals["hjb_max_residual"] <= 1e-10
            hbar.append(res.Hbar)
        assert hbar[0] == pytest.approx(hbar[1], abs=1e-7)
