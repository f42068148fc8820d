import numpy as np
import pytest

from torusmfg.grid import TorusGrid, integrate_values
from torusmfg.model import CouplingG, PotentialFamily, ProblemSpec
from torusmfg.transform import (
    DualSpec,
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
