"""Closed-form and semi-analytic reference solutions.

For P = 0 the minimiser is u = 0 with m(x) = (G*)'(V(x) - Hbar), the
normalisation constant fixed by unit mass.  For critical congestion
(alpha = 1, P != 0) u is constant and m solves a scalar equation per node,
again with an outer scalar solve for Hbar.  The multiplier Hbar comes from
the shared Newton kernel `model.mass_root`.  The mass decreases strictly in
Hbar with slope h^d sum dm/dHbar; vacuum nodes add 0.

The node solves are explicit wherever the coupling allows it:

- at P = 0, `CouplingG.conjugate_deriv` is a closed-form power for a
  one-term coupling c z^theta, with dm/dHbar = -1/g'(m);
- at alpha = 1, g(m) = 2c m (the one term (c, 2)) makes each node a
  quadratic, solved by the cancellation-free formula of `solve_critical`.

Other couplings, sums of terms included, write the node equation as
phi(m) = 0 with phi < 0 below the root and > 0 above it, and run the
nodewise Newton kernel `model.monotone_root`, each node warm-started at its
m for the previous Hbar; there dm/dHbar = -(dphi/dHbar) / phi'(m*) by the
implicit function theorem.  Either way the iteration on Hbar starts from
the Hbar at which m = 1 solves every node for constant V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, integrate_values
from .model import BracketError, ProblemSpec, mass_root, monotone_root
from .variational import (
    DiscreteObjective,
    FeasiblePoint,
    apriori_diagnostics,
    estimate_Hbar,
)
from .optimizer import SolveResult

# mass error allowed by solve_P0, and nodewise and mass residuals allowed by
# solve_critical
MASS_TOL = 1e-12
RESIDUAL_TOL = 1e-10
# nodes per axis of the fine grid of continuum_Hbar_P0, by dimension
N_FINE = {1: 200_000, 2: 2048}


def _result_from_point(spec: ProblemSpec, u: GridFunction, m: GridFunction,
                       hbar: float) -> SolveResult:
    obj = DiscreteObjective(spec)
    point = FeasiblePoint(u, m)
    kin = obj.kinetic_density(u.values)  # shared by the three evaluations
    _, hstd = estimate_Hbar(point, obj, kin=kin)
    objective = (obj.value_arrays(u.values, m.values, kin) if spec.alpha > 1.0
                 else float("nan"))
    return SolveResult(
        u=u,
        m=m,
        Hbar=hbar,
        Hbar_std=hstd,
        objective=objective,
        iters=0,
        stop_reason="stationary",
        diagnostics=apriori_diagnostics(point, obj, kin=kin),
        gradmap=0.0,
    )


def _mass_solve_P0(spec: ProblemSpec) -> tuple[float, np.ndarray]:
    """(Hbar, m) with m = (G*)'(V - Hbar) of unit mass on the spec's grid."""
    V = spec.V.values
    m_last = None

    def density(hbar):
        # each solve is warm-started at the previous one's m
        nonlocal m_last
        m_last = spec.coupling.conjugate_deriv(V - hbar, m0=m_last)
        pos = m_last > 0.0
        dm = np.zeros_like(m_last)
        dm[pos] = -1.0 / spec.coupling.g_prime(m_last[pos])  # 0 on vacuum nodes
        return m_last, dm

    # m = 1 everywhere at this Hbar when V is constant
    hbar0 = float(V.mean()) - float(spec.coupling.g(1.0))
    return mass_root(density, spec.grid.h**spec.dim, hbar0)


def solve_P0(spec: ProblemSpec) -> SolveResult:
    """Explicit minimiser for P = 0: u = 0, m = (G*)'(V - Hbar)."""
    if spec.P_norm != 0.0:
        raise ValueError("closed-form path requires P = 0")
    grid = spec.grid
    hbar, m = _mass_solve_P0(spec)
    if abs(grid.h**grid.dim * m.sum() - 1.0) > MASS_TOL:
        raise BracketError("mass normalisation did not converge to tolerance")
    return _result_from_point(spec, grid.zeros(), GridFunction(grid, m), hbar)


def continuum_Hbar_P0(spec: ProblemSpec, potential) -> float:
    """Normalisation constant of the closed form in the continuum limit.

    Resolves h^d sum (G*)'(V - Hbar) = 1 on a much finer sampling of the
    same potential (N_FINE nodes per axis), removing the O(h^2) quadrature
    bias of the coarse grid at the free boundary of m.
    """
    return _mass_solve_P0(spec.with_grid_size(N_FINE[spec.dim], potential))[0]


def solve_critical(spec: ProblemSpec) -> SolveResult:
    """Critical congestion alpha = 1: u constant, m from the algebraic solve.

    Each node solves g(m) + Hbar - V = |P|^gamma / (gamma m), multiplied by
    m: psi(m) = m (g(m) + Hbar - V) - k = 0 with k = |P|^gamma / gamma.
    psi is convex on m >= 0 with psi(0) < 0, so it has one positive root.

    For g(m) = kappa m, the one-term coupling (c, 2) with kappa = 2c, psi is
    the quadratic kappa m^2 + b m - k with b = Hbar - V.  With
    s = sqrt(b^2 + 4 kappa k) its root is m = 2k / (b + s) where b >= 0 and
    m = (s - b) / (2 kappa) where b < 0, neither of which cancels, and
    dm/dHbar = -m / s.  Every other coupling runs `monotone_root` on psi,
    warm-started at the previous Hbar's m; Newton started above the root
    stays above it.  Both paths share the mass solve and its checks.
    """
    if spec.alpha != 1.0:
        raise ValueError("critical path requires alpha = 1")
    if spec.P_norm == 0.0:
        raise ValueError("critical path requires P != 0 (nodewise solvability)")
    grid = spec.grid
    hd = grid.h**grid.dim
    V = spec.V.values
    kinetic = spec.P_norm**spec.gamma / spec.gamma
    g, g_prime = spec.coupling.g, spec.coupling.g_prime
    terms = spec.coupling.terms

    if len(terms) == 1 and terms[0][1] == 2.0:
        kappa = 2.0 * terms[0][0]
        r = 2.0 * np.sqrt(kappa * kinetic)  # s = hypot(b, r) cannot overflow

        def density(hbar):
            b = hbar - V
            s = np.hypot(b, r)
            big = s + np.abs(b)  # b + s where b >= 0, s - b where b < 0
            m = np.where(b >= 0.0, 2.0 * kinetic / big, big / (2.0 * kappa))
            return m, -m / s
    else:
        m_last = np.ones(grid.shape)

        def density(hbar):
            # each solve is warm-started at the previous one's m
            nonlocal m_last

            def dpsi(m):
                return g(m) + m * g_prime(m) + hbar - V

            m_last = monotone_root(
                lambda m: m * (g(m) + hbar - V) - kinetic, dpsi, 0.0, m_last
            )
            return m_last, -m_last / dpsi(m_last)

    # m = 1 everywhere at this Hbar when V is constant
    hbar0 = float(V.mean()) - float(g(1.0)) + kinetic
    hbar, m = mass_root(density, hd, hbar0)

    residual = kinetic / m - g(m) - (hbar - V)
    if np.max(np.abs(residual)) > RESIDUAL_TOL:
        raise BracketError("nodewise algebraic residual above tolerance")
    if abs(hd * m.sum() - 1.0) > RESIDUAL_TOL:
        raise BracketError("critical mass normalisation above tolerance")
    # J_h is undefined at alpha = 1, so the objective is reported as NaN
    return _result_from_point(spec, grid.zeros(), GridFunction(grid, m), hbar)


@dataclass
class ClassicalExistence:
    """Outcome of the quadratic-coupling existence check m = 1 + V."""

    m_formula: GridFunction
    min_value: float
    classical_exists: bool


def classical_existence_check(spec: ProblemSpec) -> ClassicalExistence:
    """For P=0, gamma=2, g(m)=m: the candidate classical solution is
    m = 1 + V (V normalised to mean zero); classical iff it stays positive."""
    if spec.P_norm != 0.0:
        raise ValueError("existence check requires P = 0")
    if spec.gamma != 2.0:
        raise ValueError("existence check requires gamma = 2")
    if spec.coupling.terms != ((0.5, 2.0),):
        raise ValueError("existence check requires the quadratic coupling g(m) = m")
    V0 = spec.V.values - integrate_values(spec.V.values, spec.grid.h)
    m = GridFunction(spec.grid, 1.0 + V0)
    mn = float(m.values.min())
    return ClassicalExistence(m_formula=m, min_value=mn, classical_exists=mn > 0.0)
