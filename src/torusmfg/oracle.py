"""Closed-form and semi-analytic reference solutions.

For P = 0 the minimiser is u = 0 with m(x) = (G*)'(V(x) - Hbar), the
normalisation constant fixed by unit mass.  For critical congestion
(alpha = 1, P != 0) u is constant and m solves a scalar equation per node,
again with an outer scalar solve for Hbar.  Both are the exact minimisation
over m at u = 0, so each oracle is one call of the nested m-block
`variational.nested_m` with kin = |P|^gamma at every node, from m = 1 and
the Hbar at which m = 1 solves every node for constant V.  Its node roots
are closed forms wherever the coupling allows: the P = 0 power of
`CouplingG.conjugate_deriv` for a one-term coupling, and the quadratic for
g(m) = kappa m at alpha = 1.  The oracles add the checks of the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, integrate_values
from .model import BracketError, ProblemSpec
from .variational import DiscreteObjective, cold_hbar, nested_m
from .optimizer import SolveResult, solve_result

# mass error allowed by solve_P0, and nodewise and mass residuals allowed by
# solve_critical
MASS_TOL = 1e-12
RESIDUAL_TOL = 1e-10
# nodes per axis of the fine grid of continuum_Hbar_P0, by dimension
N_FINE = {1: 200_000, 2: 2048}


def _kinetic_at_u0(spec: ProblemSpec) -> np.ndarray:
    """|P + Du|^gamma at u = 0: P + Du is P at every node, so |P|^gamma
    summed and raised as `kinetic_density` does, without its stencils."""
    p_sq = sum(p * p for p in spec.P)
    return np.full(spec.grid.shape, p_sq) ** (spec.gamma / 2.0)


def _m_block_at_u0(spec: ProblemSpec, kin: np.ndarray) -> tuple[float, np.ndarray]:
    """(Hbar, m) of the nested m-block from m = 1 and the cold Hbar guess."""
    return nested_m(spec, kin, cold_hbar(spec, kin), np.ones(spec.grid.shape))


def _result_from_point(spec: ProblemSpec, kin: np.ndarray, m: np.ndarray,
                       hbar: float) -> SolveResult:
    """The SolveResult of the oracle point (u, m) = (0, m), kin at u = 0;
    J_h is undefined at alpha = 1, so the objective is NaN there."""
    obj = DiscreteObjective(spec)
    u = np.zeros(spec.grid.shape)
    objective = obj.value_arrays(u, m, kin) if spec.alpha > 1.0 else float("nan")
    return solve_result(obj, u, m, kin, hbar, objective, 0, "stationary", 0.0)


def solve_P0(spec: ProblemSpec) -> SolveResult:
    """Explicit minimiser for P = 0: u = 0, m = (G*)'(V - Hbar)."""
    if spec.P_norm != 0.0:
        raise ValueError("closed-form path requires P = 0")
    grid = spec.grid
    kin = _kinetic_at_u0(spec)
    hbar, m = _m_block_at_u0(spec, kin)
    if abs(grid.h**grid.dim * m.sum() - 1.0) > MASS_TOL:
        raise BracketError("mass normalisation did not converge to tolerance")
    return _result_from_point(spec, kin, m, hbar)


def continuum_Hbar_P0(spec: ProblemSpec, potential) -> float:
    """Normalisation constant of the closed form in the continuum limit.

    Resolves h^d sum (G*)'(V - Hbar) = 1 on a much finer sampling of the
    same potential (N_FINE nodes per axis), removing the O(h^2) quadrature
    bias of the coarse grid at the free boundary of m.
    """
    if spec.P_norm != 0.0:
        raise ValueError("closed-form path requires P = 0")
    fine = spec.with_grid_size(N_FINE[spec.dim], potential)
    return _m_block_at_u0(fine, np.zeros(fine.grid.shape))[0]


def solve_critical(spec: ProblemSpec) -> SolveResult:
    """Critical congestion alpha = 1: u constant, m from the algebraic solve.

    Each node solves g(m) + Hbar - V = |P|^gamma / (gamma m), multiplied by
    m: psi(m) = m (g(m) + Hbar - V) - k = 0 with k = |P|^gamma / gamma.
    psi is convex on m >= 0 with psi(0) < 0, so it has one positive root,
    which `nested_m` finds; the nodewise and mass residuals are checked here.
    """
    if spec.alpha != 1.0:
        raise ValueError("critical path requires alpha = 1")
    if spec.P_norm == 0.0:
        raise ValueError("critical path requires P != 0 (nodewise solvability)")
    grid = spec.grid
    V = spec.V.values
    kinetic = spec.P_norm**spec.gamma / spec.gamma
    kin = _kinetic_at_u0(spec)
    hbar, m = _m_block_at_u0(spec, kin)

    residual = kinetic / m - spec.coupling.g(m) - (hbar - V)
    if np.max(np.abs(residual)) > RESIDUAL_TOL:
        raise BracketError("nodewise algebraic residual above tolerance")
    if abs(grid.h**grid.dim * m.sum() - 1.0) > RESIDUAL_TOL:
        raise BracketError("critical mass normalisation above tolerance")
    return _result_from_point(spec, kin, m, hbar)


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
