"""Closed-form and semi-analytic reference solutions.

For P = 0 the minimiser is u = 0 with m(x) = (G*)'(V(x) - Hbar), the
normalisation constant fixed by unit mass.  For critical congestion
(alpha = 1, P != 0) u is constant and m solves a scalar equation per node,
again with an outer scalar solve for Hbar.  Both are the exact minimisation
over m at u = 0, so both oracles are one private solve, `_solve_at_u0`:
a call of the nested m-block `variational.nested_m` on the node equation
m^a (g(m) + Hbar - V) = k with exponent a = alpha and right side
k = |P|^gamma / gamma at every node, from m = 1 and the Hbar at which
m = 1 solves every node for constant V, returned as the SolveResult of
(u, m) = (0, m), which it builds itself.  k is one number, so the block
is a whole-array one: at P = 0 it is the vacuum closure of
`variational._node_density`,
m = (G*)'(V - Hbar) by `CouplingG.conjugate_deriv`, at any alpha (the
closure that `nested_m` also makes of an exponent-0 block, as the k = 0
block at the potential V + k), and at alpha = 1 the node roots.  Those
are closed forms wherever the coupling allows: the k = 0 power of
`conjugate_deriv` for a one-term coupling, and the quadratic for
g(m) = kappa m at a = 1.  `_solve_at_u0` also checks its answer with the
k and m it has just formed, so the oracles add only the checks of their
input; the nodewise Hamiltonian of that check also gives the result's
Hbar_std.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, TorusGrid, integrate_values
from .model import BracketError, ProblemSpec
from .variational import (
    MASS_CUTOFF,
    DiscreteObjective,
    cold_hbar,
    nested_m,
)
from .optimizer import SolveResult

# mass error and nodewise residual (at the nodes with k > 0) allowed in an
# answer of _solve_at_u0
MASS_TOL = 1e-12
RESIDUAL_TOL = 1e-10
# nodes per axis of the fine grid of continuum_Hbar_P0, by dimension
N_FINE = {1: 200_000, 2: 2048}


def _solve_at_u0(spec: ProblemSpec) -> SolveResult:
    """The SolveResult of (u, m) = (0, m), with (Hbar, m) from the nested
    m-block started at m = 1 and the cold Hbar guess, checked before it is
    returned.

    At u = 0, P + Du is P at every node, so k is one number, formed once
    by `kinetic_density` of w = P on a one-node field and filled into the
    grid, with no stencils.  The one-node field takes the same array power
    as the grid would, bit for bit; the power of a NumPy scalar can differ
    from it in the last bit.  J_h is undefined at alpha = 1, so the
    objective is NaN there.  k is the same at every node,
    so it is positive at every node (P != 0) or at none (P = 0), and the
    nodewise Hamiltonian q = k/m^alpha + V - g(m) is formed once on whole
    arrays, as q = V - g(m) where k = 0.  The answer must meet
    max |q - Hbar| <= RESIDUAL_TOL where k > 0, and unit mass to MASS_TOL;
    otherwise BracketError.  Hbar_std is the std of q over
    {m > MASS_CUTOFF}, in the expression order of `estimate_Hbar`, so it
    equals that estimate bit for bit.
    """
    shape, obj = spec.grid.shape, DiscreteObjective(spec)
    k = np.full(shape, obj.kinetic_density([np.full(1, p) for p in spec.P])[0])
    V, coupling = spec.V.values, spec.coupling
    hbar, m = nested_m(spec.alpha, k, V, coupling, cold_hbar(k, V, coupling),
                       np.ones(shape))
    pos = k > 0.0
    q = (k / m**spec.alpha + V if pos.all() else V) - coupling.g(m)
    if np.max(np.abs(q[pos] - hbar), initial=0.0) > RESIDUAL_TOL:
        raise BracketError("nodewise algebraic residual above tolerance")
    if abs(integrate_values(m, spec.grid.h) - 1.0) > MASS_TOL:
        raise BracketError("mass normalisation did not converge to tolerance")
    # unit mass leaves m >= 1 > MASS_CUTOFF at some node
    hbar_std = float(q[m > MASS_CUTOFF].std())
    objective = float("nan")
    if spec.alpha > 1.0:
        objective = obj.value_arrays(k, m, obj.stiffness(m))
    return SolveResult(spec.grid.zeros(), GridFunction(spec.grid, m), hbar, hbar_std,
                       objective, 0, "stationary", 0.0)


def solve_P0(spec: ProblemSpec) -> SolveResult:
    """Explicit minimiser for P = 0: u = 0, m = (G*)'(V - Hbar)."""
    if spec.P_norm != 0.0:
        raise ValueError("closed-form path requires P = 0")
    return _solve_at_u0(spec)


def continuum_Hbar_P0(spec: ProblemSpec, potential) -> float:
    """Normalisation constant of the closed form in the continuum limit.

    Resolves h^d sum (G*)'(V - Hbar) = 1 on a much finer sampling of the
    same potential (N_FINE nodes per axis), removing the O(h^2) quadrature
    bias of the coarse grid at the free boundary of m.
    """
    if spec.P_norm != 0.0:
        raise ValueError("closed-form path requires P = 0")
    fine = TorusGrid(spec.dim, N_FINE[spec.dim])
    k, V = np.zeros(fine.shape), potential.sample(fine).values
    return nested_m(spec.alpha, k, V, spec.coupling, cold_hbar(k, V, spec.coupling),
                    np.ones(fine.shape))[0]


def solve_critical(spec: ProblemSpec) -> SolveResult:
    """Critical congestion alpha = 1: u constant, m from the algebraic solve.

    Each node solves g(m) + Hbar - V = |P|^gamma / (gamma m), multiplied by
    m: psi(m) = m (g(m) + Hbar - V) - k = 0 with k = |P|^gamma / gamma.
    psi is convex on m >= 0 with psi(0) < 0, so it has one positive root,
    which `nested_m` finds; `_solve_at_u0` checks the nodewise and mass
    residuals.
    """
    if spec.alpha != 1.0:
        raise ValueError("critical path requires alpha = 1")
    if spec.P_norm == 0.0:
        raise ValueError("critical path requires P != 0 (nodewise solvability)")
    return _solve_at_u0(spec)


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
