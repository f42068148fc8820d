"""Closed-form and semi-analytic reference solutions.

For P = 0 the minimiser is u = 0 with m(x) = (G*)'(V(x) - Hbar), the
normalisation constant fixed by unit mass.  For critical congestion
(alpha = 1, P != 0) u is constant and m solves a strictly decreasing scalar
equation per node, again with an outer scalar solve for Hbar.  Both paths
write the node equation as phi(m) = 0 with phi increasing in m and in Hbar,
and run the shared kernels `model.monotone_root` (nodewise) and
`model.mass_root` (the multiplier).  Each node takes safeguarded Newton
steps, warm-started at its m for the previous Hbar.  The mass decreases
strictly in Hbar with slope -h^d sum 1/phi'(m*) (implicit function theorem;
vacuum nodes add 0), so Hbar takes safeguarded Newton steps as well.
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


def _result_from_point(spec: ProblemSpec, u: GridFunction, m: GridFunction,
                       hbar: float) -> SolveResult:
    obj = DiscreteObjective(spec)
    point = FeasiblePoint(u, m)
    _, hstd = estimate_Hbar(point, obj)
    objective = obj.value(point) if spec.alpha > 1.0 else float("nan")
    return SolveResult(
        u=u,
        m=m,
        Hbar=hbar,
        Hbar_std=hstd,
        objective=objective,
        iters=0,
        stop_reason="stationary",
        diagnostics=apriori_diagnostics(point, obj),
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

    lo = float(V.min()) - float(spec.coupling.g(1.0)) - 1.0  # mass >= 1 here
    hi = float(V.max())                                      # mass = 0 here
    hbar = mass_root(density, spec.grid.h**spec.dim, lo, hi)
    return hbar, density(hbar)[0]


def solve_P0(spec: ProblemSpec, mass_tol: float = 1e-12) -> SolveResult:
    """Explicit minimiser for P = 0: u = 0, m = (G*)'(V - Hbar)."""
    if spec.P_norm != 0.0:
        raise ValueError("closed-form path requires P = 0")
    grid = spec.grid
    hbar, m = _mass_solve_P0(spec)
    if abs(grid.h**grid.dim * m.sum() - 1.0) > mass_tol:
        raise BracketError("mass normalisation did not converge to tolerance")
    return _result_from_point(spec, grid.zeros(), GridFunction(grid, m), hbar)


def continuum_Hbar_P0(spec: ProblemSpec, potential, n_fine: int | None = None) -> float:
    """Normalisation constant of the closed form in the continuum limit.

    Resolves h^d sum (G*)'(V - Hbar) = 1 on a much finer sampling of the
    same potential, removing the O(h^2) quadrature bias of the coarse grid
    at the free boundary of m.
    """
    if n_fine is None:
        n_fine = 200_000 if spec.dim == 1 else 2048
    return _mass_solve_P0(spec.with_grid_size(n_fine, potential))[0]


def solve_critical(spec: ProblemSpec, residual_tol: float = 1e-10) -> SolveResult:
    """Critical congestion alpha = 1: u constant, m from the algebraic solve.

    Each node solves g(m) + Hbar - V - |P|^gamma / (gamma m) = 0, whose left
    side increases strictly from -inf to +inf on m > 0.
    """
    if spec.alpha != 1.0:
        raise ValueError("critical path requires alpha = 1")
    if spec.P_norm == 0.0:
        raise ValueError("critical path requires P != 0 (nodewise solvability)")
    grid = spec.grid
    hd = grid.h**grid.dim
    V = spec.V.values
    kinetic = spec.P_norm**spec.gamma / spec.gamma
    g = spec.coupling.g

    m_last = None

    def dphi(m):
        return spec.coupling.g_prime(m) + kinetic / m**2

    def density(hbar):
        # each solve is warm-started at the previous one's m
        nonlocal m_last
        m_last = monotone_root(
            lambda m: g(m) + hbar - V - kinetic / m,
            dphi,
            1e-14,
            np.ones(grid.shape),
            m_last,
        )
        return m_last, -1.0 / dphi(m_last)

    g1 = float(g(1.0))
    lo = float(V.min()) - g1 - kinetic - 1.0   # every root exceeds 1 here
    hi = float(V.max()) + g1 + kinetic + 1.0   # every root is below 1 here
    hbar = mass_root(density, hd, lo, hi)
    m = density(hbar)[0]

    residual = kinetic / m - g(m) - (hbar - V)
    if np.max(np.abs(residual)) > residual_tol:
        raise BracketError("nodewise algebraic residual above tolerance")
    if abs(hd * m.sum() - 1.0) > residual_tol:
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
