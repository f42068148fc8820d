"""Solvers for first-order stationary mean-field games with congestion
on the 1D/2D torus, built around a convex variational discretisation."""

from .grid import GridFunction, TorusGrid
from .model import (
    CouplingG,
    PotentialFamily,
    ProblemSpec,
    barf,
    barf_recession,
)
from .optimizer import SolveOptions, SolveResult, minimize
from .oracle import classical_existence_check, solve_critical, solve_P0
from .variational import (
    AprioriDiagnostics,
    DegenerateSolutionError,
    DiscreteObjective,
    FeasiblePoint,
    apriori_diagnostics,
    estimate_Hbar,
    project_feasible,
)

__version__ = "0.1.0"

__all__ = [
    "TorusGrid", "GridFunction",
    "CouplingG", "PotentialFamily", "ProblemSpec",
    "barf", "barf_recession",
    "DiscreteObjective", "FeasiblePoint", "AprioriDiagnostics",
    "project_feasible", "estimate_Hbar",
    "apriori_diagnostics", "DegenerateSolutionError",
    "SolveOptions", "SolveResult", "minimize",
    "solve_P0", "solve_critical", "classical_existence_check",
    "__version__",
]
