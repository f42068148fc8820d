"""Constrained minimisation of the discrete congestion functional over A_h.

The engine is projected gradient descent with Armijo backtracking,
alternating between the two blocks of the feasible set:

  u-block: mean-zero hyperplane, handled by de-meaning the step;
  m-block: scaled simplex {m >= 0, h^d sum m = 1}, handled by exact
           Euclidean sort-projection.

The u-step is preconditioned with the inverse of the constant-coefficient
kinetic Hessian.  For gamma = 2 the u-Hessian of J_h is h^d D^T diag(a) D
with kinetic stiffness a = 1/((alpha-1) m^(alpha-1)); its D^T D part makes
the condition number grow like N^2, and a step scaled only nodewise needs
O(N^2) iterations.  The direction is instead

    pinv(L) grad_u / (h^d mean(a)),    L = sum_k D_k^T D_k,

applied by FFT (`grid.normal_pinv_values`).  For gamma = 2 and constant m
it is exactly the Newton step, and on smooth problems the iteration count
stays flat under grid refinement.

Every accepted step decreases the objective (Armijo on the true
objective), every iterate is feasible, and convergence is declared on the
projected-gradient mapping, with the u-block measured in this metric, not
on the raw gradient, because the constraint multipliers make the raw
gradient nonzero at the constrained optimum.  When neither block finds an
Armijo step the iterate is frozen, and the solve stops at once.

The line searches do no stencil work.  The solver keeps w = P + Du and
|w|^gamma for the current u.  D is linear, so a u-trial along the direction
d has P + D(u - t d) = w - t Dd, with Dd taken once per step; w is taken
afresh from the accepted u, so rounding does not build up along the
iterations.  The m-block leaves u alone, so its gradient and every m-trial
reuse |w|^gamma.  An outer iteration costs one stencil per axis for each
of the u-gradient, Dd and the new w.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, central_diff_values, normal_pinv_values
from .variational import (
    M_FLOOR,
    AprioriDiagnostics,
    DegenerateSolutionError,
    DiscreteObjective,
    FeasiblePoint,
    apriori_diagnostics,
    estimate_Hbar,
    project_feasible,
    project_simplex_values,
)


ARMIJO_C = 1e-4   # accepted steps decrease J by at least this share of slope * t
BACKTRACK = 0.5   # factor on the trial step after each rejected trial


@dataclass
class SolveOptions:
    max_iters: int = 50000
    tol_gradmap: float = 1e-9      # norm of projected-gradient step per unit step
    tol_obj: float = 1e-13         # relative decrease over 50 iterations
    step0: float = 1.0             # trial-step cap; trial = min(step0, 2 * last)
    min_step: float = 1e-18        # a line search fails once its trial falls below

    def __post_init__(self):
        # min_step = 0 would let a line search backtrack forever: a trial at
        # t = 0 can fail Armijo by rounding, and 0 * BACKTRACK stays 0
        for name in ("tol_gradmap", "tol_obj", "step0", "min_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class SolveResult:
    u: GridFunction
    m: GridFunction
    Hbar: float
    Hbar_std: float
    objective: float
    iters: int
    # "stationary": gradmap <= tol_gradmap, or an exact oracle solution;
    # "stagnation": the objective fell by less than tol_obj (relative) over
    # 50 iterations; "line_search": neither block found an Armijo step, so
    # the iterate can no longer change; "iteration_cap": max_iters ran out
    stop_reason: str
    diagnostics: AprioriDiagnostics
    gradmap: float = float("nan")

    @property
    def converged(self) -> bool:
        """Whether the solve stopped at a stationary point."""
        return self.stop_reason == "stationary"

    @property
    def point(self) -> FeasiblePoint:
        return FeasiblePoint(self.u, self.m)


def random_feasible_point(grid, seed: int, u_scale: float = 0.1,
                          m_scale: float = 0.3) -> FeasiblePoint:
    """Smooth random start: low-frequency trig noise, projected onto A_h.

    Low-frequency by construction so the init carries no content in the
    central stencil's null modes (the Nyquist checkerboards), which the
    descent could never remove.
    """
    rng = np.random.default_rng(seed)

    def trig_noise(scale):
        out = np.zeros(grid.shape)
        if grid.dim == 1:
            x = grid.axis_coords()
            for k in range(1, 4):
                a, b = rng.normal(scale=scale / k, size=2)
                out += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
        else:
            X, Y = grid.coords()
            for kx in range(0, 3):
                for ky in range(0, 3):
                    if kx == 0 and ky == 0:
                        continue
                    a, b = rng.normal(scale=scale / (kx + ky), size=2)
                    phase = 2 * np.pi * (kx * X + ky * Y)
                    out += a * np.cos(phase) + b * np.sin(phase)
        return out

    u = GridFunction(grid, trig_noise(u_scale))
    m = GridFunction(grid, 1.0 + trig_noise(m_scale))
    return project_feasible(u, m)


def _initial_point(grid, init) -> FeasiblePoint:
    if isinstance(init, FeasiblePoint):
        return project_feasible(init.u, init.m)
    if init == "uniform":
        return FeasiblePoint(grid.zeros(), grid.constant(1.0))
    raise ValueError(f"unrecognised init {init!r}")


def minimize(
    obj: DiscreteObjective,
    init="uniform",
    opts: SolveOptions | None = None,
    trace_file=None,
) -> SolveResult:
    """Projected-gradient minimisation of J_h over A_h.

    init is "uniform" (u = 0, m = 1) or a FeasiblePoint, which is first
    projected onto A_h; `random_feasible_point(grid, seed)` gives a seeded
    random one.  An optional text stream trace_file receives one
    "iter,objective,gradmap,step" CSV row per iteration.
    """
    opts = opts or SolveOptions()
    sp = obj.spec
    pt = _initial_point(sp.grid, init)
    u = pt.u.values.copy()
    m = pt.m.values.copy()
    total_mass = float(sp.grid.num_nodes)

    J = obj.value_arrays(u, m)
    if not np.isfinite(J):
        raise ValueError("objective non-finite at the initial point (invalid init)")

    t_u = t_m = opts.step0
    history: deque[float] = deque(maxlen=51)
    history.append(J)
    stop_reason = "iteration_cap"
    gradmap = float("inf")
    iters = 0

    if trace_file is not None:
        trace_file.write("iter,objective,gradmap,step\n")

    h = sp.grid.h
    hd = h**sp.dim
    w = obj.drifted_grad(u)             # P + Du at the current u
    kin = obj.kinetic_from_drifted(w)   # |P + Du|^gamma at the current u

    def u_step():
        """One Armijo step in the mean-zero u block; returns its gradient map."""
        nonlocal u, w, kin, J, t_u
        gu = obj.gradient_u_arrays(u, m, w)
        mf = np.maximum(m, M_FLOOR)
        stiffness = float(np.mean(1.0 / ((sp.alpha - 1.0) * mf ** (sp.alpha - 1.0))))
        direction = normal_pinv_values(gu, h) / (hd * stiffness)
        direction = direction - direction.mean()
        grad_map = float(np.linalg.norm(direction))
        slope = float(np.vdot(gu, direction))  # decrease rate along -direction
        if slope <= 0.0:
            return grad_map, False
        dd = [central_diff_values(direction, h, k) for k in range(sp.dim)]
        t = min(opts.step0, 2.0 * t_u)
        while t >= opts.min_step:
            u_trial = u - t * direction
            kin_trial = obj.kinetic_from_drifted(
                [wk - t * dk for wk, dk in zip(w, dd)]
            )
            J_trial = obj.value_arrays(u_trial, m, kin_trial)
            if J_trial <= J - ARMIJO_C * t * slope:
                u, J, t_u = u_trial, J_trial, t
                w = obj.drifted_grad(u)  # fresh, so rounding does not build up
                kin = obj.kinetic_from_drifted(w)
                return grad_map, True
            t *= BACKTRACK
        return grad_map, False

    def m_step():
        """One Armijo step in the simplex m block; returns its gradient map."""
        nonlocal m, J, t_m
        gm = obj.gradient_m_arrays(u, m, kin)
        t0 = t = min(opts.step0, 2.0 * t_m)
        while t >= opts.min_step:
            m_trial = project_simplex_values(m - t * gm, total_mass)
            delta = m_trial - m
            slope_m = float(np.vdot(gm, delta))
            if slope_m >= 0.0:  # projected step vanished: stationary here
                return float(np.linalg.norm(delta)) / t, False
            J_trial = obj.value_arrays(u, m_trial, kin)
            if J_trial <= J + ARMIJO_C * slope_m:
                m, J, t_m = m_trial, J_trial, t
                return float(np.linalg.norm(delta)) / t, True
            t *= BACKTRACK
        # no trial passed Armijo: report the gradient map at the first trial
        delta = project_simplex_values(m - t0 * gm, total_mass) - m
        return float(np.linalg.norm(delta)) / t0, False

    # Relax u at the initial m before touching m.  Descent that lowers m
    # into the congested regime while u still carries noise makes the
    # kinetic term stiff (curvature ~ m^(-alpha-1)) and stalls the line
    # search; settling u first costs little and removes the transient.
    warmup_cap = min(10000, opts.max_iters)
    while iters < warmup_cap:
        map_u, moved = u_step()
        if not moved:
            break
        iters += 1
        history.append(J)
        if trace_file is not None:
            trace_file.write(f"{iters},{J:.17g},{map_u:.17g},{t_u:.17g}\n")
        if map_u <= max(opts.tol_gradmap, 1e-9):
            break

    while iters < opts.max_iters:
        iters += 1
        map_u, moved_u = u_step()
        map_m, moved_m = m_step()
        gradmap = float(np.hypot(map_u, map_m))
        history.append(J)
        if trace_file is not None:
            trace_file.write(
                f"{iters},{J:.17g},{gradmap:.17g},{max(t_u, t_m):.17g}\n"
            )
        if gradmap <= opts.tol_gradmap:
            stop_reason = "stationary"
            break
        if not (moved_u or moved_m):
            # (u, m, t_u, t_m, J) is frozen: every later iteration
            # would repeat this one exactly
            stop_reason = "line_search"
            break
        if len(history) == history.maxlen:
            drop = history[0] - J
            if drop <= opts.tol_obj * max(1.0, abs(J)):
                stop_reason = "stagnation"  # stopped, not stationary
                break

    ugf = GridFunction(sp.grid, u)
    mgf = GridFunction(sp.grid, m)
    point = FeasiblePoint(ugf, mgf)
    try:
        hbar, hstd = estimate_Hbar(point, obj)
    except DegenerateSolutionError:
        hbar, hstd = float("nan"), float("nan")
    return SolveResult(
        u=ugf,
        m=mgf,
        Hbar=hbar,
        Hbar_std=hstd,
        objective=J,
        iters=iters,
        stop_reason=stop_reason,
        diagnostics=apriori_diagnostics(point, obj),
        gradmap=gradmap,
    )
