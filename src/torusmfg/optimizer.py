"""Minimisation of the discrete congestion functional J_h over A_h.

For fixed u, J_h separates by node in m, with one multiplier Hbar fixing
unit mass, so `variational.optimal_m` gives the exact m*(u) and Hbar.  The
solver minimises the reduced functional J(u) = J_h(u, m*(u)) over mean-zero
u; by the envelope theorem its gradient is the u-partial of J_h at m*(u).

The direction is the L-BFGS two-loop recursion (Nocedal & Wright, Numerical
Optimization, ch. 7) over the last LBFGS_MEMORY steps.  Its initial inverse
Hessian is the spectral step M v = pinv(L) v / (h^d mean(a)), de-meaned,
with L = sum_k D_k^T D_k applied by FFT (`grid.normal_pinv_values`) and
the kinetic stiffness a = 1/((alpha-1) m^(alpha-1)) of
`DiscreteObjective.stiffness`.  For gamma = 2 and constant m, M is the
inverse u-Hessian, so iteration counts stay flat under grid refinement.
Once a step is stored, M is scaled by s.y / (y.M y) of the newest one.

The line search halves the trial step from min(step0, 1).  Its Armijo test
is on the Lagrangian J_h + Hbar (h^d sum m - 1): m* has unit mass only to
rounding, and the multiplier term cancels the first-order effect of that
error.  Where the decrease lies within rounding of J, a trial passes on the
approximate Wolfe slope test of Hager & Zhang (SIAM J. Optim. 16, 2005)
instead.  The solve is stationary once |M grad J| <= tol_gradmap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, normal_pinv_values
from .variational import (
    DiscreteObjective,
    FeasiblePoint,
    cold_hbar,
    estimate_Hbar,
    optimal_m,
    project_feasible,
    project_simplex_values,
)


ARMIJO_C = 1e-4     # accepted steps decrease J by at least this share of slope * t
BACKTRACK = 0.5     # factor on the trial step after each rejected trial
LBFGS_MEMORY = 20   # (s, y) pairs kept by the two-loop recursion
# a line search fails once its trial step falls below MIN_STEP; it must be
# positive, since a trial at t = 0 can fail Armijo by rounding and
# 0 * BACKTRACK stays 0
MIN_STEP = 1e-18
ROUNDING = 64 * np.finfo(float).eps  # a change in J below this share of |J| is noise


@dataclass
class SolveOptions:
    max_iters: int = 50000
    tol_gradmap: float = 1e-9      # norm of the gradient in the metric M
    step0: float = 1.0             # cap on the first trial step, which is at most 1

    def __post_init__(self):
        for name in ("tol_gradmap", "step0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # the cap fires on iters == max_iters, which a negative or
        # non-integral value never meets
        if not float(self.max_iters).is_integer():
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass
class SolveResult:
    """The answer of one solve and why it stopped.  It holds no a-priori
    integrals: `variational.diagnostics_record` computes them on request."""

    u: GridFunction
    m: GridFunction
    Hbar: float                 # the multiplier of the mass constraint
    # std of the nodewise Hamiltonian over {m > MASS_CUTOFF}: the m-block
    # residual
    Hbar_std: float
    objective: float
    iters: int
    # "stationary": gradmap <= tol_gradmap, or an exact oracle solution;
    # "line_search": no trial down to MIN_STEP passed the line search, so
    # the iterate can no longer change; "iteration_cap": max_iters ran out
    stop_reason: str
    gradmap: float = float("nan")

    @property
    def converged(self) -> bool:
        """Whether the solve stopped at a stationary point."""
        return self.stop_reason == "stationary"

    @property
    def point(self) -> FeasiblePoint:
        return FeasiblePoint(self.u, self.m)


def solve_result(obj: DiscreteObjective, u: np.ndarray, m: np.ndarray,
                 kin: np.ndarray, hbar: float, objective: float, iters: int,
                 stop_reason: str, gradmap: float) -> SolveResult:
    """The SolveResult at (u, m); kin = |P + Du|^gamma gives Hbar_std."""
    grid = obj.spec.grid
    point = FeasiblePoint(GridFunction(grid, u), GridFunction(grid, m))
    return SolveResult(
        u=point.u,
        m=point.m,
        Hbar=hbar,
        Hbar_std=estimate_Hbar(point, obj, kin=kin)[1],
        objective=objective,
        iters=iters,
        stop_reason=stop_reason,
        gradmap=gradmap,
    )


def random_feasible_point(grid, seed: int) -> FeasiblePoint:
    """Smooth random start: low-frequency trig noise of scale 0.1 in u and
    0.3 about m = 1, projected onto A_h.

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

    u = GridFunction(grid, trig_noise(0.1))
    m = GridFunction(grid, 1.0 + trig_noise(0.3))
    return project_feasible(u, m)


def _initial_point(grid, init) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(init, FeasiblePoint):
        u, m = init.u.values, init.m.values
    elif init == "uniform":
        u, m = np.zeros(grid.shape), np.ones(grid.shape)  # a fixed point of the projection
    else:
        raise ValueError(f"unrecognised init {init!r}")
    return u - u.mean(), project_simplex_values(m, float(grid.num_nodes))


def minimize(
    obj: DiscreteObjective,
    init="uniform",
    opts: SolveOptions | None = None,
    trace_file=None,
) -> SolveResult:
    """L-BFGS minimisation of J_h over A_h, with m exact for every u.

    init is "uniform" (u = 0, m = 1) or a FeasiblePoint, which is first
    projected onto A_h; its m only warm-starts the first m-block.
    `random_feasible_point(grid, seed)` gives a seeded random one.  An
    optional text stream trace_file receives one
    "iter,objective,gradmap,step" CSV row per iteration.  J_h is convex
    only for 1 < alpha <= gamma; other exponents raise ValueError.
    """
    opts = opts or SolveOptions()
    sp = obj.spec
    if not 1.0 < sp.alpha <= sp.gamma:
        raise ValueError(
            f"minimize needs 1 < alpha <= gamma, got alpha={sp.alpha}, gamma={sp.gamma}"
        )
    h, hd = sp.grid.h, sp.grid.h**sp.dim
    u, m = _initial_point(sp.grid, init)
    if not np.all(np.isfinite(u)):
        raise ValueError("u non-finite at the initial point (invalid init)")

    kin = obj.kinetic_density(u)
    hbar, m = optimal_m(sp, kin, cold_hbar(sp, kin), m)
    J = obj.value_arrays(u, m, kin)
    gu = obj.gradient_u_arrays(u, m)

    def pinv(v):
        r = normal_pinv_values(v, h)
        return r - r.mean()

    def metric_step(pg, m):
        """M grad from pg = pinv(L) grad: pg / (h^d mean stiffness)."""
        return pg / (hd * float(np.mean(obj.stiffness(m))))

    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=LBFGS_MEMORY)
    newest_scale = 1.0  # s.y / (y.pinv(L) y) of the newest pair
    pg = pinv(gu)
    mg = metric_step(pg, m)
    gradmap = float(np.linalg.norm(mg))
    iters = 0
    stop_reason = "stationary"

    if trace_file is not None:
        trace_file.write("iter,objective,gradmap,step\n")

    while gradmap > opts.tol_gradmap:
        if iters == opts.max_iters:
            stop_reason = "iteration_cap"
            break
        slope = 0.0
        if pairs:
            # two-loop recursion, newest pair first
            q = gu.copy()
            coeffs = []
            for s, y, rho in reversed(pairs):
                coeffs.append(rho * float(np.vdot(s, q)))
                q -= coeffs[-1] * y
            direction = newest_scale * pinv(q)
            for (s, y, rho), c in zip(pairs, reversed(coeffs)):
                direction += (c - rho * float(np.vdot(y, direction))) * s
            slope = float(np.vdot(gu, direction))  # decrease rate along -direction
        if slope <= 0.0:
            pairs.clear()
            direction = mg
            slope = float(np.vdot(gu, direction))

        t = min(opts.step0, 1.0)
        while t >= MIN_STEP:
            u_try = u - t * direction
            kin_try = obj.kinetic_density(u_try)
            hbar_try, m_try = optimal_m(sp, kin_try, hbar, m)
            J_try = obj.value_arrays(u_try, m_try, kin_try)
            drop = J_try - J + hbar * hd * float(np.sum(m_try - m))
            if drop <= -ARMIJO_C * t * slope:
                gu_try = obj.gradient_u_arrays(u_try, m_try)
                break
            if abs(drop) <= ROUNDING * max(abs(J), 1.0):
                # J cannot resolve the decrease: take the slope test
                gu_try = obj.gradient_u_arrays(u_try, m_try)
                if np.vdot(gu_try, direction) >= -(1.0 - 2.0 * ARMIJO_C) * slope:
                    break
            t *= BACKTRACK
        else:
            stop_reason = "line_search"
            break

        s, y = u_try - u, gu_try - gu
        pg_try = pinv(gu_try)
        sy = float(np.vdot(s, y))
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
            newest_scale = sy / float(np.vdot(y, pg_try - pg))  # pinv(L) is linear
        u, m, kin, hbar, J = u_try, m_try, kin_try, hbar_try, J_try
        gu, pg = gu_try, pg_try
        iters += 1
        mg = metric_step(pg, m)
        gradmap = float(np.linalg.norm(mg))
        if trace_file is not None:
            trace_file.write(f"{iters},{J:.17g},{gradmap:.17g},{t:.17g}\n")

    return solve_result(obj, u, m, kin, hbar, J, iters, stop_reason, gradmap)
