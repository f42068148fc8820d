"""Minimisation of the discrete congestion functional J_h over A_h.

For fixed u, J_h separates by node in m, with one multiplier Hbar fixing
unit mass, so `variational.optimal_m` at exponent alpha and right side
k = |P + Du|^gamma / gamma gives the exact m*(u) and Hbar.  The
solver minimises the reduced functional J(u) = J_h(u, m*(u)) over mean-zero
u; by the envelope theorem its gradient is the u-partial of J_h at m*(u).
Each trial point forms w = P + Du once: k, J_h and the u-gradient are
all read off it.

The direction is the L-BFGS two-loop recursion (Nocedal & Wright, Numerical
Optimization, ch. 7) over the last LBFGS_MEMORY steps.  Its initial inverse
Hessian is the spectral step M v = pinv(L) v / (h^d mean(a)), de-meaned,
with L = sum_k D_k^T D_k applied by FFT (`grid.normal_pinv_values`) and
the kinetic stiffness a = 1/((alpha-1) m^(alpha-1)) of
`DiscreteObjective.stiffness`.  For gamma = 2 and constant m, M is the
inverse u-Hessian, so iteration counts stay flat under grid refinement.
Once a step is stored, M is scaled by s.y / (y.M y) of the newest one.
An iteration makes one FFT pair, pinv(L) of the accepted trial's gradient:
pinv(L) is linear, so each pair keeps py = pinv(L) y, the difference of
two such gradients' images, and the recursion applies pinv(L) to its
reduced gradient as a sum of stored vectors (`_two_loop`).  Each trial
forms its stiffness once, and J_h, the u-gradient and M all read it.

The line search halves the trial step from min(step0, 1).  Its Armijo test
is on the Lagrangian J_h + Hbar (h^d sum m - 1): m* has unit mass only to
rounding, and the multiplier term cancels the first-order effect of that
error.  Where the decrease lies within rounding of J, a trial passes on the
approximate Wolfe slope test of Hager & Zhang (SIAM J. Optim. 16, 2005)
instead.  The trial's gradient is formed in one place, for a trial that
passes Armijo or takes the slope test.  The solve is stationary once
|M grad J| <= tol_gradmap.
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
            # NaN fails every comparison, so it stops here too
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        # the cap fires on iters == max_iters, which a negative or
        # non-integral value never meets; a bool would cap at 0 or 1
        if (isinstance(self.max_iters, (bool, np.bool_))
                or not float(self.max_iters).is_integer()):
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
    # std of the nodewise Hamiltonian over {m > MASS_CUTOFF}, the m-block
    # residual: `estimate_Hbar` in `minimize`, the answer check's own
    # nodewise quantity in the oracles
    Hbar_std: float
    objective: float
    iters: int
    # "stationary": gradmap <= tol_gradmap, or an exact oracle solution;
    # "line_search": no trial down to MIN_STEP passed the line search, so
    # the iterate can no longer change; "iteration_cap": max_iters ran out
    stop_reason: str
    gradmap: float

    @property
    def converged(self) -> bool:
        """Whether the solve stopped at a stationary point."""
        return self.stop_reason == "stationary"

    @property
    def point(self) -> FeasiblePoint:
        return FeasiblePoint(self.u, self.m)


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
        if init.grid != grid:
            raise ValueError("init sampled on a different grid than the problem")
        u, m = init.u.values, init.m.values
    elif init == "uniform":
        u, m = np.zeros(grid.shape), np.ones(grid.shape)  # a fixed point of the projection
    else:
        raise ValueError(f"unrecognised init {init!r}")
    return u - u.mean(), project_simplex_values(m)


def _two_loop(pairs, gu: np.ndarray, pg: np.ndarray,
              newest_scale: float) -> np.ndarray:
    """The L-BFGS direction H gu over pairs (s, y, py, 1/s.y), oldest
    first, with py = pinv(L) y and pg = pinv(L) gu.

    The initial inverse Hessian is newest_scale pinv(L).  The first loop
    reduces gu to q = gu - sum c_i y_i, and pinv(L) is linear, so
    pinv(L) q = pg - sum c_i py_i needs no FFT.
    """
    q, pq = gu.copy(), pg.copy()
    coeffs = []
    for s, y, py, rho in reversed(pairs):  # newest pair first
        coeffs.append(rho * float(np.vdot(s, q)))
        q -= coeffs[-1] * y
        pq -= coeffs[-1] * py
    direction = newest_scale * pq
    for (s, y, _, rho), c in zip(pairs, reversed(coeffs)):
        direction += (c - rho * float(np.vdot(y, direction))) * s
    return direction


def minimize(
    obj: DiscreteObjective,
    init="uniform",
    opts: SolveOptions | None = None,
    trace_file=None,
) -> SolveResult:
    """L-BFGS minimisation of J_h over A_h, with m exact for every u.

    init is "uniform" (u = 0, m = 1) or a FeasiblePoint, which is first
    projected onto A_h (ValueError if it lies on another grid); its m only
    warm-starts the first m-block.
    `random_feasible_point(grid, seed)` gives a seeded random one.  An
    optional text stream trace_file receives one
    "iter,objective,gradmap,step" CSV row per iteration.  J_h is convex
    only for 1 < alpha <= gamma; other exponents raise ValueError.

    A trial forms its stiffness a = `obj.stiffness(m)` once, and an
    accepted trial makes one FFT pair, which gives both M grad J and the
    new pair's pinv(L) y; each pair holds three arrays of the grid's shape.
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

    alpha, V, coupling = sp.alpha, sp.V.values, sp.coupling
    w = obj.drifted_grad(u)
    k = obj.kinetic_density(w)
    hbar, m = optimal_m(alpha, k, V, coupling, cold_hbar(k, V, coupling), m)
    a = obj.stiffness(m)
    J = obj.value_arrays(k, m, a)
    gu = obj.gradient_u_arrays(w, a)

    def pinv(v):
        r = normal_pinv_values(v, h)
        return r - r.mean()

    def metric_step(pg, a):
        """M grad from pg = pinv(L) grad: pg / (h^d mean stiffness)."""
        return pg / (hd * float(np.mean(a)))

    # (s, y, pinv(L) y, 1 / s.y) of the last LBFGS_MEMORY steps
    pairs: deque[tuple[np.ndarray, np.ndarray, np.ndarray, float]] = \
        deque(maxlen=LBFGS_MEMORY)
    newest_scale = 1.0  # s.y / (y.pinv(L) y) of the newest pair
    pg = pinv(gu)
    mg = metric_step(pg, a)
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
            direction = _two_loop(pairs, gu, pg, newest_scale)
            slope = float(np.vdot(gu, direction))  # decrease rate along -direction
        if slope <= 0.0:
            pairs.clear()
            direction = mg
            slope = float(np.vdot(gu, direction))

        t = min(opts.step0, 1.0)
        while t >= MIN_STEP:
            u_try = u - t * direction
            w_try = obj.drifted_grad(u_try)  # P + Du, shared by k and the current
            k_try = obj.kinetic_density(w_try)
            hbar_try, m_try = optimal_m(alpha, k_try, V, coupling, hbar, m)
            a_try = obj.stiffness(m_try)  # read by J, the current and M
            J_try = obj.value_arrays(k_try, m_try, a_try)
            drop = J_try - J + hbar * hd * float((m_try - m).sum())
            armijo = drop <= -ARMIJO_C * t * slope
            # where J cannot resolve the decrease, the slope test decides
            if armijo or abs(drop) <= ROUNDING * max(abs(J), 1.0):
                gu_try = obj.gradient_u_arrays(w_try, a_try)
                if armijo or (np.vdot(gu_try, direction)
                              >= -(1.0 - 2.0 * ARMIJO_C) * slope):
                    break
            t *= BACKTRACK
        else:
            stop_reason = "line_search"
            break

        s, y = u_try - u, gu_try - gu
        pg_try = pinv(gu_try)
        sy = float(np.vdot(s, y))
        if sy > 0.0:
            py = pg_try - pg  # pinv(L) y, as pinv(L) is linear
            pairs.append((s, y, py, 1.0 / sy))
            newest_scale = sy / float(np.vdot(y, py))
        u, m, a, k, hbar, J = u_try, m_try, a_try, k_try, hbar_try, J_try
        gu, pg = gu_try, pg_try
        iters += 1
        mg = metric_step(pg, a)
        gradmap = float(np.linalg.norm(mg))
        if trace_file is not None:
            trace_file.write(f"{iters},{J:.17g},{gradmap:.17g},{t:.17g}\n")

    point = FeasiblePoint(GridFunction(sp.grid, u), GridFunction(sp.grid, m))
    return SolveResult(point.u, point.m, hbar, estimate_Hbar(point, obj, k)[1], J,
                       iters, stop_reason, gradmap)
