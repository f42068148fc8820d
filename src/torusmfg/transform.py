"""Two-dimensional pipeline for sub-critical congestion (0 < alpha < 1).

The transport equation's flux is divergence-free, so in 2D it is the
rotated gradient of a stream function psi up to a constant vector Q.
Rewriting the system in (psi, m) lands back in the variational exponent
range with

    gamma' = gamma/(gamma-1),   alpha~ = alpha - (alpha-1) gamma',

drift Q, potential (gamma/gamma') V and coupling (gamma/gamma') G.  The
pipeline is: solve the dual variational problem for (psi, m), recover the
drift P by quadrature of the flux, then solve the discounted
Hamilton-Jacobi equation

    beta u + |P + Du|^gamma / (gamma m^alpha) + V - g(m) = 0

with a monotone upwind scheme at one small discount rate beta, where
-beta u approaches the effective Hamiltonian as beta -> 0.  The solve starts
from the dual solution, which fixes both P + Du (the rotated flux) and the
effective Hamiltonian.

The dual problem's stationarity in psi is D^T j = 0 for its current j
(`variational.DiscreteObjective.flux`), and the drift is read off that
same current: Pperp = (alpha~ - 1) integral of j, where
(alpha~ - 1) j = m^(1-alpha~) |Q+Dpsi|^(gamma'-2) (Q+Dpsi).

Orientation convention: with perp(v) = (-v2, v1), the drift is
P = (Pperp_2, -Pperp_1).  The mirrored solution (-u, m, -P) solves the
same system, so the orientation is a labelling choice; it is pinned by the
constant-field round trip Pperp = Q.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .grid import (
    GridFunction,
    central_diff2_values,
    central_diff_values,
    integrate_values,
    nested_dissection_order,
    normal_pinv_values,
    periodic_shift,
    upwind_slopes,
)
from .model import ProblemSpec
from .optimizer import SolveResult, minimize
from .variational import MASS_CUTOFF, DiscreteObjective

_MAX_NEWTON = 200
_RHO = 0.5             # least contraction per step that keeps the LU factor
_HJB_TOL = 1e-10       # max residual at which a discounted HJB solve stops
_BETA = 1e-3           # discount rate at which Hbar is read


class HJBConvergenceError(RuntimeError):
    """Discounted HJB iteration failed to reach the residual tolerance."""


def transform_exponents(alpha: float, gamma: float) -> tuple[float, float]:
    """(gamma', alpha~) for 0 < alpha < 1, gamma > 1, where 1 < alpha~ < gamma'
    in exact arithmetic.  ValueError where alpha~ rounds onto an end of that
    interval, as for alpha near 0 or 1 or gamma near 1 or huge."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"transform requires 0 < alpha < 1, got {alpha}")
    if not 1.0 < gamma < np.inf:
        raise ValueError(f"transform requires finite gamma > 1, got {gamma}")
    gamma_prime = gamma / (gamma - 1.0)
    alpha_tilde = alpha - (alpha - 1.0) * gamma_prime
    if not 1.0 < alpha_tilde < gamma_prime:
        raise ValueError(
            f"transformed exponents leave 1 < alpha~ < gamma' in floating point: "
            f"alpha~ = {alpha_tilde!r}, gamma' = {gamma_prime!r}"
        )
    return gamma_prime, alpha_tilde


@dataclass
class DualSpec:
    """Sub-critical base problem plus the stream-function drift Q.

    The base problem's drift P is not an input: the pipeline recovers it
    from the dual flux, so a base with P != 0 raises ValueError.
    `problem` is the transformed ProblemSpec, built once here.
    """

    base: ProblemSpec
    Q: tuple[float, float]

    def __post_init__(self):
        if self.base.dim != 2:
            raise ValueError("the stream-function transform is two-dimensional")
        if self.base.P_norm != 0.0:
            raise ValueError("the base drift is recovered from Q; pass P = (0, 0)")
        self.Q = tuple(float(q) for q in self.Q)
        if len(self.Q) != 2:
            raise ValueError("Q must have two components")
        if not np.isfinite(self.Q).all():
            raise ValueError(f"Q must be finite, got {self.Q}")
        self.gamma_prime, self.alpha_tilde = transform_exponents(
            self.base.alpha, self.base.gamma
        )
        # the transformed problem: exponents (alpha~, gamma'), drift Q,
        # potential and coupling scaled by gamma/gamma'
        b = self.base
        scale = b.gamma / self.gamma_prime
        self.problem = ProblemSpec(
            dim=2,
            n=b.n,
            alpha=self.alpha_tilde,
            gamma=self.gamma_prime,
            P=self.Q,
            V=GridFunction(b.grid, scale * b.V.values),
            coupling=b.coupling.scaled(scale),
        )


def _dual_flux(psi: GridFunction, m: GridFunction, dual: DualSpec) -> list[np.ndarray]:
    """(alpha~ - 1) times the current j of the dual problem, one array per axis."""
    obj = DiscreteObjective(dual.problem)
    j = obj.flux(obj.drifted_grad(psi.values), obj.stiffness(m.values))
    return [(dual.alpha_tilde - 1.0) * jk for jk in j]


def recover_P(flux: list[np.ndarray], h: float) -> np.ndarray:
    """Drift recovered from the quadrature of the dual flux (`_dual_flux`);
    P = (Pperp_2, -Pperp_1)."""
    pperp = np.array([integrate_values(flux[0], h), integrate_values(flux[1], h)])
    return np.array([pperp[1], -pperp[0]])


def dual_divergence_residual(flux: list[np.ndarray], h: float) -> float:
    """Discrete-L1 norm of a scheme-independent divergence of the dual
    flux (`_dual_flux`).

    Measured with the plain 2-point central divergence: the 5-point stencil
    is the adjoint of the scheme itself, so its divergence vanishes at the
    discrete optimum by stationarity and would only report solver noise.
    """
    div = central_diff2_values(flux[0], h, 0) + central_diff2_values(flux[1], h, 1)
    return integrate_values(np.abs(div), h)


def _flux_deficit(flux: list[np.ndarray], P: np.ndarray) -> list[np.ndarray]:
    """The rotated flux deficit rot(flux) - P, one array per axis.

    From Pperp + (Du)perp = flux with perp(v) = (-v2, v1), this is the
    gradient field Du that the dual solution asks of u.
    """
    return [flux[1] - P[0], -flux[0] - P[1]]


def curl_proxy(flux: list[np.ndarray], P: np.ndarray, h: float) -> float:
    """L1 norm of the discrete curl of the reconstructed Du candidate.

    The candidate gradient field is the rotated flux deficit; it is an
    honest gradient only if its curl vanishes, which the construction does
    not guarantee.  The pipeline does not report it: it equals
    `dual_divergence_residual` to about 15 digits.  It stays because the
    benchmark's tracer names it.
    """
    du = _flux_deficit(flux, P)
    curl = central_diff2_values(du[1], h, 0) - central_diff2_values(du[0], h, 1)
    return integrate_values(np.abs(curl), h)


# ---------------------------------------------------------------------------
# discounted Hamilton-Jacobi solve with the monotone upwind scheme

def _hjb_scheme(m: GridFunction, P, spec: ProblemSpec, beta: float):
    """(residual, denom) of the upwind scheme for the drift P, with
    denom = gamma m^alpha, m floored at MASS_CUTOFF.

    residual(u) returns (beta u + S(u)/denom + V - g(m), slopes): slopes are
    the upwind slopes (a, b) = `upwind_slopes(u, P, h)`, and S(u) is the sum
    over axes of a_k^gamma + b_k^gamma, the monotone upwind discretisation
    of |P + Du|^gamma.  S is non-increasing in every neighbour value and
    non-decreasing in u_i; Howard's argument in `solve_hjb_discounted`
    relies on it.  `_hjb_jacobian` builds the Jacobian at u from the same
    slopes, so each iterate costs one upwind pass.

    ValueError for an m on another grid than spec's, and for a drift P that
    does not have spec.dim finite components.
    """
    if m.grid != spec.grid:
        raise ValueError(f"m lies on {m.grid}, the problem on {spec.grid}")
    p = np.asarray(P, dtype=float)
    if p.shape != (spec.dim,) or not np.isfinite(p).all():
        raise ValueError(f"drift P must have {spec.dim} finite components, got {P!r}")
    h, gamma = spec.grid.h, spec.gamma
    denom = gamma * np.maximum(m.values, MASS_CUTOFF) ** spec.alpha
    source = spec.V.values - spec.coupling.g(np.maximum(m.values, 0.0))

    def residual(u):
        a, b = slopes = upwind_slopes(u, p, h)
        kinetic = sum(ak**gamma + bk**gamma for ak, bk in zip(a, b))
        return beta * u + kinetic / denom + source, slopes

    return residual, denom


@functools.lru_cache(maxsize=32)
def _nd_stencil(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (cols, gather, diag) of the HJB Jacobian in nested-dissection
    order, built once per grid shape.

    Row i of the Jacobian is node perm[i] of `nested_dissection_order`.  Its
    2d+1 stencil columns (the node, then the i+1 and i-1 neighbours of each
    axis k) are numbered in that order and sorted, so that any subset of a
    row is a canonical CSR row; the rows are laid end to end in flat arrays.
    gather holds the flat index of each entry's coefficient in the
    (2d+1, N) stack [diag, -c_a0, -c_b0, ...] in C order, and diag marks
    the diagonal entries.
    """
    perm, inv = nested_dissection_order(shape)
    size = perm.size
    idx = np.arange(size).reshape(shape)
    stencil = [idx.ravel()] + [
        periodic_shift(idx, s, k).ravel() for k in range(len(shape)) for s in (1, -1)
    ]
    cols = inv[np.stack(stencil, axis=1)[perm]]
    slots = np.argsort(cols, axis=1)
    table = (np.take_along_axis(cols, slots, axis=1).astype(np.intc).ravel(),
             (slots * size + perm[:, None]).ravel(), (slots == 0).ravel())
    for a in table:
        a.setflags(write=False)
    return table


def _hjb_jacobian(slopes, gamma: float, h: float, denom: np.ndarray,
                  beta: float) -> sps.csr_matrix:
    """Jacobian of the `_hjb_scheme` residual in nested-dissection order, at
    the iterate whose residual returned `slopes`, with only its nonzeros
    stored.  It makes no upwind pass of its own.

    Node i holds beta + sum_k (c_a + c_b) on the diagonal, -c_a at the i+1
    neighbour and -c_b at the i-1 neighbour of axis k, where
    c = gamma slope^(gamma-1) / (h denom) for the upwind slopes a_k, b_k.
    An off-diagonal entry is stored only where its coefficient is positive.
    The CSR arrays are gathered straight into the order of the cached
    `_nd_stencil(denom.shape)`, with indptr from the count of stored entries
    per row.
    """
    cols, gather, diag_slot = _nd_stencil(denom.shape)
    a, b = slopes
    size = denom.size
    width = 2 * denom.ndim + 1
    coef = np.empty((width, size))
    diag = coef[0]
    diag.fill(beta)
    for k in range(denom.ndim):
        ca = (gamma * a[k] ** (gamma - 1.0) / (h * denom)).ravel()
        cb = (gamma * b[k] ** (gamma - 1.0) / (h * denom)).ravel()
        diag += ca + cb
        coef[2 * k + 1] = -ca
        coef[2 * k + 2] = -cb
    vals = coef.ravel()[gather]
    stored = np.flatnonzero((vals < 0.0) | diag_slot)
    indptr = np.zeros(size + 1, dtype=np.intc)
    np.cumsum(np.bincount(stored // width, minlength=size), out=indptr[1:])
    return sps.csr_matrix((vals[stored], cols[stored], indptr), shape=(size, size))


def solve_hjb_discounted(
    m: GridFunction,
    P,
    spec: ProblemSpec,
    beta: float,
    u0: np.ndarray | None = None,
) -> GridFunction:
    """Solve beta u + |P+Du|^gamma/(gamma m^alpha) + V - g(m) = 0.

    The upwind scheme is monotone (`_hjb_scheme`) and the residual is
    componentwise convex in u, with Jacobian
    beta I + diag(1/(gamma m^alpha)) dS/du, a strictly diagonally dominant
    M-matrix.  Full Newton steps therefore converge from any start with no
    line search (Howard's algorithm): after the first step every iterate is
    a supersolution, and the iterates fall monotonically to the solution.
    The max residual may grow on the way, so it is not used to damp a step.

    Each Jacobian is factored once by SuperLU and the factor is kept (a
    chord step reuses it) while each step cuts the max residual by at least
    the ratio _RHO.  A step that contracts less drops the factor, and the
    next step refactors at the current iterate; a chord step that does not
    lower the residual is also undone.  The current iterate keeps its
    residual and upwind slopes side by side, and a fresh Jacobian is built
    from those slopes (`_hjb_jacobian`), so an iterate costs one upwind
    pass; an undone chord step keeps both.  The solve stops at _HJB_TOL only
    once the factor has been dropped, so chord steps keep polishing below
    it while they still contract.  Where |u| is large on a fine grid the
    residual cannot get below _HJB_TOL, so the stop allows _HJB_TOL plus
    the rounding floor eps |u|_inf c, where c is the largest off-diagonal
    magnitude of the Jacobian at u, gamma s^(gamma-1) / (h denom) over the
    active upwind slopes s: u is known to about eps |u|_inf, so a slope to
    about eps |u|_inf / h, and the residual moves by that times the slope's
    coefficient.  The floor is read off the Jacobian that the next fresh
    step factors, so it costs no pass of its own; the stop is tested before
    each fresh step, and once more at the _MAX_NEWTON cap, which raises
    `HJBConvergenceError` if it fails.  The solve starts at `u0`, or at
    u = 0 if it is None.  Its first step is one plain `spsolve` whose
    factor is not kept: the start's upwind pattern is not yet that of the
    solution (at u = 0 it is the pattern of P alone, about half of whose
    active slopes flip in that step), so a chord step on it would soon
    raise the residual.  A step that is not finite raises
    `HJBConvergenceError` at once.  At most one factor is alive, and none
    once the solve returns.  ValueError for a u0 that is not finite or not
    shaped like the grid, besides the input checks of `_hjb_scheme`.

    At most one of the two upwind slopes of an axis is active at most
    nodes, so the Jacobian stores only its active entries: an explicit zero
    would still count as structure in the LU fill, and storing both
    neighbours of every axis about doubles the fill.  The Jacobian is built
    in the nested-dissection order of the grid
    (`grid.nested_dissection_order`, computed once per grid shape), and
    SuperLU takes that order (permc_spec="NATURAL") instead of running a
    fresh COLAMD analysis.  Pivoting leaves the order alone: the permuted
    Jacobian is still strictly row diagonally dominant, so in every column
    of its transpose the diagonal is the largest entry, and elimination
    keeps it so.  SuperLU factors that transpose: its CSC arrays are the
    CSR arrays of the Jacobian, so `splu` takes them without a copy, and a
    solve with trans="T" is a solve with the Jacobian, as in `spsolve`
    with CSR input.

    The kept factor is built with small supernodes (relax=1, panel_size=1).
    On the second-step Jacobians of 2D alpha 0.5 problems from the dual
    start, a factor plus 6 solves, the work of a kept factor, took 0.74,
    0.73, 0.75 and 0.79 of the time with SuperLU's defaults at n = 32, 48,
    64 and 128 (medians of 15 interleaved runs, 7 at n = 128, on 2 shared
    cores); (relax, panel_size) = (1, 2), (2, 1), (2, 2), (1, 4), (4, 1)
    and (1, 8) took 0.75 to 0.83.  The first step has one solve and no
    factor to keep, so it stays a plain `spsolve`, which takes no such
    options.
    """
    # NaN fails every comparison, so it stops here too
    if not 0 < beta < np.inf:
        raise ValueError(f"discount rate beta must be finite and > 0, got {beta}")
    grid = m.grid
    residual, denom = _hjb_scheme(m, P, spec, beta)
    perm, inv = nested_dissection_order(grid.shape)

    u = np.zeros(grid.shape) if u0 is None else np.array(u0, dtype=float)
    if u.shape != grid.shape or not np.isfinite(u).all():
        raise ValueError(f"u0 must be finite and of shape {grid.shape}")
    r, slopes = residual(u)
    norm = float(np.max(np.abs(r)))
    lu = None
    for it in range(_MAX_NEWTON + 1):
        chord = lu is not None and it < _MAX_NEWTON
        if not chord:
            # the stop test, before a fresh step and at the cap
            if norm <= _HJB_TOL:
                break
            jac = _hjb_jacobian(slopes, spec.gamma, grid.h, denom, beta)
            # off-diagonal entries are negative and the diagonal positive
            coef = max(-float(jac.data.min()), 0.0)
            if norm <= _HJB_TOL + np.finfo(float).eps * float(np.max(np.abs(u))) * coef:
                break
            if it == _MAX_NEWTON:
                raise HJBConvergenceError(
                    f"discounted HJB did not reach tolerance: max residual {norm:.3e}"
                )
        rhs = -r.ravel()[perm]
        if chord:
            step_nd = lu.solve(rhs, trans="T")
        else:
            if it == 0:
                step_nd = spla.spsolve(jac, rhs, permc_spec="NATURAL")
            else:
                # the CSR arrays of J are the CSC arrays of J^T
                lu = spla.splu(jac.T, permc_spec="NATURAL", relax=1, panel_size=1)
                step_nd = lu.solve(rhs, trans="T")
        delta = step_nd[inv].reshape(grid.shape)
        if not np.all(np.isfinite(delta)):
            raise HJBConvergenceError(
                f"Newton step is not finite at max residual {norm:.3e}"
            )
        u_try = u + delta
        r_try, slopes_try = residual(u_try)
        norm_try = float(np.max(np.abs(r_try)))
        if norm_try > _RHO * norm:
            lu = None
            if chord and norm_try >= norm:
                continue
        u, r, slopes, norm = u_try, r_try, slopes_try, norm_try
    return GridFunction(grid, u)


def hjb_residual(u: GridFunction, m: GridFunction, P, spec: ProblemSpec,
                 beta: float) -> float:
    """Max-norm residual of the scheme that `solve_hjb_discounted` solves;
    ValueError for a u on another grid than spec's, besides the input
    checks of `_hjb_scheme`."""
    if u.grid != spec.grid:
        raise ValueError(f"u lies on {u.grid}, the problem on {spec.grid}")
    residual, _ = _hjb_scheme(m, P, spec, beta)
    return float(np.max(np.abs(residual(u.values)[0])))


# ---------------------------------------------------------------------------
# full pipeline

@dataclass
class TransformResult:
    psi: GridFunction
    m: GridFunction
    P_recovered: np.ndarray
    u: GridFunction
    Hbar: float
    paper_Hbar_beta: float      # max u^(beta), the normalisation constant
    residuals: dict
    dual_result: SolveResult = field(repr=False)


def pipeline_alpha_lt_1(dual: DualSpec) -> TransformResult:
    """Exponent transform, dual solve, drift recovery, discounted HJB.

    The dual solve is `minimize` from the uniform start with the default
    `SolveOptions`; its u is the stream function psi.  The HJB is solved
    once, at the discount rate _BETA, and H-bar = -beta integral(u^beta).

    The solve starts from the dual solution, in which P + Du is the rotated
    flux exactly.  The transport flux m^(1-alpha)|P+Du|^(gamma-2)(P+Du) is
    the rotated Q + Dpsi, so |P+Du| = (m^(alpha-1)|Q+Dpsi|)^(gamma'-1); as
    1 - alpha~ = (alpha-1)(gamma'-1) for every gamma, P + Du is then the
    rotation of m^(1-alpha~)|Q+Dpsi|^(gamma'-2)(Q+Dpsi), the flux of
    `_dual_flux`.  So the start's gradient part is the FFT least-squares
    solution v of Du = rot(flux) - P (`_flux_deficit`).  Its mean comes
    from the dual's H-bar, which is (gamma'/gamma) times the HJB's to within
    discretisation error: u0 = v - (gamma'/gamma) Hbar_dual / beta.

    The dual flux is formed once; it serves the drift recovery, the start
    and the first residual.  The residuals are its 2-point divergence
    ("dual_divergence_l1"), the HJB residual ("hjb_max_residual") and the
    gap between the dual's and the HJB's H-bar ("hbar_dual_consistency").
    """
    base, h = dual.base, dual.base.grid.h
    res = minimize(DiscreteObjective(dual.problem), "uniform")
    psi, m = res.u, res.m
    flux = _dual_flux(psi, m, dual)
    P = recover_P(flux, h)

    du = _flux_deficit(flux, P)
    div = sum(central_diff_values(d, h, k) for k, d in enumerate(du))
    v = normal_pinv_values(-div, h)      # D^T = -D for the antisymmetric stencil
    hbar_dual = dual.gamma_prime / base.gamma * res.Hbar
    u_beta = solve_hjb_discounted(m, P, base, _BETA, u0=v - hbar_dual / _BETA)
    hbar = -_BETA * integrate_values(u_beta.values, h)
    top = float(u_beta.values.max())

    residuals = {
        "dual_divergence_l1": dual_divergence_residual(flux, h),
        "hjb_max_residual": hjb_residual(u_beta, m, P, base, _BETA),
        "hbar_dual_consistency": abs(hbar_dual - hbar),
    }
    return TransformResult(
        psi=psi,
        m=m,
        P_recovered=P,
        u=GridFunction(base.grid, u_beta.values - top),
        Hbar=hbar,
        paper_Hbar_beta=top,
        residuals=residuals,
        dual_result=res,
    )
