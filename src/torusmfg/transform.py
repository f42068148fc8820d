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

with a monotone upwind scheme, letting beta -> 0 so that -beta u
approaches the effective Hamiltonian.

Orientation convention: with perp(v) = (-v2, v1), the drift is recovered
from Pperp = integral of m^(1-alpha~) |Q+Dpsi|^(gamma'-2) (Q+Dpsi) as
P = (Pperp_2, -Pperp_1).  The mirrored solution (-u, m, -P) solves the
same system, so the orientation is a labelling choice; it is pinned by the
constant-field round trip Pperp = Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .grid import (
    GridFunction,
    central_diff2_values,
    central_diff_values,
    integrate_values,
    periodic_shift,
    upwind_grad_power_values,
    upwind_slopes,
)
from .model import ProblemSpec
from .optimizer import SolveOptions, SolveResult, minimize
from .variational import M_FLOOR, DiscreteObjective

_MASS_CUTOFF = 1e-4   # floor of m in the HJB denominator gamma m^alpha
_MAX_NEWTON = 200


class HJBConvergenceError(RuntimeError):
    """Discounted HJB iteration failed to reach the residual tolerance."""


def transform_exponents(alpha: float, gamma: float) -> tuple[float, float]:
    """(gamma', alpha~) for 0 < alpha < 1, gamma > 1; lands in 1 < alpha~ < gamma'."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"transform requires 0 < alpha < 1, got {alpha}")
    if gamma <= 1.0:
        raise ValueError(f"transform requires gamma > 1, got {gamma}")
    gamma_prime = gamma / (gamma - 1.0)
    alpha_tilde = alpha - (alpha - 1.0) * gamma_prime
    assert 1.0 < alpha_tilde < gamma_prime
    return gamma_prime, alpha_tilde


@dataclass
class DualSpec:
    """Sub-critical base problem plus the stream-function drift Q."""

    base: ProblemSpec
    Q: tuple[float, float]

    def __post_init__(self):
        if self.base.dim != 2:
            raise ValueError("the stream-function transform is two-dimensional")
        self.Q = tuple(float(q) for q in self.Q)
        if len(self.Q) != 2:
            raise ValueError("Q must have two components")
        self.gamma_prime, self.alpha_tilde = transform_exponents(
            self.base.alpha, self.base.gamma
        )

    def dual_problem(self) -> ProblemSpec:
        """The transformed problem: exponents (alpha~, gamma'), drift Q,
        potential and coupling scaled by gamma/gamma'."""
        b = self.base
        scale = b.gamma / self.gamma_prime
        return ProblemSpec(
            dim=2,
            n=b.n,
            alpha=self.alpha_tilde,
            gamma=self.gamma_prime,
            P=self.Q,
            V=GridFunction(b.grid, scale * b.V.values),
            coupling=b.coupling.scaled(scale),
        )


def solve_dual(dual: DualSpec, opts: SolveOptions | None = None) -> SolveResult:
    """Minimise the dual functional; the result's u is the stream function psi."""
    obj = DiscreteObjective(dual.dual_problem())
    if opts is None:
        opts = SolveOptions(step0=float(dual.base.grid.num_nodes), max_iters=200000)
    return minimize(obj, "uniform", opts)


def _dual_flux(psi: np.ndarray, m: np.ndarray, dual: DualSpec) -> list[np.ndarray]:
    """m^(1-alpha~) |Q+Dpsi|^(gamma'-2) (Q+Dpsi), m floored in the power."""
    h = dual.base.grid.h
    gp = dual.gamma_prime
    mf = np.maximum(m, M_FLOOR)
    w = [dual.Q[k] + central_diff_values(psi, h, k) for k in range(2)]
    nsq = w[0] ** 2 + w[1] ** 2
    if gp == 2.0:
        coef = np.ones_like(nsq)
    else:
        with np.errstate(divide="ignore"):
            coef = np.where(nsq > 0.0, nsq ** ((gp - 2.0) / 2.0), 0.0)
    weight = mf ** (1.0 - dual.alpha_tilde) * coef
    return [weight * w[0], weight * w[1]]


def recover_P(psi: GridFunction, m: GridFunction, dual: DualSpec) -> np.ndarray:
    """Drift recovered from the flux quadrature; P = (Pperp_2, -Pperp_1)."""
    h = dual.base.grid.h
    flux = _dual_flux(psi.values, m.values, dual)
    pperp = np.array([integrate_values(flux[0], h), integrate_values(flux[1], h)])
    return np.array([pperp[1], -pperp[0]])


def dual_divergence_residual(psi: GridFunction, m: GridFunction,
                             dual: DualSpec) -> float:
    """Discrete-L1 norm of a scheme-independent divergence of the flux.

    Measured with the plain 2-point central divergence: the 5-point stencil
    is the adjoint of the scheme itself, so its divergence vanishes at the
    discrete optimum by stationarity and would only report solver noise.
    """
    h = dual.base.grid.h
    flux = _dual_flux(psi.values, m.values, dual)
    div = central_diff2_values(flux[0], h, 0) + central_diff2_values(flux[1], h, 1)
    return integrate_values(np.abs(div), h)


def curl_proxy(psi: GridFunction, m: GridFunction, dual: DualSpec,
               P: np.ndarray) -> float:
    """L1 norm of the discrete curl of the reconstructed Du candidate.

    From Pperp + (Du)perp = flux, the candidate gradient field is the
    rotated flux deficit; it is an honest gradient only if its curl
    vanishes, which the construction does not guarantee.
    """
    h = dual.base.grid.h
    flux = _dual_flux(psi.values, m.values, dual)
    pperp = np.array([-P[1], P[0]])
    du1 = flux[1] - pperp[1]       # (a_2, -a_1) undoes perp
    du2 = -(flux[0] - pperp[0])
    curl = central_diff2_values(du2, h, 0) - central_diff2_values(du1, h, 1)
    return integrate_values(np.abs(curl), h)


# ---------------------------------------------------------------------------
# discounted Hamilton-Jacobi solve with the monotone upwind scheme

def _hjb_scheme(m: GridFunction, p: np.ndarray, spec: ProblemSpec, beta: float):
    """(residual, denom): the map u -> beta u + S(u)/denom + V - g(m) of the
    upwind scheme S, with denom = gamma m^alpha, m floored at _MASS_CUTOFF."""
    h = m.grid.h
    denom = spec.gamma * np.maximum(m.values, _MASS_CUTOFF) ** spec.alpha
    source = spec.V.values - spec.coupling.g(np.maximum(m.values, 0.0))

    def residual(u):
        kinetic = upwind_grad_power_values(u, p, spec.gamma, h)
        return beta * u + kinetic / denom + source

    return residual, denom


def _neighbour_columns(shape: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat indices of the (i+1, i-1) periodic neighbours of every node, per axis."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    return [
        (periodic_shift(idx, 1, k).ravel(), periodic_shift(idx, -1, k).ravel())
        for k in range(len(shape))
    ]


def _hjb_jacobian(u: np.ndarray, p: np.ndarray, gamma: float, h: float,
                  denom: np.ndarray, beta: float, neighbours) -> sps.csr_matrix:
    """Jacobian of the `_hjb_scheme` residual at u, with only its nonzeros stored.

    Row i holds beta + sum_k (c_a + c_b) on the diagonal, -c_a at the i+1
    neighbour and -c_b at the i-1 neighbour of axis k, where
    c = gamma slope^(gamma-1) / (h denom) for the upwind slopes a_k, b_k.
    An off-diagonal entry is stored only where its coefficient is positive.
    """
    a, b = upwind_slopes(u, p, h)
    size = u.size
    nodes = np.arange(size)
    diag = np.full(size, beta)
    rows, cols, vals = [], [], []
    for k, (plus, minus) in enumerate(neighbours):
        ca = (gamma * a[k] ** (gamma - 1.0) / (h * denom)).ravel()
        cb = (gamma * b[k] ** (gamma - 1.0) / (h * denom)).ravel()
        diag += ca + cb
        for c, col in ((ca, plus), (cb, minus)):
            active = np.flatnonzero(c > 0.0)
            rows.append(active)
            cols.append(col[active])
            vals.append(-c[active])
    rows.append(nodes)
    cols.append(nodes)
    vals.append(diag)
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


def solve_hjb_discounted(
    m: GridFunction,
    P,
    spec: ProblemSpec,
    beta: float,
    tol: float = 1e-10,
    u0: np.ndarray | None = None,
) -> GridFunction:
    """Solve beta u + |P+Du|^gamma/(gamma m^alpha) + V - g(m) = 0.

    The upwind scheme is monotone and the residual is componentwise convex
    in u, so a damped semismooth Newton iteration converges globally; the
    Jacobian beta I + diag(1/(gamma m^alpha)) dS/du is a strictly
    diagonally dominant M-matrix.

    Each Newton step is one sparse direct solve (SuperLU).  At most one of
    the two upwind slopes of an axis is active at most nodes, so the
    Jacobian stores only its active entries: an explicit zero would still
    count as structure in the column ordering and in the LU fill, and
    storing both neighbours of every axis about doubles the fill.
    """
    if beta <= 0:
        raise ValueError("discount rate beta must be positive")
    grid = m.grid
    p = np.asarray(P, dtype=float)
    residual, denom = _hjb_scheme(m, p, spec, beta)
    neighbours = _neighbour_columns(grid.shape)

    u = np.zeros(grid.shape) if u0 is None else np.array(u0, dtype=float)
    r = residual(u)
    best = float(np.max(np.abs(r)))
    for _ in range(_MAX_NEWTON):
        if best <= tol:
            break
        jac = _hjb_jacobian(u, p, spec.gamma, grid.h, denom, beta, neighbours)
        delta = spla.spsolve(jac, -r.ravel()).reshape(grid.shape)
        step = 1.0
        for _ in range(60):
            u_try = u + step * delta
            r_try = residual(u_try)
            norm_try = float(np.max(np.abs(r_try)))
            if norm_try < best:
                u, r, best = u_try, r_try, norm_try
                break
            step *= 0.5
        else:
            raise HJBConvergenceError(
                f"damped Newton stalled at max residual {best:.3e}"
            )
    if best > tol:
        raise HJBConvergenceError(
            f"discounted HJB did not reach tolerance: max residual {best:.3e}"
        )
    return GridFunction(grid, u)


def hjb_residual(u: GridFunction, m: GridFunction, P, spec: ProblemSpec,
                 beta: float) -> float:
    """Max-norm residual of the scheme that `solve_hjb_discounted` solves."""
    residual, _ = _hjb_scheme(m, np.asarray(P, dtype=float), spec, beta)
    return float(np.max(np.abs(residual(u.values))))


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
    discount_estimates: list    # (beta, -beta * integral(u^beta), max residual)
    dual_result: SolveResult = field(repr=False, default=None)


def pipeline_alpha_lt_1(
    dual: DualSpec,
    beta_schedule=(1e-1, 1e-2, 1e-3),
    opts: SolveOptions | None = None,
    hjb_tol: float = 1e-10,
) -> TransformResult:
    """Exponent transform, dual solve, drift recovery, vanishing discount.

    `beta_schedule` is a non-empty, strictly decreasing sequence of finite
    positive discount rates; H-bar is read off at its last entry.
    """
    betas = [float(b) for b in beta_schedule]
    if not (betas and all(0.0 < b < np.inf for b in betas)
            and all(nxt < prev for prev, nxt in zip(betas, betas[1:]))):
        raise ValueError(
            "beta_schedule must be non-empty, positive and strictly decreasing,"
            f" got {tuple(beta_schedule)}"
        )
    base = dual.base
    res = solve_dual(dual, opts)
    psi, m = res.u, res.m
    P = recover_P(psi, m, dual)

    h = base.grid.h
    estimates = []
    u_beta = None
    for beta in betas:
        warm = None
        if u_beta is not None:
            # -beta u^beta tends to Hbar, so only the mean of u scales like
            # 1/beta; the oscillating part converges and is carried as is
            mean = float(u_beta.values.mean())
            warm = u_beta.values + mean * (last_beta / beta - 1.0)
        u_beta = solve_hjb_discounted(m, P, base, beta, tol=hjb_tol, u0=warm)
        last_beta = beta
        est = -beta * integrate_values(u_beta.values, h)
        estimates.append(
            (beta, est, hjb_residual(u_beta, m, P, base, beta))
        )

    top = float(u_beta.values.max())
    u_final = GridFunction(base.grid, u_beta.values - top)
    hbar = estimates[-1][1]

    residuals = {
        "dual_divergence_l1": dual_divergence_residual(psi, m, dual),
        "hjb_max_residual": estimates[-1][2],
        "curl_l1": curl_proxy(psi, m, dual, P),
        "hbar_dual_consistency": abs(
            dual.gamma_prime / base.gamma * res.Hbar - hbar
        ),
    }
    return TransformResult(
        psi=psi,
        m=m,
        P_recovered=P,
        u=u_final,
        Hbar=hbar,
        paper_Hbar_beta=top,
        residuals=residuals,
        discount_estimates=estimates,
        dual_result=res,
    )

