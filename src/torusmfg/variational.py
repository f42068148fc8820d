"""Discrete congestion functional J_h, its gradient, and the feasible set.

J_h(u, m) = h^d sum [ |P + D u|^gamma / (gamma (alpha-1) m^(alpha-1))
                      - V m + G(m) ]

with D the 5-point central gradient and the admissible set

    A_h = { h^d sum u = 0,  h^d sum m = 1,  m >= 0 }.

m is floored at M_FLOOR inside negative powers so the objective stays finite
and differentiable; the floor plays the role of the +inf extension of the
integrand at m = 0.  The gradient below is the exact gradient of the floored
objective (the kinetic m-derivative switches off where the floor is active),
which keeps Armijo line searches consistent; on points with m >= M_FLOOR it
coincides with the unfloored formula.  The stream-function transform floors
m at the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, central_diff_values, integrate_values
from .model import ProblemSpec, mass_root, monotone_root

M_FLOOR = 1e-8  # floor of m inside negative powers of m


class DegenerateSolutionError(RuntimeError):
    """Raised when an estimator's mass cutoff leaves no usable nodes."""


@dataclass
class FeasiblePoint:
    """(u, m) with mean-zero u and unit-mass nonnegative m."""

    u: GridFunction
    m: GridFunction

    def __post_init__(self):
        if self.u.grid != self.m.grid:
            raise ValueError("u and m must share one grid")

    @property
    def grid(self):
        return self.u.grid

    def feasibility_errors(self) -> tuple[float, float]:
        """(|h^d sum u|, |h^d sum m - 1|); min m handled separately."""
        hd = self.grid.h**self.grid.dim
        return (
            abs(hd * float(self.u.values.sum())),
            abs(hd * float(self.m.values.sum()) - 1.0),
        )

    def is_feasible(self, tol: float = 1e-12) -> bool:
        eu, em = self.feasibility_errors()
        return eu <= tol and em <= tol and self.m.values.min() >= -tol

    def copy(self) -> "FeasiblePoint":
        return FeasiblePoint(self.u.copy(), self.m.copy())


@dataclass
class AprioriDiagnostics:
    """Integral quantities bounded a priori along smooth solutions.

    congestion_energy_weighted: integral of |(P+Du)/m^ab|^gamma (m^ab + m^(ab+1))
    with ab = alpha/(gamma-1); coupling_balance: integral of (m-1) g(m);
    second_order_proxy: integral of g'(m) |Dm|^2.  Observational only.
    """

    congestion_energy_weighted: float
    coupling_balance: float
    second_order_proxy: float

    def as_dict(self) -> dict:
        return {
            "congestion_energy_weighted": self.congestion_energy_weighted,
            "coupling_balance": self.coupling_balance,
            "second_order_proxy": self.second_order_proxy,
        }


@dataclass
class DiscreteObjective:
    """J_h for a given problem, m floored at M_FLOOR in negative powers."""

    spec: ProblemSpec
    _p: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._p = np.asarray(self.spec.P, dtype=float)

    # -- pieces ------------------------------------------------------------

    def drifted_grad(self, u: np.ndarray) -> list[np.ndarray]:
        """P + D u, one array per axis."""
        h = self.spec.grid.h
        return [
            self._p[k] + central_diff_values(u, h, k)
            for k in range(self.spec.dim)
        ]

    @staticmethod
    def _norm_sq(w: list[np.ndarray]) -> np.ndarray:
        s = w[0] ** 2
        for wk in w[1:]:
            s = s + wk**2
        return s

    def kinetic_density(self, u: np.ndarray) -> np.ndarray:
        """|P + D u|^gamma nodewise."""
        return self._norm_sq(self.drifted_grad(u)) ** (self.spec.gamma / 2.0)

    def _check_point(self, pt: FeasiblePoint):
        if pt.grid != self.spec.grid:
            raise ValueError("point sampled on a different grid than the problem")

    # -- objective and gradient ---------------------------------------------

    def value(self, pt: FeasiblePoint) -> float:
        self._check_point(pt)
        return self.value_arrays(pt.u.values, pt.m.values)

    def value_arrays(self, u: np.ndarray, m: np.ndarray,
                     kin: np.ndarray | None = None) -> float:
        """J_h at (u, m); kin = |P + Du|^gamma saves its stencil if known."""
        sp = self.spec
        if kin is None:
            kin = self.kinetic_density(u)
        mf = np.maximum(m, M_FLOOR)
        fh = kin / (sp.gamma * (sp.alpha - 1.0) * mf ** (sp.alpha - 1.0))
        dens = fh - sp.V.values * m + sp.coupling.G(m)
        return integrate_values(dens, sp.grid.h)

    def gradient(self, pt: FeasiblePoint) -> tuple[GridFunction, GridFunction]:
        self._check_point(pt)
        gu, gm = self.gradient_arrays(pt.u.values, pt.m.values)
        return GridFunction(pt.grid, gu), GridFunction(pt.grid, gm)

    def gradient_arrays(self, u: np.ndarray, m: np.ndarray):
        return self.gradient_u_arrays(u, m), self.gradient_m_arrays(u, m)

    def gradient_u_arrays(self, u: np.ndarray, m: np.ndarray) -> np.ndarray:
        """u-partial: adjoint (negative transpose) of the central stencil
        applied to |P+Du|^(gamma-2)(P+Du) / ((alpha-1) m^(alpha-1))."""
        sp = self.spec
        h = sp.grid.h
        w = self.drifted_grad(u)
        mf = np.maximum(m, M_FLOOR)
        nsq = self._norm_sq(w)
        if sp.gamma == 2.0:
            coef = 1.0  # |P+Du|^0
        else:
            # the magnitude-power limit at |P+Du| = 0 is 0 for gamma > 1
            with np.errstate(divide="ignore"):
                coef = np.where(nsq > 0.0, nsq ** ((sp.gamma - 2.0) / 2.0), 0.0)
        scale = coef / ((sp.alpha - 1.0) * mf ** (sp.alpha - 1.0))
        gu = np.zeros_like(u)
        for k in range(sp.dim):
            gu -= central_diff_values(scale * w[k], h, k)
        return h**sp.dim * gu

    def gradient_m_arrays(self, u: np.ndarray, m: np.ndarray) -> np.ndarray:
        """m-partial only; avoids the adjoint-divergence work of the u-partial."""
        sp = self.spec
        hd = sp.grid.h**sp.dim
        kin = self.kinetic_density(u)
        mf = np.maximum(m, M_FLOOR)
        dkin_dm = np.where(m > M_FLOOR, -kin / (sp.gamma * mf**sp.alpha), 0.0)
        return hd * (dkin_dm - sp.V.values + sp.coupling.g(np.maximum(m, 0.0)))


# ---------------------------------------------------------------------------
# exact m-block

def optimal_m(spec: ProblemSpec, kin: np.ndarray, hbar0: float,
              m0: np.ndarray) -> tuple[float, np.ndarray]:
    """(Hbar, m): the minimiser of J_h(u, .) over unit-mass m >= 0.

    kin = |P + Du|^gamma.  J_h separates by node in m, and the multiplier
    Hbar of the mass constraint makes each node stationary:
    g(m) - V - kin/(gamma m^alpha) = -Hbar.  Where kin > 0 the node solves
    this multiplied by m^alpha, psi(m) = m^alpha (g(m) + Hbar - V) - kin/gamma
    = 0, whose one root is positive, with dm/dHbar = -m^alpha / psi'(m).  At
    alpha = 1 this is `oracle.solve_critical`'s node equation.  Where kin = 0
    it takes m = (G*)'(V - Hbar), vacuum allowed, with dm/dHbar = -1/g'(m)
    where m > 0 and 0 elsewhere, as `oracle.solve_P0` does.  `mass_root`
    finds Hbar from the guess hbar0; each nodewise solve starts from the
    previous one's m, the first from m0.
    """
    a, V = spec.alpha, spec.V.values
    g, g_prime = spec.coupling.g, spec.coupling.g_prime
    pos = kin > 0.0
    vac = ~pos
    c, Vp, Vv = kin[pos] / spec.gamma, V[pos], V[vac]
    m_last = np.asarray(m0, dtype=float)

    def density(hbar):
        nonlocal m_last

        def dpsi(x):
            return a * x ** (a - 1.0) * (g(x) + hbar - Vp) \
                + x**a * g_prime(x, z_floor=1e-300)

        mp = monotone_root(lambda x: x**a * (g(x) + hbar - Vp) - c, dpsi,
                           0.0, m_last[pos])
        mv = spec.coupling.conjugate_deriv(Vv - hbar, m_last[vac])
        m, dm = np.empty_like(m_last), np.zeros_like(m_last)
        m[pos], m[vac] = mp, mv
        dm[pos] = -(mp**a) / dpsi(mp)
        dm[vac] = np.divide(-1.0, g_prime(mv, z_floor=1e-300),
                            out=np.zeros_like(mv), where=mv > 0.0)
        m_last = m
        return m, dm

    return mass_root(density, spec.grid.h**spec.dim, hbar0)


# ---------------------------------------------------------------------------
# feasibility projection

def project_simplex_values(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of v onto {x >= 0, sum x = total} (sort method)."""
    flat = v.ravel()
    u = np.sort(flat)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, flat.size + 1)
    rho = idx[u - css / idx > 0][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def project_feasible(u: GridFunction, m: GridFunction) -> FeasiblePoint:
    """Euclidean projection onto A_h: de-mean u, simplex-project m."""
    if u.grid != m.grid:
        raise ValueError("u and m must share one grid")
    uproj = u.values - u.values.mean()
    mproj = project_simplex_values(m.values, float(m.grid.num_nodes))
    return FeasiblePoint(GridFunction(u.grid, uproj), GridFunction(m.grid, mproj))


# ---------------------------------------------------------------------------
# effective-Hamiltonian estimate and a priori diagnostics

def estimate_Hbar(
    pt: FeasiblePoint, obj: DiscreteObjective, mass_cutoff: float = 1e-4
) -> tuple[float, float]:
    """(mean, std) of |P+Du|^gamma/(gamma m^alpha) + V - g(m) over {m > cutoff}.

    At a minimizer the nodewise quantity is the constant making the HJB
    equation hold; the standard deviation is a stationarity residual.
    """
    obj._check_point(pt)
    sp = obj.spec
    m = pt.m.values
    mask = m > mass_cutoff
    if not mask.any():
        raise DegenerateSolutionError(
            f"no nodes with m > {mass_cutoff}; cannot estimate the effective Hamiltonian"
        )
    kin = obj.kinetic_density(pt.u.values)
    q = kin[mask] / (sp.gamma * m[mask] ** sp.alpha) + sp.V.values[mask] \
        - sp.coupling.g(m[mask])
    return float(q.mean()), float(q.std())


def apriori_diagnostics(pt: FeasiblePoint, obj: DiscreteObjective) -> AprioriDiagnostics:
    """The three diagnostic integrals, m floored inside negative powers."""
    obj._check_point(pt)
    sp = obj.spec
    h = sp.grid.h
    m = pt.m.values
    mf = np.maximum(m, M_FLOOR)
    kin = obj.kinetic_density(pt.u.values)
    # |(P+Du)/m^ab|^g (m^ab + m^(ab+1)) = |P+Du|^g (m^-alpha + m^(1-alpha)),
    # using ab = alpha/(gamma-1)
    congestion = kin * (mf ** (-sp.alpha) + mf ** (1.0 - sp.alpha))
    coupling_balance = (m - 1.0) * sp.coupling.g(np.maximum(m, 0.0))
    dm_sq = np.zeros_like(m)
    for k in range(sp.dim):
        dm_sq += central_diff_values(m, h, k) ** 2
    second_order = sp.coupling.g_prime(np.maximum(m, 0.0), z_floor=M_FLOOR) * dm_sq
    return AprioriDiagnostics(
        congestion_energy_weighted=integrate_values(congestion, h),
        coupling_balance=integrate_values(coupling_balance, h),
        second_order_proxy=integrate_values(second_order, h),
    )


def diagnostics_record(
    pt: FeasiblePoint, obj: DiscreteObjective, mass_cutoff: float = 1e-4
) -> dict:
    """One JSON-ready record per solve."""
    eu, em = pt.feasibility_errors()
    try:
        hbar, hstd = estimate_Hbar(pt, obj, mass_cutoff)
    except DegenerateSolutionError:
        hbar, hstd = float("nan"), float("nan")
    return {
        "Jh": obj.value(pt),
        "Hbar_mean": hbar,
        "Hbar_std": hstd,
        "mass_error": em,
        "umean_error": eu,
        "apriori": apriori_diagnostics(pt, obj).as_dict(),
    }
