"""Discrete congestion functional J_h, its gradient, and the feasible set.

J_h(u, m) = h^d sum [ |P + D u|^gamma / (gamma (alpha-1) m^(alpha-1))
                      - V m + G(m) ]

with D the 5-point central gradient and the admissible set

    A_h = { h^d sum u = 0,  h^d sum m = 1,  m >= 0 }.

The congestion current is j = |P+Du|^(gamma-2) (P+Du) a(m), with kinetic
stiffness a(m) = 1/((alpha-1) m^(alpha-1)); `DiscreteObjective.flux` and
`DiscreteObjective.stiffness` are their one implementation.  The u-partial
of J_h is h^d D^T j, so stationarity in u is the discrete transport
equation D^T j = 0, and the stream-function transform reads its drift off
the dual problem's j.

m is floored at M_FLOOR inside negative powers so the objective stays finite
and differentiable; the floor plays the role of the +inf extension of the
integrand at m = 0.  The gradient below is the exact gradient of the floored
objective (the kinetic m-derivative switches off where the floor is active),
which keeps Armijo line searches consistent; on points with m >= M_FLOOR it
coincides with the unfloored formula.  Nodes with m <= MASS_CUTOFF count as
vacuum wherever m^alpha divides the Hamiltonian: in the H-bar estimate and
in the HJB solve of the stream-function transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, central_diff_values, integrate_values
from .model import NODE_STEP_RTOL, ProblemSpec, hbar_tol, mass_root, monotone_root

M_FLOOR = 1e-8  # floor of m inside negative powers of m
MASS_CUTOFF = 1e-4  # vacuum at or below it: gamma m^alpha in the HJB is not trusted


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
    second_order_proxy: integral of g'(m) |Dm|^2.  Observational only:
    computed by `diagnostics_record` on request, never by a solve.
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
        dens = kin * self.stiffness(m) / sp.gamma - sp.V.values * m + sp.coupling.G(m)
        return integrate_values(dens, sp.grid.h)

    def stiffness(self, m: np.ndarray) -> np.ndarray:
        """Kinetic stiffness 1/((alpha-1) m^(alpha-1)), m floored at M_FLOOR."""
        sp = self.spec
        mf = np.maximum(m, M_FLOOR)
        return 1.0 / ((sp.alpha - 1.0) * mf ** (sp.alpha - 1.0))

    def flux(self, u: np.ndarray, m: np.ndarray) -> list[np.ndarray]:
        """The current j = |P+Du|^(gamma-2) (P+Du) / ((alpha-1) m^(alpha-1)),
        one array per axis."""
        gamma = self.spec.gamma
        w = self.drifted_grad(u)
        scale = self.stiffness(m)
        if gamma != 2.0:
            nsq = self._norm_sq(w)
            # the magnitude-power limit at |P+Du| = 0 is 0 for gamma > 1
            with np.errstate(divide="ignore"):
                scale = np.where(nsq > 0.0, nsq ** ((gamma - 2.0) / 2.0), 0.0) * scale
        return [scale * wk for wk in w]

    def gradient_u_arrays(self, u: np.ndarray, m: np.ndarray) -> np.ndarray:
        """u-partial h^d sum_k D_k^T j_k, with D_k^T = -D_k the adjoint of
        the central stencil."""
        h, dim = self.spec.grid.h, self.spec.dim
        gu = np.zeros_like(u)
        for k, jk in enumerate(self.flux(u, m)):
            gu -= central_diff_values(jk, h, k)
        return h**dim * gu

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

# step cap of the joint Newton iteration in optimal_m; the nested solve
# takes over past it
_JOINT_STEPS = 40


def cold_hbar(spec: ProblemSpec, kin: np.ndarray) -> float:
    """The Hbar at which m = 1 solves every node when V and kin are
    constant: the first guess of an m-block started at m = 1."""
    return float(np.mean(spec.V.values)) - float(spec.coupling.g(1.0)) \
        + float(np.mean(kin)) / spec.gamma


def optimal_m(spec: ProblemSpec, kin: np.ndarray, hbar0: float,
              m0: np.ndarray) -> tuple[float, np.ndarray]:
    """(Hbar, m): the minimiser of J_h(u, .) over unit-mass m >= 0.

    kin = |P + Du|^gamma.  J_h separates by node in m, and the multiplier
    Hbar of the mass constraint makes each node stationary:
    g(m) - V - kin/(gamma m^alpha) = -Hbar.  Where kin > 0 the node solves
    this multiplied by m^alpha, psi(m) = m^alpha (g(m) + Hbar - V) - kin/gamma
    = 0, whose one root is positive.  Where kin = 0 it takes
    m = (G*)'(V - Hbar), vacuum allowed, with dm/dHbar = -1/g'(m) where
    m > 0 and 0 elsewhere.  The oracles solve these equations at u = 0
    with `nested_m`.

    One Newton iteration moves every kin > 0 node and Hbar together, from
    (hbar0, m0).  Linearised, a node steps by
    dm = -(psi + m^alpha dHbar) / psi'(m), and the mass constraint is the
    border row of this diagonal system: its Schur complement gives
    dHbar = -e / slope, with the mass excess e = h^d sum(m - psi/psi') - 1
    and slope h^d sum(-m^alpha/psi') over those nodes, the kin = 0 nodes
    adding their m to e and their dm/dHbar to the slope.  A node step that
    would leave m > 0 moves m to a quarter of itself.  The iteration stops
    once every node's step is at most NODE_STEP_RTOL m and |dHbar| at
    most hbar_tol(Hbar), the stop rules of `monotone_root` and
    `mass_root`, and returns after taking that last step.

    Where psi' <= 0 at some node, the slope is not negative, a step is not
    finite, or _JOINT_STEPS steps pass without a stop, the nested solve
    `nested_m` takes over from the current (Hbar, m).
    """
    a, V = spec.alpha, spec.V.values
    coupling = spec.coupling
    cell = spec.grid.h**spec.dim
    pos = kin > 0.0
    vac = ~pos
    c, Vp, Vv = kin[pos] / spec.gamma, V[pos], V[vac]
    m = np.array(m0, dtype=float)
    hbar, x, mv = float(hbar0), m[pos], m[vac]
    # overflow and 0 * inf show as non-finite steps, which hand over
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_JOINT_STEPS):
            mv, dmv = _vacuum_density(coupling, Vv - hbar, mv)
            xa1 = x ** (a - 1.0)
            xa = x * xa1
            s = coupling.g(x) + hbar - Vp
            dpsi = a * xa1 * s + xa * coupling.g_prime(x, z_floor=1e-300)
            if not np.all(dpsi > 0.0):
                break
            r, q = (xa * s - c) / dpsi, xa / dpsi
            e = cell * (float(np.sum(x - r)) + float(np.sum(mv))) - 1.0
            slope = cell * (float(np.sum(dmv)) - float(np.sum(q)))
            if not slope < 0.0:
                break
            dh = -e / slope
            dx = -(r + q * dh)
            if not (math.isfinite(dh) and np.all(np.isfinite(dx))):
                break
            done = abs(dh) <= hbar_tol(hbar) \
                and bool(np.all(np.abs(dx) <= NODE_STEP_RTOL * x))
            x = np.where(x + dx > 0.0, x + dx, 0.25 * x)
            hbar += dh
            if done:
                m[pos] = x
                if mv.size:
                    m[vac] = coupling.conjugate_deriv(Vv - hbar, mv)
                return hbar, m
    m[pos], m[vac] = x, mv
    return nested_m(spec, kin, hbar, m)


def _vacuum_density(coupling, q: np.ndarray, m0: np.ndarray):
    """(m, dm/dHbar) of the kin = 0 nodes at V - Hbar = q."""
    if not q.size:
        return q, q
    m = coupling.conjugate_deriv(q, m0)
    dm = np.divide(-1.0, coupling.g_prime(m, z_floor=1e-300),
                   out=np.zeros_like(m), where=m > 0.0)
    return m, dm


def nested_m(spec: ProblemSpec, kin: np.ndarray, hbar0: float,
             m0: np.ndarray) -> tuple[float, np.ndarray]:
    """`optimal_m` by nested solves: `mass_root` on Hbar from hbar0 around
    nodewise roots.  It is the oracles' m-block at u = 0 and the safeguard
    of `optimal_m`'s joint Newton iteration.

    The kin > 0 nodes run `monotone_root` on psi, each solve warm-started at
    the previous one's m, the first at m0; dm/dHbar = -m^alpha / psi'(m)
    there.  At alpha = 1 with the one-term coupling (c, 2), psi is the
    quadratic kappa m^2 + b m - k with kappa = 2c, b = Hbar - V and
    k = kin/gamma.  With s = sqrt(b^2 + 4 kappa k) its root is
    m = 2k / (b + s) where b >= 0 and m = (s - b) / (2 kappa) where b < 0,
    neither of which cancels, and dm/dHbar = -m / s.  The kin = 0 nodes
    take `_vacuum_density`, warm-started the same way.  Where kin is
    positive at every node or at none, the density works on whole arrays,
    with no masked copies.
    """
    V, m0 = spec.V.values, np.asarray(m0, dtype=float)
    pos = kin > 0.0
    if pos.all() or not pos.any():
        density = _node_density(spec, kin / spec.gamma, V, m0)
    else:
        parts = [(idx, _node_density(spec, kin[idx] / spec.gamma, V[idx], m0[idx]))
                 for idx in (pos, ~pos)]

        def density(hbar):
            m, dm = np.empty_like(m0), np.empty_like(m0)
            for idx, part in parts:
                m[idx], dm[idx] = part(hbar)
            return m, dm

    return mass_root(density, spec.grid.h**spec.dim, hbar0)


def _node_density(spec: ProblemSpec, k: np.ndarray, V: np.ndarray, m0: np.ndarray):
    """density(Hbar) -> (m, dm/dHbar) of nodes with kin = gamma k, either
    positive at every one of them or 0 at every one."""
    a, coupling = spec.alpha, spec.coupling
    g, g_prime, terms = coupling.g, coupling.g_prime, coupling.terms
    m_last = m0
    if not k.any():
        def vacuum(hbar):
            nonlocal m_last
            m_last, dm = _vacuum_density(coupling, V - hbar, m_last)
            return m_last, dm

        return vacuum
    if a == 1.0 and len(terms) == 1 and terms[0][1] == 2.0:
        kappa = 2.0 * terms[0][0]
        r = 2.0 * np.sqrt(kappa * k)  # s = hypot(b, r) cannot overflow
        two_k, two_kappa = 2.0 * k, 2.0 * kappa

        def quadratic(hbar):
            b = hbar - V
            s = np.hypot(b, r)
            big = s + np.abs(b)  # b + s where b >= 0, s - b where b < 0
            m = np.divide(two_k, big, out=big / two_kappa, where=b >= 0.0)
            return m, -m / s

        return quadratic

    def roots(hbar):
        nonlocal m_last

        def dpsi(x):
            return a * x ** (a - 1.0) * (g(x) + hbar - V) \
                + x**a * g_prime(x, z_floor=1e-300)

        m_last = monotone_root(lambda x: x**a * (g(x) + hbar - V) - k, dpsi,
                               0.0, m_last)
        return m_last, -(m_last**a) / dpsi(m_last)

    return roots


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

def estimate_Hbar(pt: FeasiblePoint, obj: DiscreteObjective,
                  kin: np.ndarray | None = None) -> tuple[float, float]:
    """(mean, std) of |P+Du|^gamma/(gamma m^alpha) + V - g(m) over
    {m > MASS_CUTOFF}.

    At a minimizer the nodewise quantity is the constant making the HJB
    equation hold; the standard deviation is a stationarity residual.
    kin = |P + Du|^gamma saves its stencil if known.
    """
    obj._check_point(pt)
    sp = obj.spec
    m = pt.m.values
    mask = m > MASS_CUTOFF
    if not mask.any():
        raise DegenerateSolutionError(
            f"no nodes with m > {MASS_CUTOFF}; cannot estimate the effective Hamiltonian"
        )
    if kin is None:
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


def diagnostics_record(pt: FeasiblePoint, obj: DiscreteObjective) -> dict:
    """One JSON-ready record per solve; J_h is undefined at alpha = 1, so
    "Jh" is NaN there, as in the oracle's result."""
    eu, em = pt.feasibility_errors()
    try:
        hbar, hstd = estimate_Hbar(pt, obj)
    except DegenerateSolutionError:
        hbar, hstd = float("nan"), float("nan")
    return {
        "Jh": obj.value(pt) if obj.spec.alpha > 1.0 else float("nan"),
        "Hbar_mean": hbar,
        "Hbar_std": hstd,
        "mass_error": em,
        "umean_error": eu,
        "apriori": apriori_diagnostics(pt, obj).as_dict(),
    }
