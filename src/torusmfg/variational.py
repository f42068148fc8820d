"""Discrete congestion functional J_h, its gradient, and the feasible set.

J_h(u, m) = h^d sum [ |P + D u|^gamma / (gamma (alpha-1) m^(alpha-1))
                      - V m + G(m) ]

with D the 5-point central gradient and the admissible set

    A_h = { h^d sum u = 0,  h^d sum m = 1,  m >= 0 }.

u enters J_h only through w = P + Du (`DiscreteObjective.drifted_grad`):
the array methods of `DiscreteObjective` take w, or the kinetic density
k = |w|^gamma / gamma of `DiscreteObjective.kinetic_density`, the one place
that divides by gamma.  For fixed u, J_h is minimised exactly in m by
`optimal_m`: each node solves m^a (g(m) + Hbar - V) = k with a = alpha, and
Hbar fixes unit mass, (1/N) sum m = 1 over the N nodes of the unit torus.
The m-block takes the node equation's data (a, k, V, coupling), not a
problem, and reads N off the arrays, so it serves any exponent a >= 0 and
right side k >= 0 in any dimension.  Its joint Newton iteration runs on
blocks with a > 0 and k > 0 at every node; a block at a = 0 or with k = 0
at some node is the nested solve `nested_m`'s.

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
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, central_diff_values, integrate_values
from .model import (
    NODE_STEP_RTOL,
    ProblemSpec,
    _check_nonneg,
    hbar_tol,
    mass_root,
    monotone_root,
)

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
        h = self.grid.h
        return (
            abs(integrate_values(self.u.values, h)),
            abs(integrate_values(self.m.values, h) - 1.0),
        )

    def is_feasible(self, tol: float = 1e-12) -> bool:
        eu, em = self.feasibility_errors()
        return eu <= tol and em <= tol and self.m.values.min() >= -tol


@dataclass
class DiscreteObjective:
    """J_h for a given problem, m floored at M_FLOOR in negative powers.

    u enters J_h only through w = P + Du (`drifted_grad`): the array
    methods take w, or k = `kinetic_density(w)`, never u.  Where m enters
    through the kinetic stiffness a = `stiffness(m)` alone, in the current
    (`flux`) and the u-gradient, they take a, not m; `value_arrays` takes
    both, as V m and G(m) need m.  A caller forms a once per m and passes
    it to each."""

    spec: ProblemSpec

    # -- pieces ------------------------------------------------------------

    def drifted_grad(self, u: np.ndarray) -> list[np.ndarray]:
        """P + D u, one array per axis."""
        h = self.spec.grid.h
        return [
            self.spec.P[k] + central_diff_values(u, h, k)
            for k in range(self.spec.dim)
        ]

    @staticmethod
    def _norm_sq(w: list[np.ndarray]) -> np.ndarray:
        s = w[0] ** 2
        for wk in w[1:]:
            s = s + wk**2
        return s

    def kinetic_density(self, w: list[np.ndarray]) -> np.ndarray:
        """k = |w|^gamma / gamma nodewise at w = P + Du (`drifted_grad`):
        the right side of the m-block's node equation, and the one division
        by gamma in J_h."""
        gamma = self.spec.gamma
        return self._norm_sq(w) ** (gamma / 2.0) / gamma

    def _check_point(self, pt: FeasiblePoint):
        if pt.grid != self.spec.grid:
            raise ValueError("point sampled on a different grid than the problem")

    # -- objective and gradient ---------------------------------------------

    def value(self, pt: FeasiblePoint) -> float:
        self._check_point(pt)
        k = self.kinetic_density(self.drifted_grad(pt.u.values))
        m = pt.m.values
        return self.value_arrays(k, m, self.stiffness(m))

    def value_arrays(self, k: np.ndarray, m: np.ndarray, a: np.ndarray) -> float:
        """J_h at (u, m), from k = `kinetic_density` at u and
        a = `stiffness(m)`."""
        sp = self.spec
        dens = k * a - sp.V.values * m + sp.coupling.G(m)
        return integrate_values(dens, sp.grid.h)

    def stiffness(self, m: np.ndarray) -> np.ndarray:
        """Kinetic stiffness 1/((alpha-1) m^(alpha-1)), m floored at M_FLOOR."""
        sp = self.spec
        mf = np.maximum(m, M_FLOOR)
        return 1.0 / ((sp.alpha - 1.0) * mf ** (sp.alpha - 1.0))

    def flux(self, w: list[np.ndarray], a: np.ndarray) -> list[np.ndarray]:
        """The current j = |w|^(gamma-2) w a at w = P + Du (`drifted_grad`),
        one array per axis, from a = `stiffness(m)`; m enters j only
        through a."""
        gamma = self.spec.gamma
        if gamma != 2.0:
            nsq = self._norm_sq(w)
            # the magnitude-power limit at |P+Du| = 0 is 0 for gamma > 1
            with np.errstate(divide="ignore"):
                a = np.where(nsq > 0.0, nsq ** ((gamma - 2.0) / 2.0), 0.0) * a
        return [a * wk for wk in w]

    def gradient_u_arrays(self, w: list[np.ndarray], a: np.ndarray) -> np.ndarray:
        """u-partial h^d sum_k D_k^T j_k at w = P + Du and a = `stiffness(m)`
        (`flux`), with D_k^T = -D_k the adjoint of the central stencil."""
        h, dim = self.spec.grid.h, self.spec.dim
        gu = np.zeros_like(w[0])
        for k, jk in enumerate(self.flux(w, a)):
            gu -= central_diff_values(jk, h, k)
        return h**dim * gu

    def gradient_m_arrays(self, k: np.ndarray, m: np.ndarray) -> np.ndarray:
        """m-partial at k = `kinetic_density` at u; no stencil work."""
        sp = self.spec
        hd = sp.grid.h**sp.dim
        mf = np.maximum(m, M_FLOOR)
        dkin_dm = np.where(m > M_FLOOR, -k / mf**sp.alpha, 0.0)
        return hd * (dkin_dm - sp.V.values + sp.coupling.g(np.maximum(m, 0.0)))


# ---------------------------------------------------------------------------
# exact m-block

# step cap of the joint Newton iteration in optimal_m; the nested solve
# takes over past it
_JOINT_STEPS = 40
# a limited joint step down in Hbar goes this share of the way to where
# g(m) + Hbar - V, positive at the roots, first reaches 0 on a k > 0 node,
# linearised
_HBAR_SHARE = 0.99


def cold_hbar(k: np.ndarray, V: np.ndarray, coupling) -> float:
    """The Hbar at which m = 1 solves every node when V and k are constant:
    the first guess of an m-block started at m = 1."""
    return float(np.mean(V)) - float(coupling.g(1.0)) + float(np.mean(k))


def optimal_m(a: float, k: np.ndarray, V: np.ndarray, coupling,
              hbar0: float, m0: np.ndarray) -> tuple[float, np.ndarray]:
    """(Hbar, m): the nonnegative m of unit mass that solves the node
    equation m^a (g(m) + Hbar - V) = k at every node.  On the unit torus
    unit mass is cell sum m = 1 with cell = h^d = 1/N for the N nodes, so
    the cell is formed from the size of m0, not passed.

    The minimiser of J_h(u, .) is the case a = alpha, k = |P + Du|^gamma /
    gamma (`DiscreteObjective.kinetic_density`): J_h separates by node in
    m, and the multiplier Hbar of the mass constraint makes each node
    stationary, g(m) - V - k/m^alpha = -Hbar.  Where k > 0 at every node,
    as in every minimiser step whose P + Du vanishes nowhere, each node
    solves psi(m) = m^a (g(m) + Hbar - V) - k = 0, whose one root is
    positive; `_node` evaluates psi, psi', m^a, s = g(m) + Hbar - V and
    g'(m) for this iteration and for `nested_m`.  A block with k = 0 at
    some node, such as the first block of a P = 0 solve from u = 0, and a
    block at a = 0 go to `nested_m` from (hbar0, m0), with no joint step;
    `nested_m` solves an a = 0 block as the k = 0 block at the potential
    V + k.  The oracles solve their u = 0 blocks with `nested_m` too.

    One Newton iteration moves every node and Hbar together, from
    (hbar0, m0).  Linearised, a node steps by
    dm = -(psi + m^a dHbar) / psi'(m), and the mass constraint is the
    border row of this diagonal system: its Schur complement gives
    dHbar = -e / slope, with the mass excess e = cell sum(m - psi/psi') - 1
    and slope cell sum(-m^a/psi').  s = k/m^a > 0 at the roots, and
    psi' = m^(a-1) (a s + m g'(m)) > 0 wherever s > 0.  So when s > 0 on
    every node and dHbar < -min(s), the step is checked against s after
    it, linearised as s + dHbar + g'(m) dm = s0 + s1 dHbar; if that is not
    positive on some node, dHbar goes at most _HBAR_SHARE of the way to the
    nearest zero -s0/s1 over the nodes with s0, s1 > 0, and the node steps
    use the limited dHbar.  A node step that would leave m > 0 moves m to a
    quarter of itself.  The iteration stops once every node's step is at
    most NODE_STEP_RTOL m and the Newton step in Hbar, before the limit, at
    most hbar_tol(Hbar), the stop rules of `monotone_root` and `mass_root`,
    and returns after taking that last step.

    Where psi' <= 0 at some node, the slope is not negative, a step is not
    finite, or _JOINT_STEPS steps pass without a stop, the nested solve
    `nested_m` takes over from the current (Hbar, m).

    A negative m0 raises the coupling's ValueError once, before the first
    joint step.  After that the iterate needs no check: each step keeps
    x - dx where that is positive on every node, else moves the nodes
    where it is not to a quarter of x, so `_node` evaluates g and g'
    unchecked.  The nested solve needs none either: `monotone_root` clamps
    its start at 0 and keeps m >= 0, and `CouplingG.conjugate_deriv`
    returns m >= 0.
    """
    if a == 0.0 or not (k > 0.0).all():
        return nested_m(a, k, V, coupling, hbar0, m0)
    hbar, x = float(hbar0), np.asarray(m0, dtype=float)
    _check_nonneg(x)
    cell = 1.0 / x.size
    # overflow and 0 * inf show as non-finite steps, which hand over
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_JOINT_STEPS):
            psi, dpsi, xa, s, dg = _node(a, coupling, x, hbar, V, k)
            if not dpsi.min() > 0.0:  # NaN fails it too
                break
            r, q = psi / dpsi, xa / dpsi
            e, slope = cell * float((x - r).sum()) - 1.0, cell * -float(q.sum())
            if not slope < 0.0:
                break
            dh = -e / slope
            small = abs(dh) <= hbar_tol(hbar)
            s_min = float(s.min()) if dh < 0.0 else 0.0
            if 0.0 < s_min < -dh:
                # s after the step, linear in dh: s + dh + g'(x) dx = s0 + s1 dh
                s0, s1 = s - dg * r, 1.0 - dg * q
                if (s0 + s1 * dh).min() <= 0.0:
                    ok = (s0 > 0.0) & (s1 > 0.0)
                    if ok.any():
                        dh = max(dh, -_HBAR_SHARE * float((s0[ok] / s1[ok]).min()))
            ndx = r + q * dh  # minus the node steps
            if not (math.isfinite(dh) and np.isfinite(ndx).all()):
                break
            done = small and (np.abs(ndx) <= NODE_STEP_RTOL * x).all()
            x_new = x - ndx
            if x_new.min() <= 0.0:
                x_new = np.where(x_new > 0.0, x_new, 0.25 * x)
            x = x_new
            hbar += dh
            if done:
                return hbar, x
    return nested_m(a, k, V, coupling, hbar, x)


def _node(a: float, coupling, x: np.ndarray, hbar: float, V: np.ndarray,
          k: np.ndarray) -> tuple[np.ndarray, ...]:
    """(psi, psi', x^a, s, g') of the node equation at x, with
    s = g(x) + Hbar - V: psi(x) = x^a s - k and
    psi'(x) = a x^(a-1) s + x^a g'(x), g' floored at x = 1e-300.  x^a is
    x x^(a-1), so one power serves both; g and g' are evaluated once each,
    by the unchecked `CouplingG._g` and `_g_prime`, since every caller's
    x >= 0 (see `optimal_m`); g' is the number 2c for a one-term theta = 2
    coupling.  It is the one place that writes psi and psi'."""
    xa1 = x ** (a - 1.0)
    xa = x * xa1
    s = coupling._g(x) + hbar - V
    dg = coupling._g_prime(x, 1e-300)
    return xa * s - k, a * xa1 * s + xa * dg, xa, s, dg


def nested_m(a: float, k: np.ndarray, V: np.ndarray, coupling,
             hbar0: float, m0: np.ndarray) -> tuple[float, np.ndarray]:
    """`optimal_m` by nested solves: `mass_root` on Hbar from hbar0 around
    nodewise roots, under the same unit mass (1/N) sum m = 1.  It is the
    oracles' m-block at u = 0 and the safeguard of `optimal_m`'s joint
    Newton iteration.

    The k > 0 nodes run `monotone_root` on psi, with psi and psi' from
    `_node`, each solve warm-started at the previous one's m, the first at
    m0; dm/dHbar = -m^a / psi'(m) there, from one more `_node` call at the
    root.  At a = 1 with the one-term coupling (c, 2), psi is the quadratic
    kappa m^2 + b m - k with kappa = 2c and b = Hbar - V.  With
    s = sqrt(b^2 + 4 kappa k) its root is m = 2k / (b + s) where b >= 0
    and m = (s - b) / (2 kappa) where b < 0, neither of which cancels, and
    dm/dHbar = -m / s.  The k = 0 nodes take the vacuum density
    m = (G*)'(V - Hbar), warm-started the same way.  At a = 0 the node
    equation is g(m) + Hbar - (V + k) = 0, the k = 0 equation at the
    potential V + k, so the block first replaces (k, V) by (0, V + k) and
    is then a vacuum block on every node.  Where k is positive at every
    node or at none, the density works on whole arrays, with no masked
    copies.
    """
    m0 = np.asarray(m0, dtype=float)
    if a == 0.0:
        k, V = np.zeros_like(k), V + k
    pos = k > 0.0
    if pos.all() or not pos.any():
        density = _node_density(a, k, V, coupling, m0)
    else:
        parts = [(idx, _node_density(a, k[idx], V[idx], coupling, m0[idx]))
                 for idx in (pos, ~pos)]

        def density(hbar):
            m, dm = np.empty_like(m0), np.empty_like(m0)
            for idx, part in parts:
                m[idx], dm[idx] = part(hbar)
            return m, dm

    return mass_root(density, hbar0)


# s = sqrt(b b + r r) in the a = 1 quadratic neither overflows nor
# underflows below a normal double while |b| and r lie below _SQ_HI and r
# above 1/_SQ_HI; np.hypot, several times slower, takes over outside
_SQ_HI = 2.0**500


def _node_density(a: float, k: np.ndarray, V: np.ndarray, coupling, m0: np.ndarray):
    """density(Hbar) -> (m, dm/dHbar) of nodes with k either positive at
    every one of them or 0 at every one, at an exponent a > 0 (`nested_m`
    rewrites a = 0 as k = 0).  Positive k takes the a = 1 quadratic closed
    form where it applies, else the roots of `_node`'s psi.

    k = 0 takes the vacuum density m = (G*)'(V - Hbar), with
    dm/dHbar = -1/g'(m) where m > 0 and 0 where m = 0.  The quotient is
    formed on every node and np.where picks it, which is cheaper than a
    masked divide; at m = 0, g'(0) = 0 for couplings of exponents above 2
    alone, and the 1/0 there is discarded.  g' is the unchecked
    `CouplingG._g_prime`, as (G*)' is never negative; for a one-term
    theta = 2 coupling it is the number 2c, so the quotient is one
    division.

    The quadratic forms s = sqrt(b^2 + r^2) with r = 2 sqrt(kappa k), r^2
    formed once here, wherever |Hbar| + max |V| < _SQ_HI and
    1/_SQ_HI < r < _SQ_HI, one scalar test per call; elsewhere
    s = hypot(b, r).  It picks its two quotients with np.where."""
    terms = coupling.terms
    m_last = m0
    if not k.any():
        def vacuum(hbar):
            nonlocal m_last
            m_last = coupling.conjugate_deriv(V - hbar, m_last)
            with np.errstate(divide="ignore"):
                dm = np.where(m_last > 0.0,
                              -1.0 / coupling._g_prime(m_last, 1e-300), 0.0)
            return m_last, dm

        return vacuum
    if a == 1.0 and len(terms) == 1 and terms[0][1] == 2.0:
        kappa = 2.0 * terms[0][0]
        r = 2.0 * np.sqrt(kappa * k)
        two_k, two_kappa = 2.0 * k, 2.0 * kappa
        v_max = float(np.abs(V).max())
        r_in_range = 1.0 / _SQ_HI < float(r.min()) and float(r.max()) < _SQ_HI
        r2 = r * r if r_in_range else None

        def quadratic(hbar):
            b = hbar - V
            if r_in_range and abs(hbar) + v_max < _SQ_HI:
                s = np.sqrt(b * b + r2)
            else:
                s = np.hypot(b, r)
            big = s + np.abs(b)  # b + s where b >= 0, s - b where b < 0
            m = np.where(b >= 0.0, two_k / big, big / two_kappa)
            return m, -m / s

        return quadratic

    def roots(hbar):
        nonlocal m_last
        m_last = monotone_root(lambda x: _node(a, coupling, x, hbar, V, k)[:2],
                               m_last)
        _, dpsi, xa = _node(a, coupling, m_last, hbar, V, k)[:3]
        return m_last, -xa / dpsi

    return roots


# ---------------------------------------------------------------------------
# feasibility projection

def project_simplex_values(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto {x >= 0, sum x = v.size} (sort
    method), the unit-mass set h^d sum x = 1 of a grid function with
    v.size nodes; ValueError for a v that is not finite."""
    if not np.isfinite(v).all():
        raise ValueError("cannot project a non-finite m onto the simplex")
    flat = v.ravel()
    u = np.sort(flat)[::-1]
    css = np.cumsum(u) - flat.size
    idx = np.arange(1, flat.size + 1)
    rho = idx[u - css / idx > 0][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def project_feasible(u: GridFunction, m: GridFunction) -> FeasiblePoint:
    """Euclidean projection onto A_h: de-mean u, simplex-project m;
    `FeasiblePoint` raises ValueError for a u and m on two grids."""
    uproj = u.values - u.values.mean()
    mproj = project_simplex_values(m.values)
    return FeasiblePoint(GridFunction(u.grid, uproj), GridFunction(m.grid, mproj))


# ---------------------------------------------------------------------------
# effective-Hamiltonian estimate and a priori diagnostics

def estimate_Hbar(pt: FeasiblePoint, obj: DiscreteObjective,
                  k: np.ndarray) -> tuple[float, float]:
    """(mean, std) of k/m^alpha + V - g(m) over {m > MASS_CUTOFF}, with
    k = |P+Du|^gamma/gamma = `obj.kinetic_density` at the point's u.

    At a minimizer the nodewise quantity is the constant making the HJB
    equation hold; the standard deviation is a stationarity residual.
    """
    obj._check_point(pt)
    sp = obj.spec
    m = pt.m.values
    mask = m > MASS_CUTOFF
    if not mask.any():
        raise DegenerateSolutionError(
            f"no nodes with m > {MASS_CUTOFF}; cannot estimate the effective Hamiltonian"
        )
    q = k[mask] / m[mask] ** sp.alpha + sp.V.values[mask] - sp.coupling.g(m[mask])
    return float(q.mean()), float(q.std())


def apriori_diagnostics(pt: FeasiblePoint, obj: DiscreteObjective) -> dict:
    """Integral quantities bounded a priori along smooth solutions, m
    floored at M_FLOOR inside negative powers, by key:

    - "congestion_energy_weighted": integral of
      |(P+Du)/m^ab|^gamma (m^ab + m^(ab+1)) with ab = alpha/(gamma-1);
    - "coupling_balance": integral of (m-1) g(m);
    - "second_order_proxy": integral of g'(m) |Dm|^2.

    Observational only: `diagnostics_record` computes them on request,
    never a solve.
    """
    obj._check_point(pt)
    sp = obj.spec
    h = sp.grid.h
    m = pt.m.values
    mf = np.maximum(m, M_FLOOR)
    w = obj.drifted_grad(pt.u.values)
    kin = sp.gamma * obj.kinetic_density(w)  # |P+Du|^gamma
    # |(P+Du)/m^ab|^g (m^ab + m^(ab+1)) = |P+Du|^g (m^-alpha + m^(1-alpha)),
    # using ab = alpha/(gamma-1)
    congestion = kin * (mf ** (-sp.alpha) + mf ** (1.0 - sp.alpha))
    coupling_balance = (m - 1.0) * sp.coupling.g(np.maximum(m, 0.0))
    dm_sq = np.zeros_like(m)
    for k in range(sp.dim):
        dm_sq += central_diff_values(m, h, k) ** 2
    second_order = sp.coupling.g_prime(np.maximum(m, 0.0), z_floor=M_FLOOR) * dm_sq
    return {
        "congestion_energy_weighted": integrate_values(congestion, h),
        "coupling_balance": integrate_values(coupling_balance, h),
        "second_order_proxy": integrate_values(second_order, h),
    }


def diagnostics_record(pt: FeasiblePoint, obj: DiscreteObjective) -> dict:
    """One JSON-ready record per solve; J_h is undefined at alpha = 1, so
    "Jh" is NaN there, as in the oracle's result.  k is formed once, for
    the H-bar estimate and J_h."""
    eu, em = pt.feasibility_errors()
    k = obj.kinetic_density(obj.drifted_grad(pt.u.values))
    try:
        hbar, hstd = estimate_Hbar(pt, obj, k)
    except DegenerateSolutionError:
        hbar, hstd = float("nan"), float("nan")
    m = pt.m.values
    jh = obj.value_arrays(k, m, obj.stiffness(m)) if obj.spec.alpha > 1.0 else math.nan
    return {
        "Jh": jh,
        "Hbar_mean": hbar,
        "Hbar_std": hstd,
        "mass_error": em,
        "umean_error": eu,
        "apriori": apriori_diagnostics(pt, obj),
    }
