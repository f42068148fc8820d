"""Problem data: congestion exponents, drift, potentials and the coupling.

The density cost is a strictly convex power sum G(z) = sum_k c_k z^{theta_k}
with c_k > 0 and theta_k > 1, so g = G' is strictly increasing with
g(0+) = 0 and the Legendre-conjugate derivative (G*)' is total.  The
congestion integrand

    fbar(p, m) = |P + p|^gamma / (gamma (alpha - 1) m^(alpha - 1))

is extended to m = 0 by +inf unless p = -P (value 0 there), which keeps it
jointly convex and lower semi-continuous for 1 < alpha <= gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, TorusGrid


@dataclass(frozen=True)
class CouplingG:
    """Convex coupling G(z) = sum_k c_k z^theta_k, c_k > 0, theta_k > 1."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(c), float(t)) for c, t in self.terms)
        )
        if not self.terms:
            raise ValueError("coupling needs at least one power term")
        # NaN fails every comparison, so it stops here too
        for c, t in self.terms:
            if not 0 < c < math.inf:
                raise ValueError(f"coefficient must be positive and finite, got {c}")
            if not 1 < t < math.inf:
                raise ValueError(f"exponent must exceed 1 and be finite, got {t}")

    def G(self, z):
        z = np.asarray(z, dtype=float)
        _check_nonneg(z)
        return sum(c * z**t for c, t in self.terms)

    def g(self, z):
        """g = G', strictly increasing on z > 0 with g(0+) = 0; ValueError
        for a negative z.  Callers whose argument is >= 0 by construction,
        the m-block's iterates, call `_g` and skip the check."""
        z = np.asarray(z, dtype=float)
        _check_nonneg(z)
        return self._g(z)

    def _g(self, z):
        """g at an ndarray z >= 0, unchecked.  A one-term theta = 2 coupling
        takes the closed form 2c z, with no power; any other coupling the
        sum over its terms."""
        if len(self.terms) == 1 and self.terms[0][1] == 2.0:
            return 2.0 * self.terms[0][0] * z
        return sum(c * t * z ** (t - 1.0) for c, t in self.terms)

    def g_prime(self, z, z_floor: float = 0.0):
        """g' = G'' shaped like z, z floored at z_floor before negative
        powers; ValueError for a negative z.  Callers whose argument is
        >= 0 by construction call `_g_prime` and skip the check."""
        z = np.asarray(z, dtype=float)
        _check_nonneg(z)
        gp = self._g_prime(z, z_floor)
        return np.full(z.shape, gp) if np.ndim(gp) == 0 else gp

    def _g_prime(self, z, z_floor: float):
        """g' at an ndarray z >= 0, unchecked; z floored at z_floor before
        negative powers (theta < 2 terms).  A one-term theta = 2 coupling
        takes the number 2c, which broadcasts against z; any other coupling
        the sum over its terms."""
        if len(self.terms) == 1 and self.terms[0][1] == 2.0:
            return 2.0 * self.terms[0][0]
        out = np.zeros_like(z)
        for c, t in self.terms:
            zz = np.maximum(z, z_floor) if t < 2.0 else z
            out = out + c * t * (t - 1.0) * zz ** (t - 2.0)
        return out

    def scaled(self, factor: float) -> "CouplingG":
        return CouplingG(tuple((factor * c, t) for c, t in self.terms))

    def conjugate_deriv(self, q, m0=None):
        """(G*)'(q): the unique m >= 0 with g(m) = q for q > 0, else 0.

        Total on all of R since g(0+) = 0 and g is increasing and coercive.
        A one-term coupling c z^theta has the closed form
        (max(q, 0) / (c theta))^(1 / (theta - 1)), with no power at
        theta = 2, and m0 is unused.  A sum of terms runs `monotone_root`
        nodewise on g(m) - q, warm-started at m0 (shaped like q).
        """
        q = np.asarray(q, dtype=float)
        if len(self.terms) == 1:
            (c, t), = self.terms
            out = np.maximum(q, 0.0) / (c * t)
            if t != 2.0:
                out = out ** (1.0 / (t - 1.0))
        else:
            out = np.zeros(q.shape)
            pos = q > 0.0
            if np.any(pos):
                qp = q[pos]
                start = np.ones_like(qp) if m0 is None else np.asarray(m0, float)[pos]
                # g' > 0 at the root; monotone_root keeps m >= 0, so g and g'
                # go unchecked
                out[pos] = monotone_root(
                    lambda m: (self._g(m) - qp, self._g_prime(m, 1e-300)), start
                )
        return float(out) if out.ndim == 0 else out

    def serialize(self) -> list[dict]:
        return [{"c": c, "theta": t} for c, t in self.terms]

    @staticmethod
    def quadratic() -> "CouplingG":
        """G(m) = m^2 / 2, so g(m) = m."""
        return CouplingG(((0.5, 2.0),))


def _check_nonneg(z):
    if (np.asarray(z) < 0).any():
        raise ValueError("coupling evaluated at negative argument")


# step cap of the Newton loops in monotone_root and mass_root
_MAX_STEPS = 2000
# a node's Newton step of at most NODE_STEP_RTOL m is its last
NODE_STEP_RTOL = 1e-9


def hbar_tol(hbar: float) -> float:
    """Least Newton step in Hbar that a mass solve still takes."""
    return 1e-14 + 8.9e-16 * abs(hbar)


class BracketError(RuntimeError):
    """Raised when a monotone root solve cannot bracket or reach its root."""


def monotone_root(node, m0):
    """Nodewise root of phi on [0, inf), vectorised, from the warm start m0.

    node(m) returns (phi(m), dphi(m)), both shaped like m, with dphi the
    derivative of phi: one call evaluates both, so they can share work.
    The node equations are posed on m >= 0, so the lower end is always 0.
    phi(m) < 0 below each node's root and > 0 above it.  Each node starts
    at max(m0, 0) with the bracket [0, inf) and moves one end of it to m
    by the sign of phi(m).  Until its upper end is known, the doubling point
    max(2m, 1) stands in for it, so a Newton step from far below a convex
    phi's root cannot overshoot to where phi overflows.  The node takes the
    Newton step m - phi(m)/dphi(m) when it lands strictly inside the bracket
    or when |step| <= NODE_STEP_RTOL m; otherwise, and wherever dphi(m) is
    not positive, it doubles m while its upper end is unknown and bisects
    once it is known.  Such a small step is a node's last: Newton converges
    quadratically there, so the step leaves the root exact to rounding.  A
    node also stops, keeping m, once its known bracket is so narrow that
    the midpoint is m: rounding noise in phi kept its Newton step from
    being small.  The loop ends once every node has stopped.  It raises
    BracketError after _MAX_STEPS steps, more than bisection needs to shrink
    any bracket of doubles to neighbouring floats, which happens only when
    phi or dphi is NaN.
    """
    m = np.maximum(np.asarray(m0, dtype=float), 0.0)
    lo = np.zeros_like(m)
    hi = np.full_like(m, np.inf)
    done = np.zeros(m.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        f, d = node(m)
        lo = np.where(f < 0.0, m, lo)
        hi = np.where(f > 0.0, m, hi)
        known = hi < np.inf
        # a root hit exactly steps by 0; dphi <= 0, or a dphi so small that
        # the step overflows, steps by inf, so the node doubles or bisects;
        # m doubles to inf only where phi never turns positive (NaN), and
        # the step cap reports that
        with np.errstate(over="ignore"):
            step = np.divide(f, d, out=np.where(f == 0.0, 0.0, np.inf), where=d > 0.0)
            up = np.where(known, hi, np.maximum(2.0 * m, 1.0))
            safe = np.where(known, 0.5 * (lo + hi), up)
        newton = m - step
        small = np.abs(step) <= NODE_STEP_RTOL * m
        inside = (lo < newton) & (newton < up)
        # a known bracket shrunk onto m stops the node where it is
        done |= known & (safe == m)
        m = np.where(done, m, np.where(small | inside, newton, safe))
        done |= small
        if done.all():
            return m
    raise BracketError("nodewise Newton iteration did not converge")


def mass_root(density, hbar0):
    """(Hbar, m) with unit mass cell * sum(m) = 1, where density(Hbar) =
    (m, dm) and cell = 1/N for the N nodes of m: h^d on the unit torus.

    dm is dm/dHbar nodewise, and the mass must decrease in Hbar.  A
    safeguarded Newton iteration on Hbar, with slope cell * sum(dm), starts
    from the guess hbar0.  The ends of its bracket are the Hbar evaluated so
    far, by the sign of the excess mass.  Where the slope is 0 or a step
    leaves the bracket, it moves by a doubling step while one end is still
    unknown, and bisects once both are known; BracketError after 200
    doublings.  While no Hbar with too much mass is known, a step down is at
    most the doubling step: the mass may grow without bound below the root,
    so a long step there can overflow the density, while a long step up at
    worst lands where the mass vanishes.  The iteration stops once a Newton
    step is at most hbar_tol(Hbar) or the bracket is that narrow, and
    returns the last Hbar evaluated with its m.
    """
    lo, hi = -math.inf, math.inf
    hbar, step = float(hbar0), 1.0
    for _ in range(_MAX_STEPS):
        m, dm = density(hbar)
        cell = 1.0 / m.size
        e, slope = cell * float(m.sum()) - 1.0, cell * float(dm.sum())
        if e == 0.0:
            return hbar, m
        if e > 0.0:
            lo = hbar
        else:
            hi = hbar
        tol = hbar_tol(hbar)
        new = hbar - e / slope if slope < 0.0 else math.nan
        if abs(new - hbar) <= tol or hi - lo <= tol:
            return hbar, m
        if not lo < new < hi or lo == -math.inf and new < hbar - step:
            if hi - lo < math.inf:
                new = 0.5 * (lo + hi)
            elif step < 2.0**200:
                new = hbar + step if e > 0.0 else hbar - step
                step *= 2.0
            else:
                raise BracketError("could not bracket the mass equation root")
        hbar = new
    raise BracketError("Newton iteration on the mass equation did not converge")


# ---------------------------------------------------------------------------
# extended congestion integrand and its recession function

def barf(p, m: float, P, alpha: float, gamma: float) -> float:
    """Extended integrand; +inf at m = 0 unless p = -P exactly.

    ValueError unless 1 < alpha <= gamma, for an m that is negative or NaN,
    and for a p whose length differs from P's.
    """
    # NaN fails every comparison, so it stops here too
    if not 1.0 < alpha <= gamma:
        raise ValueError(f"need 1 < alpha <= gamma, got alpha={alpha}, gamma={gamma}")
    if not m >= 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    P = np.atleast_1d(np.asarray(P, dtype=float))
    if p.shape != P.shape:
        raise ValueError(f"p has shape {p.shape}, the drift P {P.shape}")
    s = float(np.linalg.norm(P + p))
    if m == 0.0:
        return 0.0 if s == 0.0 else math.inf
    return s**gamma / (gamma * (alpha - 1.0) * m ** (alpha - 1.0))


def barf_recession(p, m: float, gamma: float) -> float:
    """Recession function |p|^gamma / (gamma (gamma-1) m^(gamma-1)): the
    integrand at alpha = gamma with no drift, with barf's checks."""
    return barf(p, m, np.zeros_like(p, dtype=float), gamma, gamma)


# ---------------------------------------------------------------------------
# potentials

# each analytic family's dimension and parameter defaults; custom-samples
# needs "values" and accepts any other key
POTENTIAL_FAMILIES = {
    "cosine-shift": (1, {"amplitude": 1.0, "shift": 0.0}),
    "sine-cosine-product": (2, {"amplitude": 1.0, "shift_x": 0.0, "shift_y": 0.0}),
    "gaussian-bump": (1, {"amplitude": 1.0, "center": 0.5}),
    "exp-sin-cos": (2, {"amplitude": 1.0, "shift_x": 0.0, "shift_y": 0.0}),
    "custom-samples": None,
}


@dataclass(frozen=True)
class PotentialFamily:
    """Named potential with parameters; sampled onto a grid on demand.

    cosine-shift (d=1):        A cos(2 pi (x - shift))
    gaussian-bump (d=1):       A exp(-(x - center)^2)
    sine-cosine-product (d=2): A sin(2 pi (x + sx)) cos(2 pi (y + sy))
    exp-sin-cos (d=2):         A exp(-sin^2(2 pi (x + sx))) cos(2 pi (y + sy))
    custom-samples:            values supplied directly

    Every analytic family is sampled on the axis coordinates, with no
    coordinate grid: each 2D family is one outer product of a factor in x,
    A f(x + sx), and a factor in y, cos(2 pi (y + sy)), so a 2D sample makes
    O(n) transcendental calls, not O(n^2).  The products are taken in the grid
    formula's order, (A f(x)) g(y), so every sample is bitwise equal to the
    formula evaluated at each node.

    `POTENTIAL_FAMILIES` holds each analytic family's dimension and the
    defaults of its parameters.  ValueError at construction for an unknown
    family, for an analytic family's parameter outside its defaults, and
    for custom-samples without "values"; ValueError from `sample` for an
    analytic family on a grid of the other dimension.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in POTENTIAL_FAMILIES:
            raise ValueError(
                f"unknown potential family {self.family!r}; "
                f"choose from {tuple(POTENTIAL_FAMILIES)}"
            )
        entry = POTENTIAL_FAMILIES[self.family]
        if entry is None and "values" not in self.params:
            raise ValueError("custom-samples needs the parameter 'values'")
        if entry is not None and not set(self.params) <= set(entry[1]):
            raise ValueError(
                f"{self.family} takes only {tuple(entry[1])}: {list(self.params)}"
            )

    def sample(self, grid: TorusGrid) -> GridFunction:
        if self.family == "custom-samples":
            vals = self.params["values"]
        else:
            dim, defaults = POTENTIAL_FAMILIES[self.family]
            if grid.dim != dim:
                word = ("one", "two")[dim - 1]
                raise ValueError(f"{self.family} is {word}-dimensional")
            p = {k: float(self.params.get(k, v)) for k, v in defaults.items()}
            A, x = p["amplitude"], grid.axis_coords()
            if self.family == "cosine-shift":
                vals = A * np.cos(2 * np.pi * (x - p["shift"]))
            elif self.family == "gaussian-bump":
                vals = A * np.exp(-((x - p["center"]) ** 2))
            else:
                fx = np.sin(2 * np.pi * (x + p["shift_x"]))
                if self.family == "exp-sin-cos":
                    fx = np.exp(-fx**2)
                # (A f(x)) g(y), the grid formula's order of products
                vals = (A * fx)[:, None] * np.cos(2 * np.pi * (x + p["shift_y"]))
        f = GridFunction(grid, vals)
        if not np.all(np.isfinite(f.values)):
            raise ValueError("potential samples must be finite")
        return f

    def serialize(self) -> dict:
        rec = {"family": self.family}
        rec.update({k: v for k, v in self.params.items() if k != "values"})
        return rec


# ---------------------------------------------------------------------------
# full problem description

@dataclass
class ProblemSpec:
    """First-order congestion MFG on the torus.

    Exponent ranges by solution path: direct variational 1 < alpha <= gamma,
    two-dimensional transform 0 < alpha < 1, critical algebraic alpha = 1.
    """

    dim: int
    n: int
    alpha: float
    gamma: float
    P: tuple[float, ...]
    V: GridFunction
    coupling: CouplingG

    def __post_init__(self):
        # TorusGrid owns the check of (dim, n)
        if TorusGrid(self.dim, self.n) != self.V.grid:
            raise ValueError("potential sampled on a different grid than (dim, n)")
        self.P = tuple(float(p) for p in np.atleast_1d(self.P))
        # NaN fails every comparison, so it stops here too
        if not 1 < self.gamma < math.inf:
            raise ValueError(f"gamma must exceed 1 and be finite, got {self.gamma}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if len(self.P) != self.dim:
            raise ValueError(f"drift needs {self.dim} components, got {len(self.P)}")
        if not all(map(math.isfinite, self.P)):
            raise ValueError(f"drift must be finite, got {self.P}")
        if not np.isfinite(self.V.values).all():
            raise ValueError("potential samples must be finite")

    @property
    def grid(self) -> TorusGrid:
        return self.V.grid

    @property
    def P_norm(self) -> float:
        return float(np.linalg.norm(self.P))
