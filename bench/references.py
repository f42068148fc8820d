"""Independent references and residual checks for the benchmark.

Nothing here imports torusmfg: every answer the library returns is judged
against numbers computed from the raw problem parameters with plain NumPy
and SciPy root finders.  The coupling is given as power terms
((c_k, theta_k), ...) with G(z) = sum c_k z^theta_k, so g(z) = G'(z).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

QUADRATIC = ((0.5, 2.0),)  # G(m) = m^2 / 2, g(m) = m


def coupling_g(terms, z):
    return sum(c * t * z ** (t - 1.0) for c, t in terms)


# ---------------------------------------------------------------------------
# potentials, sampled without the library


def axis(n: int) -> np.ndarray:
    return np.arange(n) / n


def cosine_shift(n: int, amplitude: float, shift: float) -> np.ndarray:
    return amplitude * np.cos(2 * np.pi * (axis(n) - shift))


def gaussian_bump(n: int, amplitude: float, center: float) -> np.ndarray:
    return amplitude * np.exp(-((axis(n) - center) ** 2))


def sine_cosine_product(n: int, amplitude: float, sx: float, sy: float) -> np.ndarray:
    X, Y = np.meshgrid(axis(n), axis(n), indexing="ij")
    return amplitude * np.sin(2 * np.pi * (X + sx)) * np.cos(2 * np.pi * (Y + sy))


def exp_sin_cos(n: int, amplitude: float, sx: float, sy: float) -> np.ndarray:
    X, Y = np.meshgrid(axis(n), axis(n), indexing="ij")
    return (amplitude * np.exp(-np.sin(2 * np.pi * (X + sx)) ** 2)
            * np.cos(2 * np.pi * (Y + sy)))


# ---------------------------------------------------------------------------
# 1D variational path, P != 0: semi-analytic solution


def _decreasing_root_log(fn, shape, lo=-60.0, hi=40.0, steps=110) -> np.ndarray:
    """Nodewise root in y = log m of fn(y), strictly decreasing in y.

    Plain bisection: 110 halvings of a width-100 bracket resolve y far below
    double-precision spacing, so the answer does not depend on a tolerance.
    """
    lo = np.full(shape, lo)
    hi = np.full(shape, hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        pos = fn(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


def var1d_reference(V: np.ndarray, P: float, alpha: float, gamma: float,
                    terms=QUADRATIC) -> tuple[float, np.ndarray]:
    """(Hbar, m) of the 1D congestion MFG with drift P != 0, 1 < alpha <= gamma.

    The current j = m^(1-alpha) |P+u'|^(gamma-2) (P+u') is constant in 1D,
    so with gamma' = gamma/(gamma-1) each node solves

        |j|^gamma' m^((alpha-gamma)/(gamma-1)) / gamma - g(m) = Hbar - V,

    whose left side decreases strictly in m.  (j, Hbar) are then fixed by
    unit mass h sum m = 1 and zero-mean slope h sum (P + u') = P, where
    |P + u'| = (|j| m^(alpha-1))^(1/(gamma-1)).  Both outer equations are
    monotone and solved by nested brentq.  The trapezoid sums are
    spectrally accurate on smooth periodic data, so Hbar does not depend on
    the grid size n beyond rounding.
    """
    if P == 0.0:
        raise ValueError("the semi-analytic 1D reference needs P != 0")
    n = V.size
    h = 1.0 / n
    gp = gamma / (gamma - 1.0)
    expo = (alpha - gamma) / (gamma - 1.0)

    def m_of(j, hbar):
        a = abs(j) ** gp / gamma
        rhs = hbar - V

        def phi(y):
            m = np.exp(y)
            return a * np.exp(expo * y) - coupling_g(terms, m) - rhs

        return np.exp(_decreasing_root_log(phi, V.shape))

    def hbar_of(j):
        # mass decreases in Hbar; bracket from the node equation's range
        def mass(hb):
            return h * m_of(j, hb).sum() - 1.0

        lo, hi = float(V.min()) - 1.0, float(V.max()) + 1.0
        while mass(lo) < 0.0:
            lo -= 2.0 * (hi - lo)
        while mass(hi) > 0.0:
            hi += 2.0 * (hi - lo)
        return brentq(mass, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)

    def slope_mean(j):
        m = m_of(j, hbar_of(j))
        return h * ((abs(j) * m ** (alpha - 1.0)) ** (1.0 / (gamma - 1.0))).sum()

    target = abs(P)
    lo, hi = 0.0, 1.0
    while slope_mean(hi) < target:
        lo, hi = hi, 2.0 * hi
    jabs = brentq(lambda j: slope_mean(j) - target, lo, hi,
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)
    j = np.copysign(jabs, P)
    hbar = hbar_of(j)
    return float(hbar), m_of(j, hbar)


# ---------------------------------------------------------------------------
# P = 0 oracle with quadratic G: water-filling


def water_filling(V: np.ndarray) -> tuple[float, np.ndarray]:
    """(Hbar, m) with m = max(V - Hbar, 0) and h^d sum m = 1, g(m) = m.

    With the k largest values active, Hbar = (h^d sum_top_k V - 1)/(h^d k);
    the answer is the first k whose Hbar lies in [V_(k+1), V_(k)).
    """
    hd = 1.0 / V.size
    v = np.sort(V.ravel())[::-1]
    k = np.arange(1, v.size + 1)
    hbar_k = (hd * np.cumsum(v) - 1.0) / (hd * k)
    below = np.append(v[1:], -np.inf)
    ok = (v > hbar_k) & (hbar_k >= below)
    hbar = float(hbar_k[np.argmax(ok)])
    return hbar, np.maximum(V - hbar, 0.0)


# ---------------------------------------------------------------------------
# critical congestion alpha = 1 with quadratic G


def critical_reference(V: np.ndarray, P_norm: float, gamma: float) -> float:
    """Hbar for alpha = 1, g(m) = m: K/m - m = Hbar - V with K = |P|^gamma/gamma.

    Each node is the positive root of m^2 + c m - K = 0, c = Hbar - V,
    written as 2K / (c + sqrt(c^2 + 4K)) to avoid cancellation; the mass
    decreases in Hbar.
    """
    K = P_norm**gamma / gamma
    hd = 1.0 / V.size

    def mass(hbar):
        c = hbar - V
        return hd * (2.0 * K / (c + np.sqrt(c * c + 4.0 * K))).sum() - 1.0

    lo, hi = float(V.min()) - K - 2.0, float(V.max()) + K + 2.0
    return float(brentq(mass, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps))


def critical_residual(m: np.ndarray, hbar: float, V: np.ndarray, P_norm: float,
                      gamma: float, terms=QUADRATIC) -> tuple[float, float]:
    """(max nodewise residual, |unit-mass error|) of an alpha = 1 answer."""
    K = P_norm**gamma / gamma
    with np.errstate(divide="ignore"):
        r = K / m - coupling_g(terms, m) - (hbar - V)
    return float(np.max(np.abs(r))), abs(float(m.mean()) - 1.0)


# ---------------------------------------------------------------------------
# alpha < 1 pipeline: HJB residual and dual stationarity


def central_diff(v: np.ndarray, axis_: int) -> np.ndarray:
    """4th-order 5-point periodic central difference, spacing 1/N."""
    n = v.shape[axis_]
    d1 = np.roll(v, -1, axis=axis_) - np.roll(v, 1, axis=axis_)
    d2 = np.roll(v, -2, axis=axis_) - np.roll(v, 2, axis=axis_)
    return (8.0 * d1 - d2) * n / 12.0


def upwind_hjb_residual(u: np.ndarray, m: np.ndarray, P, V: np.ndarray,
                        alpha: float, gamma: float, beta: float,
                        mass_cutoff: float = 1e-4, terms=QUADRATIC) -> float:
    """max |beta u + S(u)/(gamma m^alpha) + V - g(m)| with the monotone
    upwind S = sum_k (-P_k - D+u)_+^gamma + (P_k + D-u)_+^gamma."""
    n = u.shape[0]
    s = np.zeros_like(u)
    for k in range(u.ndim):
        fwd = (np.roll(u, -1, axis=k) - u) * n
        bwd = (u - np.roll(u, 1, axis=k)) * n
        s += np.maximum(-P[k] - fwd, 0.0) ** gamma + np.maximum(P[k] + bwd, 0.0) ** gamma
    denom = gamma * np.maximum(m, mass_cutoff) ** alpha
    r = beta * u + s / denom + V - coupling_g(terms, np.maximum(m, 0.0))
    return float(np.max(np.abs(r)))


def hamiltonian_spread(u: np.ndarray, m: np.ndarray, P, V: np.ndarray,
                       alpha: float, gamma: float, terms=QUADRATIC,
                       mass_cutoff: float = 1e-4) -> tuple[float, float]:
    """(mean, std) of |P+Du|^gamma/(gamma m^alpha) + V - g(m) on {m > cutoff}.

    At a discrete minimiser this nodewise Hamiltonian is constant (the KKT
    condition in m), so its std measures the distance from stationarity.
    """
    w2 = sum((P[k] + central_diff(u, k)) ** 2 for k in range(u.ndim))
    mask = m > mass_cutoff
    q = (w2[mask] ** (gamma / 2.0) / (gamma * m[mask] ** alpha) + V[mask]
         - coupling_g(terms, m[mask]))
    return float(q.mean()), float(q.std())
