"""Periodic torus grids, grid functions and finite-difference stencils.

Everything in this package lives on the uniform grid of the flat torus
[0,1)^d with d in {1, 2}: N nodes per axis, spacing h = 1/N, and all index
arithmetic wrapping modulo N.  Grid functions are stored as C-ordered
ndarrays of shape (N,)*d, so node (i, j) sits at (i*h, j*h).  A
GridFunction only pairs such an array with its grid: every operator below
exists once, as a kernel on plain ndarrays that takes the spacing h.

The derivative operator is the 4th-order, 5-point central stencil

    (D_k f)_i = (-f_{i+2} + 8 f_{i+1} - 8 f_{i-1} + f_{i-2}) / (12 h),

which is antisymmetric on the periodic grid (exact discrete integration by
parts).  Its normal operator sum_k D_k^T D_k is circulant, and its
pseudo-inverse is applied by FFT (`normal_pinv_values`); the optimizer uses
it as the u-block metric.  The active one-sided slopes of the first-order
upwind discretisation of |P + Du|^gamma (`upwind_slopes`) serve the
Hamilton-Jacobi solves, whose scheme sums their gamma powers, with a
nested-dissection order of the nodes (`nested_dissection_order`) for the
sparse direct solves of their Newton steps.  Quadrature is the
periodic trapezoid rule h^d * sum(values).

Every periodic shift is a gather through one cached table of neighbour
indices per N (`periodic_shift`): on the small arrays the solvers iterate
on it costs a fraction of building the shifted copy from slices, and the
values are the same.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N^dim grid on the unit torus, spacing h = 1/N."""

    dim: int
    n: int

    def __post_init__(self):
        # bool is an Integral, and True would pass for dim 1
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.dim, self.n)):
            raise ValueError(f"dim and n must be integers, got {(self.dim, self.n)}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 5:
            raise ValueError(f"n must be >= 5 (5-point stencil), got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def num_nodes(self) -> int:
        return self.n**self.dim

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis: 0, h, 2h, ..., (N-1)h."""
        return np.arange(self.n) / self.n

    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of the full grid, shaped like a grid function."""
        return tuple(np.meshgrid(*(self.axis_coords(),) * self.dim, indexing="ij"))

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.shape))

    def constant(self, c: float) -> "GridFunction":
        return GridFunction(self, np.full(self.shape, float(c)))

    def from_callable(self, fn) -> "GridFunction":
        """Sample fn(x) (d=1) or fn(x, y) (d=2) at the nodes."""
        return GridFunction(self, fn(*self.coords()))


@dataclass
class GridFunction:
    """Scalar field sampled on a TorusGrid, values in row-major axis order."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            if self.values.size == self.grid.num_nodes:
                self.values = self.values.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"values has {self.values.size} entries, grid needs "
                    f"{self.grid.num_nodes}"
                )


@functools.lru_cache(maxsize=32)
def _neighbour_table(n: int) -> dict[int, np.ndarray]:
    """Read-only indices (i + s) % n of the neighbours at s = -2, -1, 1, 2."""
    table = {}
    for s in (-2, -1, 1, 2):
        idx = (np.arange(n) + s) % n
        idx.setflags(write=False)
        table[s] = idx
    return table


def periodic_shift(v: np.ndarray, s: int, axis: int) -> np.ndarray:
    """Values at node (i + s) mod n along an axis, where n = v.shape[axis].

    s is one of -2, -1, 1, 2, the reach of the 5-point stencil.
    """
    return v.take(_neighbour_table(v.shape[axis])[s], axis=axis)


def central_diff_values(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """5-point central difference of a periodic ndarray along an axis.

    Grouped as differences of symmetric neighbours so constants map to
    exactly zero in floating point.
    """
    if not 0 <= axis < v.ndim:
        raise ValueError(f"axis {axis} out of range for a {v.ndim}D array")
    d1 = periodic_shift(v, 1, axis) - periodic_shift(v, -1, axis)
    d2 = periodic_shift(v, 2, axis) - periodic_shift(v, -2, axis)
    return (8.0 * d1 - d2) / (12.0 * h)


@functools.lru_cache(maxsize=32)
def _normal_pinv_symbol(shape: tuple[int, ...]) -> np.ndarray:
    """Read-only rfftn-layout symbol of pinv(sum_k D_k^T D_k) at h = 1.

    D_k has the symbol i (8 sin t_k - sin 2t_k) / (6h), t_k = 2 pi j_k / n_k,
    so the normal operator has the sum of the squares.  That sum vanishes
    exactly where every t_k is 0 or pi (the constant mode and the Nyquist
    checkerboards); those entries are found from the integer frequencies,
    not from the rounded sines, and set to 0.
    """
    symbol = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,))
    null = np.ones(symbol.shape, dtype=bool)
    for axis, n in enumerate(shape):
        j = np.arange(n) if axis < len(shape) - 1 else np.arange(n // 2 + 1)
        t = 2.0 * np.pi * j / n
        along = [1] * len(shape)
        along[axis] = j.size
        d_sq = ((8.0 * np.sin(t) - np.sin(2.0 * t)) / 6.0) ** 2
        symbol = symbol + d_sq.reshape(along)
        null = null & ((j == 0) | (2 * j == n)).reshape(along)
    inv = np.zeros(symbol.shape)
    inv[~null] = 1.0 / symbol[~null]
    inv.setflags(write=False)
    return inv


def normal_pinv_values(v: np.ndarray, h: float) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of L = sum_k D_k^T D_k applied to v.

    L, the normal operator of the 5-point stencil over all axes, is
    circulant, so its pseudo-inverse is a division by its symbol in Fourier
    space.  The constant mode and the Nyquist checkerboards span its null
    space and map to 0; any D_k^T(.) has no content there.  The output has
    mean zero.  A 1D v takes rfft/irfft, equal bit for bit to the rfftn
    form and with less call overhead on the small arrays of 1D solves.
    """
    symbol = _normal_pinv_symbol(v.shape)
    if v.ndim == 1:
        return h**2 * np.fft.irfft(np.fft.rfft(v) * symbol, n=v.size)
    axes = tuple(range(v.ndim))
    spec = np.fft.rfftn(v, axes=axes) * symbol
    return h**2 * np.fft.irfftn(spec, s=v.shape, axes=axes)


def central_diff2_values(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Plain 2-point central difference (f_{i+1} - f_{i-1}) / 2h.

    Not the scheme stencil; used for scheme-independent residual checks.
    """
    return (periodic_shift(v, 1, axis) - periodic_shift(v, -1, axis)) / (2.0 * h)


def upwind_slopes(u: np.ndarray, p: np.ndarray, h: float):
    """Active one-sided slopes per axis k, with D+ u = (u_{+1} - u)/h:

        a_k = max(-p_k - (D+ u)_i, 0),   b_k = max(p_k + (D+ u)_{i-1}, 0).
    """
    a, b = [], []
    for k in range(u.ndim):
        fwd = (periodic_shift(u, 1, k) - u) / h
        bwd = (u - periodic_shift(u, -1, k)) / h  # forward difference at i-1
        a.append(np.maximum(-p[k] - fwd, 0.0))
        b.append(np.maximum(p[k] + bwd, 0.0))
    return a, b


@functools.lru_cache(maxsize=32)
def nested_dissection_order(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (perm, inv): a nested-dissection order of the periodic grid.

    perm[i] is the C-order flat index of the node placed i-th and inv is its
    inverse.  The longest axis of a box is split recursively and each
    separator is placed after the two halves it splits.  A periodic axis
    needs two planes, at its index 0 and at its midpoint, to fall apart; an
    axis already cut needs one, at its midpoint.  Boxes whose longest axis
    has at most 3 nodes keep C order.  On the 5-point lattice this is the
    order of George (SIAM J. Numer. Anal. 10, 1973): the LU factors of a
    matrix with that pattern fill in far less than in C order.
    """
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    parts = []

    def dissect(box, periodic):
        sizes = [hi - lo for lo, hi in box]
        k = int(np.argmax(sizes))
        if sizes[k] <= 3:
            parts.append(idx[tuple(slice(lo, hi) for lo, hi in box)].ravel())
            return
        lo, hi = box[k]
        mid = lo + sizes[k] // 2
        planes = (lo, mid) if periodic[k] else (mid,)
        cut = periodic[:k] + (False,) + periodic[k + 1:]
        for half in ((lo + 1 if periodic[k] else lo, mid), (mid + 1, hi)):
            dissect(box[:k] + (half,) + box[k + 1:], cut)
        for plane in planes:
            sep = [slice(a, b) for a, b in box]
            sep[k] = slice(plane, plane + 1)
            parts.append(idx[tuple(sep)].ravel())

    dissect(tuple((0, n) for n in shape), (True,) * len(shape))
    perm = np.concatenate(parts)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    perm.setflags(write=False)
    inv.setflags(write=False)
    return perm, inv


def integrate_values(v: np.ndarray, h: float) -> float:
    """Torus quadrature h^d * sum(values); exact mean since h^d N^d = 1."""
    return h**v.ndim * float(v.sum())


# ---------------------------------------------------------------------------
# serialization: a JSON-ready record {dim, n, values}

def to_json_record(f: GridFunction) -> dict:
    return {"dim": f.grid.dim, "n": f.grid.n, "values": f.values.ravel().tolist()}


def from_json_record(rec: dict) -> GridFunction:
    """The GridFunction of a `to_json_record` record; ValueError from
    `TorusGrid` for a dim or n that is not an integer."""
    return GridFunction(TorusGrid(rec["dim"], rec["n"]), rec["values"])
