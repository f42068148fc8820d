"""Machine-speed probe for rescaling solve times.

The host's speed drifts by tens of percent over tens of seconds when other
tenants load it, and the solvers slow with it.  A fixed probe of the same
kinds of work is timed between consecutive solves; dividing a solve's time
by the probe time around it cancels the drift.  The probe has three parts
of similar cost: small-array stencils and reductions driven by the
interpreter (the 1D optimizer), elementwise powers on a few thousand nodes
(the oracle root loops and 2D objective), and a sparse LU solve on a 2D
five-point matrix (the HJB Newton step).  It calls no library code.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

REFERENCE_S = 0.012  # probe time on an unloaded 2-core x86-64 host


class Probe:
    """Fixed probe work; inputs are built once, calls time only the work."""

    small_rounds = 100
    big_rounds = 120
    solves = 1

    def __init__(self):
        self.small = np.linspace(0.0, 1.0, 128)
        self.big = np.linspace(0.1, 2.0, 4096)
        n = 32
        lap = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sps.identity(n)
        self.matrix = (sps.kron(lap, eye) + sps.kron(eye, lap) + 0.1 * sps.identity(n * n)).tocsc()
        self.rhs = np.linspace(-1.0, 1.0, n * n)

    def __call__(self) -> float:
        """Seconds for one round of probe work."""
        s, acc = self.small, 0.0
        t = time.perf_counter()
        for _ in range(self.small_rounds):
            d = 8.0 * (np.roll(s, -1) - np.roll(s, 1)) - (np.roll(s, -2) - np.roll(s, 2))
            acc += float(np.sum(d * d))
        for _ in range(self.big_rounds):
            acc += float(np.where(self.big > 1.0, self.big**1.5, 0.5 * self.big).sum())
        for _ in range(self.solves):
            acc += float(spla.spsolve(self.matrix, self.rhs)[0])
        elapsed = time.perf_counter() - t
        if not np.isfinite(acc):
            raise RuntimeError("probe arithmetic is not finite")
        return elapsed
