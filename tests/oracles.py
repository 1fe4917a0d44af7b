"""Reference routes the tests hold the package to, each derived apart from
the code path it checks."""

import math
from fractions import Fraction

import numpy as np

from designforge.kernel import gw_d1
from designforge.sphere import TWO_PI, tangent_rows
from designforge.verifier import _arc_blocks, _arc_width


def gp1_closed_form(d, n):
    """Closed-form sum for g'(1): sum_k (2k+d-1) (k+d-2)! / (k! d!).

    Independent of the coefficient route through lam_k; used to cross-check
    KernelSpec.gp1.
    """
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction((2 * k + d - 1) * math.factorial(k + d - 2),
                          math.factorial(k) * math.factorial(d))
    return float(total)


def descent_velocities(spec, X):
    """Descent velocities -grad Phi(x_i), one row per point, derived from the
    Gram form of the field Phi(y) = (1/N) sum_j g(<x_j, y>) directly: O(N^2),
    the independent reference the tests hold the energy gradient to."""
    N = X.shape[0]
    V = np.empty_like(X)
    for i in range(N):
        t = np.clip(X @ X[i], -1.0, 1.0)
        w = gw_d1(spec, t)
        proj = X - t[:, None] * X[i]
        V[i] = -(w[:, None] * proj).sum(axis=0) / N
    return tangent_rows(X, V)


def region_contains(region, x):
    """Whether the point x lies in the region: each level's colatitude, or
    on the circle its longitude, within the level's half-open interval,
    closed where it reaches the end of its domain."""
    x = np.asarray(x, dtype=float)
    m = region.d
    for lo, hi in region.levels:
        if m == 1:
            phi = math.atan2(x[1], x[0]) % TWO_PI
            return lo <= phi < hi or (hi >= TWO_PI and phi >= lo)
        theta = math.acos(max(-1.0, min(1.0, x[m] / np.linalg.norm(x))))
        closed = hi >= math.pi
        if not (lo <= theta and (theta < hi or (closed and theta <= hi))):
            return False
        s = np.linalg.norm(x[:m])
        if s == 0.0:
            return True
        x = x[:m] / s
        m -= 1
    return True


def ring_values(evaluate, rings, m):
    """Values (R, L) of a degree-<=m polynomial at every node of the rings.

    The same route as `verifier._ring_abs_integral`: each ring's Fourier
    coefficients from the torus, then one real matmul against the cos/sin
    table per block of arcs (`verifier._arc_blocks`), whose blocks are
    assembled here.  Each step is exact for trigonometric degree <= m, so
    the result is P at the nodes up to rounding.  Needs L >= 2m+1, so that
    the nodes determine P on every ring.
    """
    L = rings.L
    if L < 2 * m + 1:
        raise ValueError(f"rings need at least {2 * m + 1} longitudes for degree {m}")
    R = rings.radius.size
    B = _arc_width(L, m)
    values = np.empty((R, -(-L // B), B))
    for a0, r0, block in _arc_blocks(evaluate, rings, m):
        values[r0:r0 + block.shape[1], a0:a0 + block.shape[0]] = block.transpose(1, 0, 2)
    return values.reshape(R, -1)[:, :L]
