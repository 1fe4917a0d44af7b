"""Reference routes the tests hold the package to, each derived apart from
the code path it checks."""

import math
from fractions import Fraction

import numpy as np

from designforge.gegenbauer import gegenbauer_at_one_exact, gegenbauer_terms, harmonic_dim
from designforge.kernel import _energy_rule, _node_blocks, gw_d1
from designforge.sphere import TWO_PI, cap_area_fraction, cap_colatitude, tangent_rows
from designforge.verifier import (
    _arc_blocks,
    monomial_exponents,
    monomial_sphere_integral,
)


def gp1_closed_form(d, n):
    """Closed-form sum for g'(1): sum_k (2k+d-1) (k+d-2)! / (k! d!).

    sum_k dim_k / d written out in factorials, apart from `harmonic_dim`'s
    binomial difference; used to cross-check KernelSpec.gp1.
    """
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction((2 * k + d - 1) * math.factorial(k + d - 2),
                          math.factorial(k) * math.factorial(d))
    return float(total)


def kernel_lambda(d, k):
    """Exact coefficient lambda_k = dim_k / (w_k C_k(1)) of the kernel g in
    the unnormalized C_k basis (2/k T_k on the circle), w_k = k (k+d-1)."""
    return Fraction(harmonic_dim(d, k), k * (k + d - 1) * gegenbauer_at_one_exact(d - 1, k))


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


def region_contains(partition, i, x):
    """Whether the point x lies in region i of the partition: each level's
    colatitude, or on the circle its longitude, within the level's half-open
    interval, closed where it reaches the end of its domain."""
    x = np.asarray(x, dtype=float)
    m = partition.d
    for lo, hi in partition.bounds[i]:
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


def sample_by_region(partition, rng):
    """One point drawn in each region, region by region: the recursion that
    `Partition.sample` vectorizes, on the same random stream (per region one
    uniform per level, outermost first, then a standard normal direction
    for a region that stops above the circle), with the cap functions
    called one number at a time."""
    return np.stack([_sample_region(b, partition.d, rng) for b in partition.bounds])


def _sample_region(levels, m, rng):
    if not levels:
        while True:
            g = rng.standard_normal(m + 1)
            if np.linalg.norm(g) > 0.0:
                return g / np.linalg.norm(g)
    lo, hi = levels[0]
    if m == 1:
        phi = lo + rng.random() * (hi - lo)
        return np.array([math.cos(phi), math.sin(phi)])
    vlo = float(cap_area_fraction(m, lo))
    vhi = float(cap_area_fraction(m, hi))
    theta = float(cap_colatitude(m, vlo + rng.random() * (vhi - vlo)))
    sub = _sample_region(levels[1:], m - 1, rng)
    return np.concatenate([math.sin(theta) * sub, [math.cos(theta)]])


def center_by_region(levels, m):
    """The center of `Partition.centers` for one region's levels on S^m, by
    recursion over its levels, outermost first: each level's midpoint, a
    colatitude level reaching a pole at the pole, and the cross-section's
    pole below the last level."""
    if not levels:
        out = np.zeros(m + 1)
        out[m] = 1.0
        return out
    lo, hi = levels[0]
    if m == 1:
        phi = 0.5 * (lo + hi)
        return np.array([math.cos(phi), math.sin(phi)])
    if lo == 0.0:
        theta = 0.0
    elif hi >= math.pi:
        theta = math.pi
    else:
        theta = 0.5 * (lo + hi)
    sub = center_by_region(levels[1:], m - 1)
    return np.concatenate([math.sin(theta) * sub, [math.cos(theta)]])


def diameter_bound(levels, m):
    """The bound of `Partition.region_diameters` for one region's levels on
    S^m, by recursion over its levels, outermost first."""
    if not levels:
        return 2.0
    lo, hi = levels[0]
    if m == 1:
        width = min(hi - lo, math.pi)
        return 2.0 * math.sin(width / 2.0)
    if len(levels) == 1:
        # full cross-section band: exact diameter 2*sin(s/2) with
        # s the admissible colatitude sum closest to pi
        s = min(max(math.pi, 2.0 * lo), 2.0 * hi)
        return 2.0 * math.sin(s / 2.0)
    sub = diameter_bound(levels[1:], m - 1)
    if lo <= math.pi / 2.0 <= hi:
        smax = 1.0
    else:
        smax = max(math.sin(lo), math.sin(hi))
    bound = math.sqrt(4.0 * math.sin((hi - lo) / 2.0) ** 2 + (smax * sub) ** 2)
    return min(bound, 2.0)


def cap_area_mp(d, theta, dps=30):
    """int_0^theta sin^(d-1) / int_0^pi sin^(d-1) by mpmath quadrature at dps
    digits, theta a float taken as exact."""
    import mpmath

    with mpmath.workdps(dps):
        def integral(top):
            return mpmath.quad(lambda s: mpmath.sin(s) ** (d - 1), [0, top])

        return integral(mpmath.mpf(theta)) / integral(mpmath.pi)


def gauss_gegenbauer_mp(n, alpha, nodes, indices, dps=30):
    """Nodes and normalized weights of the n-point Gauss rule of the weight
    (1 - t^2)^(alpha - 1/2) at the given indices, in mpmath at dps digits.

    Each node is the float node refined by Newton's method on the three-term
    recurrence; its weight is the Christoffel number 1 / sum_j p_j(t)^2 over
    the orthonormal p_j, j < n, of the normalized weight, whose squared
    norms are lead_j^2 beta_1 ... beta_j for P_j = lead_j t^j + ... and the
    monic recurrence coefficients beta_j = j (j + 2 alpha - 1) /
    (4 (j + alpha) (j + alpha - 1)).  None of it forms 1 - t^2 weights or
    P_{n-1} alone.  alpha > 0.
    """
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        b = [None, None] + [mpmath.mpf(k - 1) / (k + 2 * a - 1) for k in range(2, n + 1)]
        norms = [mpmath.mpf(1)]
        lead = mpmath.mpf(1)
        betas = mpmath.mpf(1)
        for j in range(1, n):
            if j >= 2:
                lead *= 1 + b[j]
            betas *= j * (j + 2 * a - 1) / (4 * (j + a) * (j + a - 1))
            norms.append(lead ** 2 * betas)

        def terms(t):
            out = [mpmath.mpf(1), t]
            for k in range(2, n + 1):
                out.append(t * out[-1] + b[k] * (t * out[-1] - out[-2]))
            return out

        ts, ws = [], []
        for i in indices:
            t = mpmath.mpf(float(nodes[i]))
            for _ in range(3):
                P = terms(t)
                t -= P[n] * (1 - t * t) / (n * (P[n - 1] - t * P[n]))
            P = terms(t)
            ts.append(t)
            ws.append(1 / mpmath.fsum(P[j] ** 2 / norms[j] for j in range(n)))
        return ts, ws


def ring_values(evaluate, rings, m):
    """Values (R, L) of a degree-<=m polynomial at every node of the rings.

    The same route as `verifier._ring_abs_integral`: the rings' Fourier
    coefficients per block of rings, turned to each arc's center, then the
    two half-arc matmuls of `verifier._arc_blocks`, whose even and odd
    parts C and S give P = C + S and C - S at the arc's mirror-paired
    nodes, assembled here.  Each step is exact for trigonometric degree
    <= m, so the result is P at the nodes up to rounding.  Needs L >= 2m+1,
    so that the nodes determine P on every ring.
    """
    L = rings.L
    if L < 2 * m + 1:
        raise ValueError(f"rings need at least {2 * m + 1} longitudes for degree {m}")
    values = np.empty((rings.weight.size, L))
    for j0, r0, w, C, S in _arc_blocks(rings, m)(evaluate):
        arcs, n_rings, _ = C.shape
        # node w // 2 + h of an arc is its center plus psi_h, node (w - 1) // 2 - h minus
        block = np.empty((n_rings, arcs, w))
        block[..., w // 2:] = (C + S).transpose(1, 0, 2)
        block[..., :(w + 1) // 2] = (C - S)[..., ::-1].transpose(1, 0, 2)
        values[r0:r0 + n_rings, j0:j0 + arcs * w] = block.reshape(n_rings, -1)
    return values


def worst_monomial_deviation_loop(X, n):
    """Max |mean x^a - integral x^a| over monomials of degree 1..n, one
    monomial at a time in `monomial_exponents` order: the per-monomial loop
    that `verifier.worst_monomial_deviation` evaluates in blocks, bit for
    bit.  Returns (worst, witness_exponents), the witness the first max."""
    d = X.shape[1] - 1
    powers = [
        np.stack([X[:, c] ** e for e in range(n + 1)]) for c in range(d + 1)
    ]
    worst = -1.0
    witness = None
    for a in monomial_exponents(d, n):
        vals = powers[0][a[0]].copy()
        for c in range(1, d + 1):
            if a[c]:
                vals *= powers[c][a[c]]
        deviation = abs(float(np.mean(vals)) - monomial_sphere_integral(a))
        if deviation > worst:
            worst = deviation
            witness = a
    return worst, witness


def fields_column_sums(spec, X):
    """`kernel._fields` with each degree's column sums taken by
    `term.sum(axis=0)`, as before they became a BLAS gemv."""
    Z, _ = _energy_rule(spec.d, spec.n)
    N = X.shape[0]
    coeffs = np.sqrt(spec.series[0]) / N
    F = np.empty((spec.n, Z.shape[0]))
    for nodes in _node_blocks(N, Z.shape[0]):
        terms = gegenbauer_terms(spec.alpha, spec.n, X @ Z[nodes].T)
        next(terms)
        for k, term in enumerate(terms):
            F[k, nodes] = coeffs[k] * term.sum(axis=0)
    return F


def gradient_forward(spec, X, F=None):
    """`kernel._gradient_raw` with sum_k V_k P_{k-1}^{alpha+1} accumulated
    degree by degree over `gegenbauer_terms`, as before it became one
    Clenshaw sum; its fields are `fields_column_sums`."""
    Z, maps = _energy_rule(spec.d, spec.n)
    N = X.shape[0]
    if F is None:
        F = fields_column_sums(spec, X)
    c = np.sqrt(spec.dims * spec.weights) / (spec.d * N)
    V = np.zeros_like(F)
    for k, B in enumerate(maps):
        m = B.shape[0]
        V[k, :m] = 2.0 * c[k] * (B @ (B.T @ F[k, :m]))
    G = np.zeros_like(X)
    for nodes in _node_blocks(N, Z.shape[0]):
        terms = gegenbauer_terms(spec.alpha + 1.0, spec.n - 1, X @ Z[nodes].T)
        A = V[0, nodes] * next(terms)
        scratch = np.empty_like(A)
        for k, term in enumerate(terms, 1):
            A += np.multiply(V[k, nodes], term, out=scratch)
        G += A @ Z[nodes]
    return tangent_rows(X, G)
