"""Points on S^d, geodesics, quadrature rings and equal-area partitions.

Points and tangent vectors are the rows of float arrays: N points on S^d
are an (N, d+1) array X of unit rows, and tangent vectors at them are an
(N, d+1) array V with each row orthogonal to the matching row of X.
`tangent_rows` projects onto those tangent spaces, `tangent_basis` gives
each an orthonormal basis, and `_geodesic_rows` moves along great circles;
every point a region yields is such a row.

The partition construction is recursive and zonal: two polar caps plus
collars, each collar split by partitioning the cross-section sphere
S^(d-1) with the same algorithm.  A partition is its bounds; region
centers, areas (exact products of cap-area differences) and diameter
bounds (tight for caps and full bands) are derived from them on first use.

Everything here runs on numpy and `math` alone.  The normalized cap area
int_0^theta sin^(d-1) / int_0^pi sin^(d-1) is a Gauss-Legendre sum, and its
inverse is closed on S^2 and a Newton solve on the other spheres; the
product quadrature's colatitude nodes are the Gauss-Gegenbauer rules of
`gegenbauer.gauss_gegenbauer`.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gegenbauer import gauss_gegenbauer

UNIT_TOL = 1e-12
TWO_PI = 2.0 * math.pi


def tangent_rows(X, V):
    """V with each row's component along the matching row of X removed.

    V may be a stack (..., N, d+1) of such arrays; each is projected as it
    would be alone, bit for bit."""
    return V - np.einsum("...ij,ij->...i", V, X)[..., None] * X


def tangent_basis(X):
    """Orthonormal bases of the tangent spaces at the rows of X: a (d, N, d+1)
    stack of d tangent arrays, such that basis[:, i] spans the complement
    of x_i.

    basis[j - 1, i] is row j of the Householder reflection
    I - 2 v v^T / |v|^2, v = x_i + s e_0 with s the sign of x_i0 (+1 at
    0), which takes x_i to -s e_0; |v|^2 = 2 (1 + |x_i0|) >= 2, so nothing
    cancels."""
    v = X.copy()
    v[:, 0] += np.where(X[:, 0] >= 0.0, 1.0, -1.0)
    v *= np.sqrt(2.0 / np.einsum("ij,ij->i", v, v))[:, None]
    basis = -v.T[1:, :, None] * v
    for j in range(X.shape[1] - 1):
        basis[j, :, j + 1] += 1.0
    return basis


def _geodesic_rows(X, V, t):
    """Move each row of X along its great circle with tangent velocity the
    matching row of V for time t: arc length |v| t, zero velocity stays.

    Every row goes through the same array operations, a zero-velocity row
    with speed 1 in the division, and such rows then take X back exactly."""
    speeds = np.linalg.norm(V, axis=1)
    moving = (speeds > 0.0)[:, None]
    ang = (speeds * t)[:, None]
    out = X * np.cos(ang) + V / np.where(moving, speeds[:, None], 1.0) * np.sin(ang)
    out /= np.linalg.norm(out, axis=1)[:, None]
    return np.where(moving, out, X)


def _random_unit(d, rng):
    while True:
        g = rng.standard_normal(d + 1)
        n = np.linalg.norm(g)
        if n > 0.0:
            return g / n


def as_coords(points):
    """Coerce an array-like of points into an (N, d+1) float array; a single
    point of length d+1 becomes one row."""
    a = np.asarray(points, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] < 2:
        raise ValueError("expected an (N, d+1) array of points")
    return a


def off_sphere_rows(X):
    """Indices of the rows of X that are non-finite or whose norm misses 1
    by more than UNIT_TOL, the one unit-norm tolerance from file to kernel."""
    norm_error = np.abs(np.linalg.norm(np.asarray(X, dtype=float), axis=1) - 1.0)
    return np.flatnonzero(~(norm_error <= UNIT_TOL))


# -- cap geometry ----

@functools.lru_cache(maxsize=None)
def _cap_rule(d):
    """d + 8 Gauss-Legendre nodes on [0, 1], and weights summing to 1."""
    t, w = gauss_gegenbauer(d + 8, 0.5)
    return 0.5 * (1.0 + t), w


def _sin_power_integral(d, phi):
    """int_0^phi sin^(d-1) for each phi in [0, pi/2], by `_cap_rule(d)`.

    The integrand is a trigonometric polynomial of degree d - 1, and the
    d + 8 nodes are checked against 30-digit values, through
    `cap_area_fraction`, for d = 1..20, 50 and 100.  The weighted sum is an
    einsum, not a BLAS product, so that each value depends on its own phi
    alone, not on its place in the array.
    """
    u, w = _cap_rule(d)
    s = np.sin(phi[..., None] * u)
    s **= d - 1
    return phi * np.einsum("...j,j->...", s, w)


@functools.lru_cache(maxsize=None)
def _half_sphere_integral(d):
    """int_0^(pi/2) sin^(d-1), half the normalizer of the cap area on S^d."""
    return float(_sin_power_integral(d, np.array(0.5 * math.pi)))


def cap_area_fraction(d, theta):
    """Normalized area of the cap {colatitude <= theta} on S^d, elementwise
    over theta (a number or an array); NaN for a NaN theta.

    The area is int_0^theta sin^(d-1) over the same integral to pi, each by
    `_sin_power_integral` on the half theta <= pi/2 and the symmetry
    F(pi - theta) = 1 - F(theta).  It agrees with 30-digit values to 4e-16
    for d = 1..20 and 50, and to 8e-16 for d = 100, the range tested.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.maximum(np.minimum(theta, math.pi - theta), 0.0)
    half = _sin_power_integral(d, phi) / (2.0 * _half_sphere_integral(d))
    return np.where(theta > 0.5 * math.pi, 1.0 - half, half)[()]


def cap_colatitude(d, fraction):
    """Inverse of cap_area_fraction in the fraction argument, elementwise.

    On the half f <= 1/2 it finds x = 1 - cos theta, and the other half is
    pi - theta(1 - f).  On S^2 the cap area is x / 2 (Archimedes), so
    x = 2 f; on the other spheres `_cap_height` solves for x.
    """
    f = np.asarray(fraction, dtype=float)
    g = np.minimum(f, 1.0 - f)
    if not (g >= 0.0).all():
        raise ValueError("area fraction must lie in [0, 1]")
    x = 2.0 * g if d == 2 else _cap_height(d, g.ravel()).reshape(f.shape)
    theta = np.arctan2(np.sqrt(x * (2.0 - x)), 1.0 - x)
    return np.where(f > 0.5, math.pi - theta, theta)[()]


def _cap_height(d, g):
    """x = 1 - cos theta of the cap of area fraction g on S^d, for a 1-D
    array of fractions 0 <= g <= 1/2.

    It solves I(theta) = int_0^theta sin^(d-1) = g c, c = int_0^pi sin^(d-1),
    by Newton's method in x, where sin theta = sqrt(x (2 - x)) and
    dI/dx = sin^(d-2) theta; g = 1/2 is the equator, x = 1.  The start
    x_0 = (d g c)^(2/d) / 2 solves (2 x)^(d/2) / d = g c, which is I with
    sin^2 theta = x (2 - x) raised to 2 x: so x_0 is below the root for
    d > 2, where I is convex in x, and above it for d = 1, where I is
    concave.  Either way the iterates approach the root from one side after
    the first step.  A value stops once its step is below 1e-9 x, which
    leaves it within |d - 2| 1e-18 / 4 relative.
    """
    target = g * (2.0 * _half_sphere_integral(d))
    x = np.minimum(0.5 * (d * target) ** (2.0 / d), 1.0)
    x[g == 0.5] = 1.0
    active = np.flatnonzero((g > 0.0) & (g < 0.5))
    while active.size:
        xa = x[active]
        sin = np.sqrt(xa * (2.0 - xa))
        step = ((_sin_power_integral(d, np.arctan2(sin, 1.0 - xa)) - target[active])
                / sin ** (d - 2))
        x[active] = np.minimum(np.maximum(xa - step, 0.0), 1.0)
        active = active[np.abs(step) > 1e-9 * xa]
    return x


def sphere_surface_area(d):
    """Unnormalized surface measure of S^d."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.exp(math.lgamma((d + 1) / 2.0))


# -- product quadrature ----

class QuadratureRings(NamedTuple):
    """A product quadrature rule on S^d, stored as its angles.

    levels[i] holds the Gauss nodes t of axial level i, outermost first:
    on S^d, level 0 is the last coordinate x_d = t, and each node is
    (sqrt(1 - t^2) y', t) with y' a node of the level below on S^(d-1),
    down to (cos phi_j, sin phi_j) at the half-step longitudes
    phi_j = (j + 1/2) 2 pi / L.  A ring is one choice of node per level;
    the rings run over the levels' product in row-major order, and the L
    nodes of ring r each have weight weight[r].  `nested_points` expands
    them into the nodes of `sphere_quadrature_grid`, longitude innermost.
    On S^1 there are no levels and one ring.
    """

    weight: np.ndarray  # (R,) weight of each node on the ring
    L: int              # longitudes per ring
    levels: tuple       # d - 1 arrays of Gauss nodes t, outermost level first


@functools.lru_cache(maxsize=16)
def quadrature_rings(d, min_nodes=1_000_000, min_longitudes=1):
    """Ring form of the product rule on S^d; the weights sum to 1.

    On S^1: L = max(min_nodes, min_longitudes) equispaced longitudes.  On
    S^d, d >= 2: na is the least integer with na^d >= min_nodes, the level
    of S^m (m = d..2) holds the na Gauss-Gegenbauer nodes of the weight
    (1 - t^2)^((m-2)/2), and L = max(na, min_longitudes).  The rule
    integrates every polynomial of degree <= min(2 na - 1, L - 1) exactly.
    The nodes and weights are `gegenbauer.gauss_gegenbauer`'s: Newton's
    method on the Gegenbauer recurrence, with nodes within 4e-16 and
    weights within 1e-14 relative of the reference rules the tests hold
    them to (tests/test_gegenbauer.py).

    Built once per process and argument triple: the cache holds the fine
    and coarse grids of an MZ check on S^1..S^3 (6 entries), so the Gauss
    nodes are not rebuilt per call.  The arrays are read-only, so no
    caller can change a cached rule.
    """
    na = max(2, round(min_nodes ** (1.0 / d)))
    na += na**d < min_nodes
    L = max(int(min_nodes) if d == 1 else na, min_longitudes)
    weight = np.full(1, 1.0 / L)
    levels = ()
    for m in range(2, d + 1):
        t, wt = gauss_gegenbauer(na, (m - 1) / 2.0)
        weight = np.multiply.outer(wt, weight).ravel()
        levels = (t,) + levels
    rings = QuadratureRings(weight, L, levels)
    for a in (rings.weight, *rings.levels):
        a.setflags(write=False)
    return rings


def nested_points(circle, levels):
    """Points (sin theta y', cos theta) over the product of nested angles.

    circle is a (K, 2) array of points on S^1, and levels holds one pair of
    arrays (cos theta, sin theta) per further angle, outermost first.  The
    result has one row per choice of angle at each level and circle point,
    in row-major order with the circle innermost: (K prod_j n_j, d+1).
    """
    Y = circle
    for cos, sin in reversed(levels):
        Y = np.concatenate([
            sin[:, None, None] * Y,
            np.broadcast_to(cos[:, None, None], (cos.size, Y.shape[0], 1)),
        ], axis=2).reshape(-1, Y.shape[1] + 1)
    return Y


def sphere_quadrature_grid(d, min_nodes=1_000_000, min_longitudes=1):
    """Product quadrature grid on S^d: (points, weights).

    The expansion of `quadrature_rings(d, min_nodes, min_longitudes)`,
    longitude innermost.  `sphere_quadrature_grid(d, (n+1)**d, 2n+1)` is
    exact for every polynomial of degree <= 2n.
    """
    rings = quadrature_rings(d, min_nodes, min_longitudes)
    phi = (np.arange(rings.L) + 0.5) * (2.0 * math.pi / rings.L)
    levels = [(t, np.sqrt(1.0 - t * t)) for t in rings.levels]
    points = nested_points(np.column_stack([np.cos(phi), np.sin(phi)]), levels)
    return points, np.repeat(rings.weight, rings.L)


# -- partitions ----

def _embed(d, depth, angle, tail):
    """Points of S^d from nested angles, one row per region: (N, d+1).

    Row r has depth[r] levels, angle[r, j] the angle of level j, outermost
    first: a colatitude on S^(d-j), or on the circle level j = d - 1 a
    longitude.  A row whose levels stop above the circle goes on with the
    unit vector tail[r, :d - depth[r] + 1] of its cross-section sphere.  The
    rows of one depth are embedded together, innermost level first.
    """
    X = np.empty((depth.size, d + 1))
    for levels in np.unique(depth):
        rows = np.flatnonzero(depth == levels)
        if levels == d:
            phi = angle[rows, d - 1]
            Y = np.column_stack([np.cos(phi), np.sin(phi)])
        else:
            Y = tail[rows, :d - levels + 1]
        for j in range(min(levels, d - 1) - 1, -1, -1):
            theta = angle[rows, j]
            Y = np.column_stack([np.sin(theta)[:, None] * Y, np.cos(theta)])
        X[rows] = Y
    return X


@dataclass(frozen=True)
class Partition:
    """Area-regular partition of S^d into N regions of area 1/N each.

    A partition is its bounds: bounds[i] is region i's tuple of (lo, hi)
    levels, level j a colatitude interval on the sphere of dimension d - j,
    or on the circle (d - j = 1) a longitude interval in [0, 2*pi].  Missing
    levels mean the full cross-section.  Intervals are half-open [lo, hi)
    except when hi reaches the domain end (pi or 2*pi), which is closed.
    Centers, region diameters and areas are derived on first use.
    """

    d: int
    bounds: tuple

    @property
    def N(self):
        return len(self.bounds)

    @functools.cached_property
    def centers(self):
        """Each region's center: the midpoint of each level, except that a
        colatitude level reaching a pole takes the pole, 0 or pi, and a
        region whose levels stop above the circle goes on with the pole of
        its cross-section."""
        d, N = self.d, self.N
        depth, lo, hi = self._angles
        angle = 0.5 * (lo + hi)
        for j in range(d - 1):
            rows = depth > j
            mid, a, b = angle[rows, j], lo[rows, j], hi[rows, j]
            angle[rows, j] = np.where(a == 0.0, 0.0, np.where(b >= math.pi, math.pi, mid))
        tail = np.zeros((N, d + 1))
        tail[np.arange(N), d - depth] = 1.0
        return _embed(d, depth, angle, tail)

    @functools.cached_property
    def region_diameters(self):
        """Analytic upper bound on each region's diameter.

        A region with no levels is bounded by 2.  Its last level bounds it
        exactly: an arc of width w on the circle has chord 2 sin(w / 2), and
        a full band lo <= theta <= hi across the cross-section has diameter
        2 sin(s / 2), s the colatitude sum closest to pi.  Each level above
        combines the chord 2 sin((hi - lo) / 2) across it with the bound b
        of the levels below, scaled by the largest sine s_max of its
        colatitudes: min(2, sqrt(4 sin^2((hi - lo) / 2) + (s_max b)^2)).
        The levels are taken innermost first, each over all regions at once.
        """
        d = self.d
        depth, lo, hi = self._angles
        bound = np.full(self.N, 2.0)
        for j in range(d - 1, -1, -1):
            rows = depth > j
            a, b = lo[rows, j], hi[rows, j]
            if j == d - 1:
                bound[rows] = 2.0 * np.sin(np.minimum(b - a, math.pi) / 2.0)
                continue
            band = 2.0 * np.sin(np.minimum(np.maximum(math.pi, 2.0 * a), 2.0 * b) / 2.0)
            smax = np.where((a <= math.pi / 2.0) & (math.pi / 2.0 <= b),
                            1.0, np.maximum(np.sin(a), np.sin(b)))
            inner = np.sqrt(4.0 * np.sin((b - a) / 2.0) ** 2 + (smax * bound[rows]) ** 2)
            bound[rows] = np.where(depth[rows] == j + 1, band, np.minimum(inner, 2.0))
        return bound

    @functools.cached_property
    def _angles(self):
        """(depth, lo, hi): each region's level count, and its level bounds in
        radians as (N, d) arrays, NaN past its depth."""
        d, N = self.d, self.N
        depth = np.fromiter(map(len, self.bounds), int, count=N)
        chain = itertools.chain.from_iterable
        flat = np.fromiter(chain(chain(self.bounds)), float, count=2 * int(depth.sum()))
        levels = np.full((N, d, 2), math.nan)
        levels[np.arange(d) < depth[:, None]] = flat.reshape(-1, 2)
        lo, hi = levels[..., 0].copy(), levels[..., 1].copy()
        for a in (depth, lo, hi):
            a.setflags(write=False)
        return depth, lo, hi

    @functools.cached_property
    def _levels(self):
        """(depth, lo, hi): `_angles`, except that on the colatitude levels lo
        and hi are cap-area fractions on the level's sphere; the circle level
        keeps its longitudes."""
        d = self.d
        depth, lo, hi = self._angles
        lo, hi = lo.copy(), hi.copy()
        for j in range(d - 1):
            rows = depth > j
            edges, where = np.unique(np.concatenate([lo[rows, j], hi[rows, j]]),
                                     return_inverse=True)
            lo[rows, j], hi[rows, j] = cap_area_fraction(d - j, edges)[where].reshape(2, -1)
        for a in (lo, hi):
            a.setflags(write=False)
        return depth, lo, hi

    @functools.cached_property
    def areas(self):
        """Each region's area, the product of its shares of its levels."""
        _, lo, hi = self._levels
        share = hi - lo
        share[:, -1] /= TWO_PI
        return np.nanprod(share, axis=1)

    @property
    def norm(self):
        """Maximal region diameter (analytic upper bound)."""
        return float(np.max(self.region_diameters))

    def sample(self, rng):
        """One point drawn uniformly in each region, in region order: (N, d+1).

        The random stream is that of drawing region by region: for each
        region one uniform per level, outermost first, then, for a region
        whose levels stop above the circle, a standard normal direction in
        its cross-section.  The uniforms between two such directions are
        one call, so the draws loop over those cap regions alone.  A level's
        uniform u gives lo + u (hi - lo) of `_levels`: the longitude on the
        circle, and the cap-area fraction of the colatitude on the other
        levels, which each level inverts in one array call.
        """
        d, N = self.d, self.N
        depth, lo, hi = self._levels
        stops = np.cumsum(depth).tolist()
        draws, tail, drawn = [], np.zeros((N, d + 1)), 0
        for r in np.flatnonzero(depth < d).tolist():
            draws.append(rng.random(stops[r] - drawn))
            drawn = stops[r]
            tail[r, :d - depth[r] + 1] = _random_unit(d - depth[r], rng)
        draws.append(rng.random(stops[-1] - drawn))
        u = np.zeros((N, d))
        u[np.arange(d) < depth[:, None]] = np.concatenate(draws)
        angle = lo + u * (hi - lo)
        for j in range(d - 1):
            rows = depth > j
            angle[rows, j] = cap_colatitude(d - j, angle[rows, j])
        return _embed(d, depth, angle, tail)

    def to_dict(self):
        return {
            "d": self.d,
            "N": self.N,
            "centers": [list(row) for row in self.centers],
            "norms": list(self.region_diameters),
            "areas": list(self.areas),
            "bounds": [[list(iv) for iv in b] for b in self.bounds],
        }

    @classmethod
    def from_dict(cls, data):
        """The partition of a `to_dict` document, read from d and the bounds.

        Raises ValueError unless d is a positive integer and the bounds are
        one or more regions of at most d levels, each level two finite
        numbers 0 <= lo < hi <= pi, or <= 2*pi on the circle level.  Numbers
        are JSON's: int or float, not bool.
        """
        d, regions = data["d"], data["bounds"]
        if not (type(d) is int and d >= 1):
            raise ValueError("d is not a positive integer")
        if not (isinstance(regions, list) and regions):
            raise ValueError("bounds is not a nonempty list of regions")
        for i, region in enumerate(regions):
            if not (isinstance(region, list) and len(region) <= d):
                raise ValueError(f"region {i} is not a list of at most {d} levels")
            for j, level in enumerate(region):
                top = TWO_PI if j == d - 1 else math.pi
                if not (isinstance(level, list) and len(level) == 2
                        and all(type(v) in (int, float) for v in level)
                        and 0 <= level[0] < level[1] <= top):
                    raise ValueError(f"region {i}: level {level} is not 0 <= lo < hi <= {top!r}")
        return cls(d, tuple(tuple((float(lo), float(hi)) for lo, hi in r) for r in regions))


def eq_partition(d, N):
    """Recursive zonal equal-area partition of S^d into N regions.

    Two polar caps of area 1/N plus collars whose cross-sections are
    partitioned recursively; collar boundaries are placed by inverting the
    cap-area function at exact cumulative fractions, so every region has
    area 1/N up to rounding in that inversion.
    """
    if d < 1:
        raise ValueError("sphere dimension d must be >= 1")
    if N < 1:
        raise ValueError("region count N must be >= 1")
    return Partition(d, _eq_regions(d, (N,))[N])


def _eq_regions(d, counts):
    """{N: the bounds of `eq_partition(d, N)`'s regions} for each N in counts.

    The partitions of one sphere are built together: each cap-area
    evaluation or inversion is one array call over all of them, and the
    cross-sections of all their collars are partitioned in one call a
    dimension down.  So a partition costs a few array calls per dimension,
    not per collar.
    """
    regions = {}
    for N in set(counts):
        if N == 1:
            regions[N] = ((),)
        elif d == 1:
            edges = [TWO_PI * j / N for j in range(N)] + [TWO_PI]
            regions[N] = tuple(zip(zip(edges, edges[1:])))
    big = sorted(set(counts) - regions.keys())
    if not big:
        return regions

    area = sphere_surface_area(d)
    starts = []
    for N, theta_c in zip(big, cap_colatitude(d, [1.0 / N for N in big]).tolist()):
        span = math.pi - 2.0 * theta_c
        n_collars = max(1, round(span / (area / N) ** (1.0 / d)))
        starts.append([theta_c + i * (span / n_collars) for i in range(n_collars)])
    fractions = _split(cap_area_fraction(d, [*itertools.chain(*starts)]).tolist(), starts)
    collars = [_collar_counts(N, f) for N, f in zip(big, fractions)]
    # each partition's edges: the polar cap's first, the other cap's, at
    # fraction (N-1)/N, last
    cumulative = [[k / N for k in itertools.accumulate([1, *c])] for N, c in zip(big, collars)]
    edges = _split(cap_colatitude(d, [*itertools.chain(*cumulative)]).tolist(), cumulative)
    cross = _eq_regions(d - 1, [m for c in collars for m in c if m])
    for N, c, e in zip(big, collars, edges):
        bounds = [((0.0, e[0]),)]
        for m, lo, hi in zip(c, e, e[1:]):
            if m:
                bounds.extend([((lo, hi),) + sub for sub in cross[m]])
        bounds.append(((e[-1], math.pi),))
        regions[N] = tuple(bounds)
    return regions


def _split(values, parts):
    """The list values cut into consecutive pieces as long as the parts."""
    ends = list(itertools.accumulate(map(len, parts)))
    return [values[i:j] for i, j in zip([0, *ends], ends)]


def _collar_counts(N, fractions):
    """Region counts of the collars that start at the cap-area fractions
    (the polar cap's edge first): ideal counts rounded with a running
    remainder.  That keeps each partial sum of the counts within 1/2 of its
    ideal, and the ideals sum to N (1 - 1/N - F(theta_c)) = N - 2 up to
    rounding, so the counts are >= 0 and sum to N - 2."""
    fractions.append(1.0 - 1.0 / N)
    counts = []
    remainder = 0.0
    for prev_v, v in zip(fractions, fractions[1:]):
        ideal = N * (v - prev_v) + remainder
        counts.append(round(ideal))
        remainder = ideal - counts[-1]
    return counts
