"""Points on S^d, geodesics, quadrature rings and equal-area partitions.

Points and tangent vectors are the rows of float arrays: N points on S^d
are an (N, d+1) array X of unit rows, and tangent vectors at them are an
(N, d+1) array V with each row orthogonal to the matching row of X.
`tangent_rows` projects onto those tangent spaces and `_geodesic_rows`
moves along great circles; every point a region yields is such a row.

The partition construction is recursive and zonal: two polar caps plus
collars, each collar split by partitioning the cross-section sphere
S^(d-1) with the same algorithm.  Region areas are then analytically
exact products of cap-area differences, and region diameters admit
analytic upper bounds (tight for caps and full bands).
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, betaincinv, gammaln, roots_gegenbauer

UNIT_TOL = 1e-12
TWO_PI = 2.0 * math.pi


def tangent_rows(X, V):
    """V with each row's component along the matching row of X removed."""
    return V - np.einsum("ij,ij->i", V, X)[:, None] * X


def _geodesic_rows(X, V, t):
    """Move each row of X along its great circle with tangent velocity the
    matching row of V for time t: arc length |v| t, zero velocity stays."""
    speeds = np.linalg.norm(V, axis=1)
    moving = speeds > 0.0
    out = X.copy()
    if np.any(moving):
        s = speeds[moving]
        ang = s * t
        U = V[moving] / s[:, None]
        out[moving] = X[moving] * np.cos(ang)[:, None] + U * np.sin(ang)[:, None]
        norms = np.linalg.norm(out[moving], axis=1)
        out[moving] /= norms[:, None]
    return out


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

def cap_area_fraction(d, theta):
    """Normalized area of the cap {colatitude <= theta} on S^d."""
    if theta <= 0.0:
        return 0.0
    if theta >= math.pi:
        return 1.0
    if d == 1:
        return theta / math.pi
    if theta <= math.pi / 2.0:
        return 0.5 * float(betainc(d / 2.0, 0.5, math.sin(theta) ** 2))
    return 1.0 - cap_area_fraction(d, math.pi - theta)


def cap_colatitude(d, fraction):
    """Inverse of cap_area_fraction in the fraction argument."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("area fraction must lie in [0, 1]")
    if fraction == 0.0:
        return 0.0
    if fraction == 1.0:
        return math.pi
    if d == 1:
        return fraction * math.pi
    if fraction > 0.5:
        return math.pi - cap_colatitude(d, 1.0 - fraction)
    s2 = float(betaincinv(d / 2.0, 0.5, 2.0 * fraction))
    return math.asin(min(1.0, math.sqrt(s2)))


def sphere_surface_area(d):
    """Unnormalized surface measure of S^d."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.exp(gammaln((d + 1) / 2.0))


# -- product quadrature ----

class QuadratureRings(NamedTuple):
    """A product quadrature rule on S^d, stored ring by ring.

    Ring r holds the L nodes (radius[r] cos phi_j, radius[r] sin phi_j,
    *axial[r]) at the half-step longitudes phi_j = (j + 1/2) 2 pi / L,
    each of weight weight[r].  Expanded with longitude innermost, the rings
    give the nodes of `sphere_quadrature_grid` in its order.

    levels[i] holds the Gauss nodes t of axial level i, outermost first:
    on S^d, level 0 is the last coordinate x_d = t, and each ring point is
    (sqrt(1 - t^2) y', t) with y' a ring point of the level below on
    S^(d-1).  The rings run over the levels' product in row-major order, so
    ring (i_0, ..., i_(d-2)) has radius prod_j sqrt(1 - levels[j][i_j]^2).
    On S^1 there are no levels.
    """

    axial: np.ndarray   # (R, d - 1) coordinates 2..d of each ring
    radius: np.ndarray  # (R,) radius of each ring in the (x0, x1) plane
    weight: np.ndarray  # (R,) weight of each node on the ring
    L: int              # longitudes per ring
    levels: tuple       # d - 1 arrays of Gauss nodes t, outermost level first


@functools.lru_cache(maxsize=16)
def quadrature_rings(d, min_nodes=1_000_000, min_longitudes=1):
    """Ring form of the product rule on S^d; the weights sum to 1.

    On S^1: L = max(min_nodes, min_longitudes) equispaced longitudes.  On
    S^d, d >= 2: the last coordinate t runs over the na Gauss-Gegenbauer
    nodes of the weight (1 - t^2)^((d-2)/2), na the least integer with
    na^d >= min_nodes, and each carries the S^(d-1) rule for na^(d-1) nodes
    scaled by sqrt(1 - t^2).  The rule integrates every polynomial of degree
    <= min(2 na - 1, L - 1) exactly.

    Built once per process and argument triple: the cache holds the fine
    and coarse grids of an MZ check on S^1..S^3 with their sub-rules (12
    entries), so the Gauss nodes are not rebuilt per call.  The arrays are
    read-only, so no caller can change a cached rule.
    """
    if d == 1:
        L = max(int(min_nodes), min_longitudes)
        rings = QuadratureRings(np.empty((1, 0)), np.ones(1), np.full(1, 1.0 / L), L, ())
    else:
        na = max(2, round(min_nodes ** (1.0 / d)))
        na += na**d < min_nodes
        t, wt = roots_gegenbauer(na, (d - 1) / 2.0)
        sub = quadrature_rings(d - 1, na ** (d - 1), min_longitudes)
        S = sub.radius.size
        s = np.repeat(np.sqrt(1.0 - t * t), S)
        axial = np.column_stack([s[:, None] * np.tile(sub.axial, (na, 1)), np.repeat(t, S)])
        weight = np.repeat(wt / wt.sum(), S) * np.tile(sub.weight, na)
        rings = QuadratureRings(axial, s * np.tile(sub.radius, na), weight, sub.L,
                                (t,) + sub.levels)
    for a in (rings.axial, rings.radius, rings.weight, *rings.levels):
        a.setflags(write=False)
    return rings


def _ring_points(rings, phi):
    """Nodes at longitudes phi on every ring, ring-major: (R * len(phi), d+1)."""
    R = rings.radius.size
    Y = np.empty((R, phi.size, rings.axial.shape[1] + 2))
    Y[:, :, 0] = np.outer(rings.radius, np.cos(phi))
    Y[:, :, 1] = np.outer(rings.radius, np.sin(phi))
    Y[:, :, 2:] = rings.axial[:, None, :]
    return Y.reshape(R * phi.size, -1)


def sphere_quadrature_grid(d, min_nodes=1_000_000, min_longitudes=1):
    """Product quadrature grid on S^d: (points, weights).

    The expansion of `quadrature_rings(d, min_nodes, min_longitudes)`,
    longitude innermost.  `sphere_quadrature_grid(d, (n+1)**d, 2n+1)` is
    exact for every polynomial of degree <= 2n.
    """
    rings = quadrature_rings(d, min_nodes, min_longitudes)
    phi = (np.arange(rings.L) + 0.5) * (2.0 * math.pi / rings.L)
    return _ring_points(rings, phi), np.repeat(rings.weight, rings.L)


# -- regions and partitions ----

@dataclass(frozen=True)
class Region:
    """Nested zonal bounds: levels[j] constrains the sphere of dim d - j.

    On a sphere of dimension m >= 2 a level is a colatitude interval; on
    the circle (m = 1) it is a longitude interval in [0, 2*pi].  Missing
    levels mean the full cross-section.  Intervals are half-open [lo, hi)
    except when hi reaches the domain end (pi or 2*pi), which is closed.
    """

    d: int
    levels: tuple

    def area_fraction(self):
        frac = 1.0
        m = self.d
        for lo, hi in self.levels:
            if m == 1:
                frac *= (hi - lo) / TWO_PI
            else:
                frac *= cap_area_fraction(m, hi) - cap_area_fraction(m, lo)
            m -= 1
        return frac

    def diameter_bound(self):
        return _diameter_bound(self.levels, self.d)

    def center(self):
        """The region's center as a unit vector of length d+1."""
        return _center_coords(self.levels, self.d)

    def sample(self, rng):
        """A point drawn uniformly in the region, as a unit vector."""
        return _sample_coords(self.levels, self.d, rng)


def _diameter_bound(levels, m):
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
    sub = _diameter_bound(levels[1:], m - 1)
    if lo <= math.pi / 2.0 <= hi:
        smax = 1.0
    else:
        smax = max(math.sin(lo), math.sin(hi))
    bound = math.sqrt(4.0 * math.sin((hi - lo) / 2.0) ** 2 + (smax * sub) ** 2)
    return min(bound, 2.0)


def _center_coords(levels, m):
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
    sub = _center_coords(levels[1:], m - 1)
    return np.concatenate([math.sin(theta) * sub, [math.cos(theta)]])


def _sample_coords(levels, m, rng):
    if not levels:
        return _random_unit(m, rng)
    lo, hi = levels[0]
    if m == 1:
        phi = lo + rng.random() * (hi - lo)
        return np.array([math.cos(phi), math.sin(phi)])
    vlo = cap_area_fraction(m, lo)
    vhi = cap_area_fraction(m, hi)
    theta = cap_colatitude(m, vlo + rng.random() * (vhi - vlo))
    sub = _sample_coords(levels[1:], m - 1, rng)
    return np.concatenate([math.sin(theta) * sub, [math.cos(theta)]])


@dataclass(frozen=True)
class Partition:
    """Area-regular partition of S^d into N regions of area 1/N each."""

    d: int
    regions: tuple
    centers: np.ndarray = field(repr=False)
    region_diameters: np.ndarray = field(repr=False)
    areas: np.ndarray = field(repr=False)

    @property
    def N(self):
        return len(self.regions)

    @property
    def norm(self):
        """Maximal region diameter (analytic upper bound)."""
        return float(np.max(self.region_diameters))

    def to_dict(self):
        return {
            "d": self.d,
            "N": self.N,
            "centers": [list(row) for row in self.centers],
            "norms": list(self.region_diameters),
            "areas": list(self.areas),
            "bounds": [[list(iv) for iv in r.levels] for r in self.regions],
        }

    @classmethod
    def from_regions(cls, d, regions):
        regions = tuple(regions)
        centers = np.stack([r.center() for r in regions])
        diams = np.array([r.diameter_bound() for r in regions])
        areas = np.array([r.area_fraction() for r in regions])
        return cls(d, regions, centers, diams, areas)

    @classmethod
    def from_dict(cls, data):
        d = int(data["d"])
        regions = [Region(d, tuple(tuple(iv) for iv in b)) for b in data["bounds"]]
        return cls.from_regions(d, regions)


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
    return Partition.from_regions(d, _eq_regions(d, N))


def _eq_regions(d, N):
    if N == 1:
        return [Region(d, ())]
    if d == 1:
        bounds = [TWO_PI * j / N for j in range(N)] + [TWO_PI]
        return [Region(1, ((bounds[j], bounds[j + 1]),)) for j in range(N)]
    if N == 2:
        half = math.pi / 2.0
        return [Region(d, ((0.0, half),)), Region(d, ((half, math.pi),))]

    theta_c = cap_colatitude(d, 1.0 / N)
    span = math.pi - 2.0 * theta_c
    delta_ideal = (sphere_surface_area(d) / N) ** (1.0 / d)
    n_collars = max(1, round(span / delta_ideal))
    delta_fit = span / n_collars

    # ideal region counts per collar, rounded with a running remainder
    counts = []
    remainder = 0.0
    prev_v = cap_area_fraction(d, theta_c)
    for i in range(1, n_collars + 1):
        v = cap_area_fraction(d, theta_c + i * delta_fit) if i < n_collars else 1.0 - 1.0 / N
        ideal = N * (v - prev_v) + remainder
        m_i = max(0, round(ideal))
        remainder = ideal - m_i
        counts.append(m_i)
        prev_v = v
    counts[-1] += (N - 2) - sum(counts)
    if counts[-1] < 0:
        # push the deficit into the largest collar
        deficit = counts[-1]
        counts[-1] = 0
        counts[int(np.argmax(counts))] += deficit

    regions = [Region(d, ((0.0, theta_c),))]
    cumulative = 1
    for m_i in counts:
        if m_i == 0:
            continue
        lo = cap_colatitude(d, cumulative / N)
        cumulative += m_i
        hi = cap_colatitude(d, cumulative / N)
        for sub in _eq_regions(d - 1, m_i):
            regions.append(Region(d, ((lo, hi),) + sub.levels))
    regions.append(Region(d, ((cap_colatitude(d, (N - 1.0) / N), math.pi),)))
    return regions

