"""Independent certification of spherical designs.

The design check never touches the kernel code path: monomials up to the
target degree are averaged over the points and compared against exact
closed-form sphere integrals computed in rational arithmetic.

The module also validates the two-sided L1 sampling inequality
(Marcinkiewicz-Zygmund) against a dense product quadrature grid built by
`sphere.quadrature_rings`: rings of L equispaced longitudes phi, stacked
in nested colatitudes, a point being (sin theta y', cos theta) with y' a
point one sphere down.  Every coordinate is a product of one cos or sin
per angle, so a polynomial of degree <= m is a trigonometric polynomial of
degree <= m in each angle separately, fixed exactly by its values on the
torus of 2m+1 equispaced angles per axis.  Those values give each ring's
m+1 Fourier coefficients in longitude (one small interpolation matrix per
axial level, then an rfft of length 2m+1).  Each ring is then cut into
arcs of B longitudes, and P on a block of arcs is one real matmul of their
turned coefficients against a fixed (2(m+1), B) table of cos and sin, so
the reference integral of |P| costs (2m+1)^d evaluations of P and 2(m+1)
multiply-adds per node, and holds P at one block of about 2^16 nodes at a
time.

Finally the averaging bound used to seed the solver is checked by Monte
Carlo over in-region sampling.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .gegenbauer import MAX_DEGREE
from .kernel import _BLOCK_DOUBLES, _energy_raw, gw_eval, make_kernel
from .sphere import (
    UNIT_TOL,
    as_coords,
    off_sphere_rows,
    quadrature_rings,
    sphere_quadrature_grid,  # perfbench/tracing.py wraps it here by name
)
from .solver import initial_energy_bound

MAX_MONOMIAL_DIM = 4
MAX_MONOMIAL_DEGREE = 12
MAX_MZ_DIM = 3


def monomial_sphere_integral(exponents):
    """Exact integral of x^a over S^d w.r.t. normalized surface measure.

    Zero when any exponent is odd; otherwise
    prod_i (a_i - 1)!! / prod_{j=0}^{|a|/2 - 1} (d + 1 + 2j),
    evaluated in integer arithmetic (d + 1 = len(exponents)).
    """
    a = [int(e) for e in exponents]
    if any(e < 0 for e in a):
        raise ValueError("exponents must be nonnegative")
    if len(a) < 2:
        raise ValueError("exponent vector must have length d + 1 >= 2")
    if any(e % 2 for e in a):
        return 0.0
    m = len(a)
    total = sum(a)
    num = 1
    for e in a:
        num *= _double_factorial(e - 1)
    den = 1
    for j in range(total // 2):
        den *= m + 2 * j
    return float(Fraction(num, den))


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def monomial_exponents(d, max_degree, min_degree=1):
    """All exponent vectors of length d+1 with min_degree <= |a| <= max_degree."""
    for total in range(min_degree, max_degree + 1):
        yield from _compositions(total, d + 1)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def worst_monomial_deviation(points, n):
    """Max |mean x^a - integral x^a| over monomials of degree 1..n.

    Returns (worst, witness_exponents).  Capped at desk scale d <= 4,
    n <= 12 where the monomial count stays tractable.
    """
    X = as_coords(points)
    d = X.shape[1] - 1
    if d > MAX_MONOMIAL_DIM:
        raise ValueError(f"monomial certification supports d <= {MAX_MONOMIAL_DIM}")
    if not 1 <= n <= MAX_MONOMIAL_DEGREE:
        raise ValueError(f"monomial certification supports n in 1..{MAX_MONOMIAL_DEGREE}")
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


def is_design(points, n, tol):
    """Certify the design property by exhaustive monomial comparison.

    Returns (passed, worst_error, witness_exponents); independent of the
    kernel energy path.  Non-finite or non-unit rows raise ValueError.
    """
    X = as_coords(points)
    if off_sphere_rows(X).size:
        raise ValueError(f"points must be finite unit vectors ({UNIT_TOL:g})")
    worst, witness = worst_monomial_deviation(X, n)
    return worst <= tol, worst, witness


def _ring_coefficients(evaluate, rings, m):
    """Fourier coefficients c_k, k = 0..m, of P along every ring: (R, m+1).

    The rings are nested: y = (sin theta y', cos theta) with y' a ring
    point one sphere down, ending in (x0, x1) = (cos phi, sin phi).  Each
    coordinate of y is a product of one cos or sin per angle, so P is a
    trigonometric polynomial of degree <= m in each angle separately, fixed
    by its values on the torus of K = 2m+1 equispaced angles
    psi_k = 2 pi k / K per axis.  Those (2m+1)^d values are the only
    evaluations of P.  One (n_a, K) trigonometric-interpolation matrix per
    axial level moves that level's angle from psi to its Gauss colatitudes
    arccos t, which leaves P at the K longitudes psi on every ring, and an
    rfft of length K gives c_k with
    P(phi) = (1/K) (c_0 + 2 Re sum_{k=1..m} c_k e^(i k phi)).
    """
    K = 2 * m + 1
    psi = np.arange(K) * (2.0 * math.pi / K)
    cos, sin = np.cos(psi), np.sin(psi)
    torus = np.column_stack([cos, sin])
    for _ in rings.levels:
        # one more angle, outermost: (sin theta y', cos theta)
        torus = np.concatenate([
            sin[:, None, None] * torus,
            np.broadcast_to(cos[:, None, None], (K, torus.shape[0], 1)),
        ], axis=2).reshape(-1, torus.shape[1] + 1)
    samples = evaluate(torus)
    for t in rings.levels:
        # the Dirichlet kernel sin(K x / 2) / (K sin(x / 2)) at x = theta - psi_k
        # interpolates the leading angle to the level's colatitudes theta;
        # the new ring axis then moves to the back, and the angle of the
        # level below leads
        half = 0.5 * (np.arccos(t)[:, None] - psi)
        den = K * np.sin(half)
        interp = np.divide(np.sin(K * half), den, out=np.ones_like(den), where=den != 0.0)
        samples = (interp @ samples.reshape(K, -1)).T
    # the longitude axis now leads, and the rings follow in their order
    return np.fft.rfft(samples.reshape(K, -1).T, axis=1)


def _half_angles(p, k, L):
    """The angles p_i k_j pi / L, (len(p), len(k)), reduced mod 2 pi in integers."""
    return (math.pi / L) * (np.outer(p, k) % (2 * L))


def _arc_width(L, m):
    """Longitudes B per arc: the most that keeps the (2(m+1), B) table
    within _BLOCK_DOUBLES, and at most the ring."""
    return min(L, max(1, _BLOCK_DOUBLES // (2 * (m + 1))))


def _arc_blocks(evaluate, rings, m):
    """P at the rings' nodes, one block of arcs at a time.

    Node j of a ring sits at phi_j = (j + 1/2) 2 pi / L.  Each ring is cut
    into arcs of B longitudes; arc a starts at node aB, and the short last
    arc runs past L when B does not divide L.  On arc a a ring's
    coefficients c_k are turned by e^(i k aB 2 pi / L) and stored as
    interleaved (Re, Im) pairs.  The table holds s_k cos(k phi_b) and
    -s_k sin(k phi_b) for b < B in the same interleaving, s_0 = 1/K and
    s_k = 2/K, so one turned row times the table is P at the arc's B nodes:
    2(m+1) multiply-adds per node.  A block is a run of whole arcs times
    all rings, or one arc times a run of rings, with its product of about
    _BLOCK_DOUBLES values (`_arc_width` bounds the table the same way).
    Yields (first arc, first ring, block), the block shaped (arcs, rings,
    B); the nodes past L are left to the caller.
    """
    L = rings.L
    R = rings.radius.size
    c = _ring_coefficients(evaluate, rings, m)
    k = np.arange(m + 1)
    B = _arc_width(L, m)
    arcs = -(-L // B)
    angle = _half_angles(k, 2 * np.arange(B) + 1, L)
    scale = np.where(k == 0, 1.0, 2.0)[:, None] / (2 * m + 1)
    table = np.stack([scale * np.cos(angle), -scale * np.sin(angle)], axis=1).reshape(2 * (m + 1), B)
    step = max(1, _BLOCK_DOUBLES // B)
    arcs_per, rings_per = (step // R, R) if R <= step else (1, step)
    # the turn of arc a0 + j is that of a0 times that of j
    turns = np.exp(1j * _half_angles(2 * B * np.arange(arcs_per), k, L))
    for a0 in range(0, arcs, arcs_per):
        turn = np.exp(1j * _half_angles([2 * B * a0], k, L)) * turns[:arcs - a0]
        for r0 in range(0, R, rings_per):
            turned = np.multiply(turn[:, None, :], c[None, r0:r0 + rings_per], order="C")
            block = turned.view(np.float64).reshape(-1, 2 * (m + 1)) @ table
            yield a0, r0, block.reshape(turned.shape[0], turned.shape[1], B)


def _ring_abs_integral(evaluate, rings, m):
    """Quadrature of |P| over the rings' nodes, block by block.

    P is never held at all R L nodes: each block of arcs is one matmul of
    about _BLOCK_DOUBLES values (`_arc_blocks`), whose |.| and weighted
    sums are taken before the next block is formed.
    """
    L = rings.L
    B = _arc_width(L, m)
    total = 0.0
    for a0, r0, block in _arc_blocks(evaluate, rings, m):
        np.abs(block, out=block)
        # the short last arc, arc L // B when B does not divide L, ends at node L
        block[L // B - a0:, :, L % B:] = 0.0
        total += rings.weight[r0:r0 + block.shape[1]] @ block.sum(axis=(0, 2))
    return float(total)


@dataclass
class MzReport:
    """Observed band of discrete/continuous L1 ratios over random polynomials."""

    degree: int
    trials: int
    min_ratio: float
    max_ratio: float
    passed: bool

    def to_dict(self):
        return {
            "degree": self.degree,
            "trials": self.trials,
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
            "pass": self.passed,
        }


def mz_check(points, partition, m, trials=100, seed=0, min_nodes=1_000_000):
    """Two-sided L1 sampling test: is the node average of |P| within
    (1/2, 3/2) times the true integral for random degree-<=m polynomials?

    Trials alternate between random kernel-span combinations and random
    monomial mixtures.  The reference integral is the dense product grid
    of `quadrature_rings`, consistency-checked against a coarser grid on
    the first two trials.  Both grids are integrated by
    `_ring_abs_integral`: (2m+1)^d evaluations of each trial polynomial on
    the torus of equispaced angles give every ring's Fourier coefficients,
    and |P| is summed over arcs of B longitudes, one cos/sin-table matmul
    per block of arcs (2(m+1) multiply-adds per node).  That route is exact
    because P has degree <= m in each nested angle (each grid has
    L >= 2m+1, raised if need be, so nothing aliases).  The discrete mean
    is evaluated directly on the points.  A non-finite ratio fails the
    check.  Non-finite or non-unit rows, a partition of another dimension
    or region count than the points, and m outside 1..MAX_DEGREE (the
    kernel-span trials need `make_kernel(d, m)`) raise ValueError before
    any grid is built.
    """
    X = as_coords(points)
    d = X.shape[1] - 1
    if off_sphere_rows(X).size:
        raise ValueError(f"points must be finite unit vectors ({UNIT_TOL:g})")
    if partition is not None and partition.d != d:
        raise ValueError("partition dimension does not match the points")
    if partition is not None and partition.N != X.shape[0]:
        raise ValueError("partition region count does not match the points")
    if not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"polynomial degree m must be in 1..{MAX_DEGREE}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rings = quadrature_rings(d, min_nodes, 2 * m + 1)
    coarse = quadrature_rings(d, max(4096, min_nodes // 4), 2 * m + 1)
    spec_m = make_kernel(d, m)
    exponent_pool = list(monomial_exponents(d, m, 0)) if d <= MAX_MONOMIAL_DIM else None

    ratios = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        if trial % 2 == 0 or exponent_pool is None:
            evaluate = _random_kernel_span(spec_m, d, rng)
        else:
            evaluate = _random_monomial_mixture(exponent_pool, d, rng)
        reference = _ring_abs_integral(evaluate, rings, m)
        if trial < 2:
            check = _ring_abs_integral(evaluate, coarse, m)
            if not abs(check - reference) <= 1e-3 * max(reference, 1e-12):
                raise ArithmeticError("reference quadrature failed its grid consistency check")
        discrete = float(np.mean(np.abs(evaluate(X))))
        ratios[trial] = discrete / reference if reference > 0.0 else math.nan
    lo = float(np.min(ratios))
    hi = float(np.max(ratios))
    return MzReport(degree=m, trials=trials, min_ratio=lo, max_ratio=hi,
                    passed=bool(np.all(np.isfinite(ratios))) and 0.5 < lo and hi < 1.5)


def _random_kernel_span(spec_m, d, rng, centers=8):
    Z = rng.standard_normal((centers, d + 1))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    c = rng.standard_normal(centers)
    c /= np.linalg.norm(c)

    def evaluate(Y):
        T = np.clip(Y @ Z.T, -1.0, 1.0)
        return gw_eval(spec_m, T) @ c

    return evaluate


def _random_monomial_mixture(exponent_pool, d, rng, terms=10):
    idx = rng.choice(len(exponent_pool), size=min(terms, len(exponent_pool)), replace=False)
    chosen = [exponent_pool[i] for i in idx]
    c = rng.standard_normal(len(chosen))
    c /= np.linalg.norm(c)

    def evaluate(Y):
        out = np.zeros(Y.shape[0])
        for coef, a in zip(c, chosen):
            vals = np.ones(Y.shape[0])
            for col, e in enumerate(a):
                if e:
                    vals = vals * _int_power(Y[:, col], e)
            out += coef * vals
        return out

    return evaluate


def _int_power(base, e):
    """base**e by binary exponentiation (cheaper than np.power on big grids)."""
    result = None
    square = base
    while e:
        if e & 1:
            result = square if result is None else result * square
        e >>= 1
        if e:
            square = square * square
    return result


class SamplingEnergyReport(NamedTuple):
    mean_energy: float
    bound: float
    passed: bool
    cross_mean: float
    cross_stderr: float


def sampling_energy_check(spec, partition, trials=200, seed=0):
    """Monte Carlo check of the one-point-per-region averaging bound.

    Draws each point uniformly in its region, `trials` times; passes when
    the mean energy stays within the predicted bound (plus 3/sqrt(trials)
    statistical slack).  Each trial also pairs two independent draws to
    estimate the unconstrained double integral of the kernel, whose exact
    value is zero (the kernel is mean-free degree by degree).
    """
    if trials < 50:
        raise ValueError("trials must be >= 50 for a stable mean")
    N = partition.N
    bound = initial_energy_bound(spec, partition)
    energies = np.empty(trials)
    cross = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        X = np.stack([partition.regions[i].sample(rng) for i in range(N)])
        Y = np.stack([partition.regions[i].sample(rng) for i in range(N)])
        energies[trial] = _energy_raw(spec, X)
        cross[trial] = float(np.mean(gw_eval(spec, np.clip(X @ Y.T, -1.0, 1.0))))
    mean_energy = float(np.mean(energies))
    cross_mean = float(np.mean(cross))
    cross_stderr = float(np.std(cross, ddof=1) / math.sqrt(trials))
    passed = mean_energy <= bound * (1.0 + 3.0 / math.sqrt(trials))
    return SamplingEnergyReport(mean_energy, bound, passed, cross_mean, cross_stderr)
