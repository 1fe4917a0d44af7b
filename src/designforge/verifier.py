"""Independent certification of spherical designs.

The design check never touches the kernel code path: monomials up to the
target degree are averaged over the points and compared against exact
closed-form sphere integrals computed in rational arithmetic.

The module also validates the two-sided L1 sampling inequality
(Marcinkiewicz-Zygmund) against a dense product quadrature grid, built by
`sphere.quadrature_rings` and imported back here with its helpers.  The
grid is a stack of rings: on each, the nodes share every coordinate but
the first two, (x0, x1) = r (cos phi, sin phi), at L equispaced
half-step longitudes.  A polynomial of degree <= m restricted to a ring
is a trigonometric polynomial of degree <= m in phi, so its values at all
L nodes follow exactly from 2m+1 equispaced samples (an rfft, a phase
shift, a zero-padded irfft) whenever L >= 2m+1.  The reference integral
of |P| therefore costs R (2m+1) evaluations of P plus FFTs, not R L.

Finally the averaging bound used to seed the solver is checked by Monte
Carlo over in-region sampling.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .kernel import _energy_raw, gw_eval, make_kernel
from .sphere import (
    UNIT_TOL,
    _ring_points,
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


def ring_values(evaluate, rings, m):
    """Values (R, L) of a degree-<=m polynomial at every node of the rings.

    On a ring, P is a trigonometric polynomial of degree <= m in longitude,
    so its 2m+1 samples at psi_k = 2 pi k / (2m+1) fix it: rfft gives its
    Fourier coefficients c_k, k = 0..m, a phase e^(i k pi / L) moves them
    to the half-step grid, and a zero-padded irfft of length L >= 2m+1
    returns P at all L longitudes.  Only R (2m+1) points are evaluated.
    """
    K = 2 * m + 1
    L = rings.L
    if L < K:
        raise ValueError(f"rings need at least {K} longitudes for degree {m}")
    psi = np.arange(K) * (2.0 * math.pi / K)
    samples = evaluate(_ring_points(rings, psi)).reshape(-1, K)
    coeffs = np.fft.rfft(samples, axis=1)
    coeffs *= (L / K) * np.exp(1j * (math.pi / L) * np.arange(m + 1))
    return np.fft.irfft(coeffs, n=L, axis=1)


def _ring_abs_integral(evaluate, rings, m):
    """Quadrature of |P| over the rings' nodes."""
    return float(rings.weight @ np.abs(ring_values(evaluate, rings, m)).sum(axis=1))


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
    the first two trials.  Both grids are integrated ring by ring: each
    trial polynomial is evaluated at 2m+1 longitudes per ring and resampled
    to the ring's L longitudes by `ring_values`, which is exact because P
    has degree <= m in longitude (each grid has L >= 2m+1, raised if need
    be, so nothing aliases).  The discrete mean is evaluated directly on
    the points.  A non-finite ratio fails the check.
    """
    X = as_coords(points)
    d = X.shape[1] - 1
    if not np.all(np.isfinite(X)):
        raise ValueError("points must be finite")
    if partition is not None and partition.d != d:
        raise ValueError("partition dimension does not match the points")
    if m < 1:
        raise ValueError("polynomial degree m must be >= 1")
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
        X = np.stack([partition.regions[i].sample(rng).coords for i in range(N)])
        Y = np.stack([partition.regions[i].sample(rng).coords for i in range(N)])
        energies[trial] = _energy_raw(spec, X)
        cross[trial] = float(np.mean(gw_eval(spec, np.clip(X @ Y.T, -1.0, 1.0))))
    mean_energy = float(np.mean(energies))
    cross_mean = float(np.mean(cross))
    cross_stderr = float(np.std(cross, ddof=1) / math.sqrt(trials))
    passed = mean_energy <= bound * (1.0 + 3.0 / math.sqrt(trials))
    return SamplingEnergyReport(mean_energy, bound, passed, cross_mean, cross_stderr)
