"""Zonal reproducing-kernel machinery for spherical design energies.

The degree-k harmonic components are never materialized: every inner
product routes through the scalar kernel profile

    g(t) = sum_k  dim_k / (w_k * C_k(1)) * C_k^alpha(t),   alpha = (d-1)/2,

with Laplacian weights w_k = k (k + d - 1), so that the configuration
energy |Phi|^2 = (1/N^2) sum_ij g(<x_i, x_j>) is an O(N^2) Gram sum in
any dimension.  Energies are evaluated twice over: a fast float64 path,
and a compensated double-double path used for certification and for the
final stage of descent, where the plain path's rounding floor (~1e-17)
would mask true energies near the 1e-24 achieved-zero threshold.
"""

import math
from fractions import Fraction

import numpy as np

from . import _ddarith as dd
from .gegenbauer import (
    MAX_DEGREE,
    clamp_unit,
    derivative_at_one_exact,
    gegenbauer_at_one_exact,
    gegenbauer_terms,
    harmonic_dim,
    renormalization,
    shift_factor,
)
from .sphere import UNIT_TOL, TangentVector, UnitPoint, as_coords, off_sphere_rows

ACHIEVED_ZERO = 1e-24


class KernelSpec:
    """Immutable precomputation for a sphere dimension d and strength n.

    Carries the weights w_k, the kernel coefficients lam_k, and the
    boundary constants g1 = g(1), gp1 = g'(1), gpp1 = g''(1), all backed
    by exact rationals (alpha = (d-1)/2 makes every coefficient rational).
    """

    __slots__ = (
        "d", "n", "alpha", "weights", "dims", "lam",
        "g1", "gp1", "gpp1",
        "_lam_exact", "_g1_exact", "_gp1_exact", "_gpp1_exact",
        "_lam_dd", "_g1_dd", "_rec_a_dd", "_rec_b_dd",
    )

    def __init__(self, d, n):
        if d < 1:
            raise ValueError("sphere dimension d must be >= 1")
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"strength n must be in 1..{MAX_DEGREE}")
        self.d = d
        self.n = n
        self.alpha = (d - 1) / 2.0
        ks = np.arange(1, n + 1)
        self.weights = (ks * (ks + d - 1)).astype(float)
        self.dims = np.array([harmonic_dim(d, k) for k in ks])

        lam_exact = []
        g1 = Fraction(0)
        gp1 = Fraction(0)
        gpp1 = Fraction(0)
        for k in range(1, n + 1):
            w_k = Fraction(k * (k + d - 1))
            dim_k = harmonic_dim(d, k)
            at_one = gegenbauer_at_one_exact(d - 1, k)
            lam_k = Fraction(dim_k) / (w_k * at_one)
            lam_exact.append(lam_k)
            g1 += lam_k * at_one
            gp1 += lam_k * derivative_at_one_exact(d, k, 1)
            gpp1 += lam_k * derivative_at_one_exact(d, k, 2)
        self._lam_exact = tuple(lam_exact)
        self._g1_exact = g1
        self._gp1_exact = gp1
        self._gpp1_exact = gpp1
        self.lam = np.array([float(f) for f in lam_exact])
        self.g1 = float(g1)
        self.gp1 = float(gp1)
        self.gpp1 = float(gpp1)

        # double-double mirrors for the compensated energy path
        if d == 1:
            scaled = [lam * Fraction(2, k) for lam, k in zip(lam_exact, range(1, n + 1))]
            self._lam_dd = tuple(dd.from_fraction(f) for f in scaled)
            self._rec_a_dd = None
            self._rec_b_dd = None
        else:
            self._lam_dd = tuple(dd.from_fraction(f) for f in lam_exact)
            self._rec_a_dd = tuple(
                dd.from_fraction(Fraction(2 * k + d - 3, k)) for k in range(2, n + 1)
            )
            self._rec_b_dd = tuple(
                dd.from_fraction(Fraction(k + d - 3, k)) for k in range(2, n + 1)
            )
        self._g1_dd = dd.from_fraction(g1)

    def __repr__(self):
        return f"KernelSpec(d={self.d}, n={self.n})"


def make_kernel(d, n):
    """Build the KernelSpec for dimension d and design strength n."""
    return KernelSpec(d, n)


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


def _eval_shifted(spec, t, shift):
    """sum_k lam_k * d^shift/dt^shift C_k^alpha(t), via the index shift."""
    t = clamp_unit(t)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if spec.n < shift:
        out = np.zeros_like(t)
    else:
        alpha = spec.alpha + shift
        if shift == 0:
            coeffs = np.concatenate([[0.0], spec.lam])  # g has no degree-0 term
        else:
            coeffs = shift_factor(spec.alpha, shift) * spec.lam[shift - 1:]
        terms = gegenbauer_terms(alpha, len(coeffs) - 1, t)
        out = coeffs[0] * next(terms)
        for k, term in enumerate(terms, 1):
            out += coeffs[k] * renormalization(alpha, k) * term
    return float(out[0]) if scalar else out


def gw_eval(spec, t):
    """Kernel profile g(t) = sum_k lam_k C_k^alpha(t); scalar or ndarray t."""
    return _eval_shifted(spec, t, 0)


def gw_d1(spec, t):
    """First derivative g'(t), via the index-shift identity."""
    return _eval_shifted(spec, t, 1)


def gw_d2(spec, t):
    """Second derivative g''(t), via the index-shift identity."""
    return _eval_shifted(spec, t, 2)


def hessian_step_bound(spec):
    """Curvature certificate (3 g''(1) + g'(1))^(1/2).

    Bounds the spherical Hessian norm of any unit-norm polynomial in the
    kernel space; the solver seeds its step size from it.
    """
    return math.sqrt(3.0 * spec.gpp1 + spec.gp1)


class Configuration:
    """N points on S^d tied to a KernelSpec, with a cached Gram matrix."""

    def __init__(self, spec, points):
        self.spec = spec
        X = as_coords(points)
        if X.shape[1] != spec.d + 1:
            raise ValueError(f"points must have {spec.d + 1} coordinates")
        if X.shape[0] < 1:
            raise ValueError("empty configuration")
        if off_sphere_rows(X).size:
            raise ValueError(f"configuration points must be finite unit vectors ({UNIT_TOL:g})")
        self.coords = X / np.linalg.norm(X, axis=1)[:, None]
        self.coords.flags.writeable = False
        self._gram = None

    @property
    def N(self):
        return self.coords.shape[0]

    @property
    def points(self):
        return [UnitPoint(row) for row in self.coords]

    def gram(self):
        if self._gram is None:
            g = self.coords @ self.coords.T
            np.clip(g, -1.0, 1.0, out=g)
            g.flags.writeable = False
            self._gram = g
        return self._gram

    def with_coords(self, X):
        return Configuration(self.spec, X)


def _pair_dots(X):
    iu, ju = np.triu_indices(X.shape[0], 1)
    t = np.einsum("ij,ij->i", X[iu], X[ju])
    np.clip(t, -1.0, 1.0, out=t)
    return t


def _energy_raw(spec, X):
    """Float64 energy; exact compensated reduction of the pair terms."""
    N = X.shape[0]
    if N == 1:
        return spec.g1
    terms = gw_eval(spec, _pair_dots(X))
    hi, lo = dd.pairwise_sum(terms)
    total = (N * spec.g1 + 2.0 * hi) + 2.0 * lo
    return total / (N * N)


def _energy_dd_raw(spec, X):
    """Double-double energy of the exactly-renormalized directions.

    Row norms, pair dots, and the Gegenbauer recurrence are all carried in
    dd arithmetic, which moves the evaluation noise floor from ~1e-17 to
    ~1e-32 and makes energies near ACHIEVED_ZERO trustworthy.
    """
    N = X.shape[0]
    if N == 1:
        return spec.g1
    sq = _dd_row_dots(X, X)
    inv = dd.div(dd.dd(np.ones(N)), dd.sqrt(sq))
    iu, ju = np.triu_indices(N, 1)
    t = _dd_row_dots(X[iu], X[ju])
    t = dd.mul(t, dd.mul((inv[0][iu], inv[1][iu]), (inv[0][ju], inv[1][ju])))
    t = dd.clip_unit(t)
    acc = _gw_series_dd(spec, t)
    off_hi, off_lo = dd.pairwise_sum_dd(acc)
    total = dd.add(dd.mul_d(spec._g1_dd, float(N)), dd.mul_d((off_hi, off_lo), 2.0))
    return (total[0] + total[1]) / (N * N)


def _dd_row_dots(A, B):
    acc = None
    for c in range(A.shape[1]):
        p = dd.two_prod(A[:, c], B[:, c])
        acc = p if acc is None else dd.add(acc, p)
    return acc


def _gw_series_dd(spec, t):
    """g(t) in dd arithmetic; at d = 1 the recurrence runs on T_k and the 2/k
    renormalization is folded into _lam_dd."""
    prev = dd.dd(np.ones_like(t[0]))
    cur = t if spec.d == 1 else dd.mul_d(t, float(spec.d - 1))
    acc = dd.mul(cur, spec._lam_dd[0])
    for k in range(2, spec.n + 1):
        if spec.d == 1:
            nxt = dd.sub(dd.mul_d(dd.mul(t, cur), 2.0), prev)
        else:
            term = dd.mul(dd.mul(t, cur), spec._rec_a_dd[k - 2])
            nxt = dd.sub(term, dd.mul(prev, spec._rec_b_dd[k - 2]))
        acc = dd.add(acc, dd.mul(nxt, spec._lam_dd[k - 1]))
        prev, cur = cur, nxt
    return acc


def _report_energy(raw):
    return 0.0 if raw < ACHIEVED_ZERO else raw


def energy(config):
    """Design energy |Phi|^2 = (1/N^2) sum_ij g(<x_i, x_j>).

    Zero exactly at spherical designs; values below the achieved-zero
    threshold 1e-24 are reported as 0.0 (float64 certifies no deeper).
    """
    return _report_energy(_energy_raw(config.spec, config.coords))


def energy_dd(config):
    """Compensated (double-double) energy; certification-grade."""
    return _report_energy(_energy_dd_raw(config.spec, config.coords))


def energy_by_degree(config):
    """Per-degree split E_k of the energy; each term is a squared norm.

    Entries are nonnegative up to rounding (-1e-12) and sum to energy().
    """
    spec = config.spec
    X = config.coords
    N = X.shape[0]
    t = _pair_dots(X) if N > 1 else np.zeros(0)
    sums = _degree_pair_sums(spec, t)
    out = np.empty(spec.n)
    for k in range(1, spec.n + 1):
        lam_k = spec.lam[k - 1]
        c_one = float(gegenbauer_at_one_exact(spec.d - 1, k))
        out[k - 1] = lam_k * (N * c_one + 2.0 * sums[k - 1]) / (N * N)
    return out


def _degree_pair_sums(spec, t):
    """[sum over pairs of C_k(t)] for k = 1..n, one recurrence pass."""
    terms = gegenbauer_terms(spec.alpha, spec.n, t)
    next(terms)
    return [renormalization(spec.alpha, k) * float(np.sum(term))
            for k, term in enumerate(terms, 1)]


def _gradient_raw(spec, X):
    """Spherical gradient rows of the energy, d E / d x_i, shape (N, d+1)."""
    N = X.shape[0]
    T = X @ X.T
    np.clip(T, -1.0, 1.0, out=T)
    W = gw_d1(spec, T)
    np.fill_diagonal(W, 0.0)
    M = W @ X
    radial = np.einsum("ij,ij->i", W, T)
    G = (2.0 / (N * N)) * (M - radial[:, None] * X)
    G -= np.einsum("ij,ij->i", G, X)[:, None] * X
    return G


def energy_gradient(config):
    """Tangent gradient of energy() at each configuration point."""
    rows = _gradient_raw(config.spec, config.coords)
    return [
        TangentVector(UnitPoint(x), g) for x, g in zip(config.coords, rows)
    ]


def design_residual(config):
    """Certification residual |Phi| = sqrt(max(energy, 0)).

    Uses the compensated energy path; bounds the equal-weight quadrature
    error |mean Q - integral Q| by residual * |Q| for kernel-space Q.
    """
    return math.sqrt(max(_energy_dd_raw(config.spec, config.coords), 0.0))


def kernel_poly_eval(spec, centers, coeffs, y):
    """Evaluate P = sum_i a_i g(<z_i, .>) at the point y."""
    Z = as_coords(centers)
    a = np.asarray(coeffs, dtype=float)
    if Z.shape[0] != a.size:
        raise ValueError("centers and coeffs must have equal length")
    y = y.coords if isinstance(y, UnitPoint) else np.asarray(y, dtype=float)
    t = np.clip(Z @ y, -1.0, 1.0)
    return float(a @ gw_eval(spec, t))


def kernel_poly_norm(spec, centers, coeffs):
    """Kernel-space norm |P| of P = sum_i a_i g(<z_i, .>) via the Gram matrix."""
    Z = as_coords(centers)
    a = np.asarray(coeffs, dtype=float)
    if Z.shape[0] != a.size:
        raise ValueError("centers and coeffs must have equal length")
    G = gw_eval(spec, np.clip(Z @ Z.T, -1.0, 1.0))
    return math.sqrt(max(float(a @ G @ a), 0.0))
