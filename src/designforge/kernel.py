"""Zonal reproducing-kernel machinery for spherical design energies.

The degree-k harmonic components are never materialized: every inner
product routes through the scalar kernel profile

    g(t) = sum_k  dim_k / (w_k * C_k(1)) * C_k^alpha(t),   alpha = (d-1)/2,

with Laplacian weights w_k = k (k + d - 1), so that the configuration
energy is |Phi|^2 = (1/N^2) sum_ij g(<x_i, x_j>).  That Gram sum cancels
O(1) terms down to the size of the energy, so the energy is evaluated in
its variational form instead: a sum over degrees of squared norms of
F_k(y) = (1/N) sum_i h_k(<x_i, y>), h_k = sqrt(w_k) lam_k C_k, taken from
the values of F_k at the nodes of a product rule exact to degree 2n or, in
high dimension, of a sampled rule (see `energy_rule_size`).  Every term is
a nonnegative square, so one float64 path resolves energies far below the
1e-24 achieved-zero threshold.  The gradient stays on the Gram form.
"""

import functools
import math
from fractions import Fraction

import numpy as np

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
from .sphere import (
    UNIT_TOL,
    TangentVector,
    UnitPoint,
    as_coords,
    off_sphere_rows,
    sphere_quadrature_grid,
)

ACHIEVED_ZERO = 1e-24
# node block size of `_degree_energies`: N * block stays near this many doubles
_BLOCK_DOUBLES = 1 << 18
# energy rule budgets (see `energy_rule_size`)
_PRODUCT_PREFERENCE = 32
_MAX_PRODUCT_NODES = 1 << 21
_MAX_SAMPLED_NODES = 4096
_SAMPLED_SEED = 0


class KernelSpec:
    """Immutable precomputation for a sphere dimension d and strength n.

    Carries the weights w_k, the kernel coefficients lam_k, and the
    boundary constants g1 = g(1), gp1 = g'(1), gpp1 = g''(1), all backed
    by exact rationals (alpha = (d-1)/2 makes every coefficient rational).
    """

    __slots__ = (
        "d", "n", "alpha", "weights", "dims", "lam",
        "g1", "gp1", "gpp1",
        "_lam_exact",
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
        self.lam = np.array([float(f) for f in lam_exact])
        self.g1 = float(g1)
        self.gp1 = float(gp1)
        self.gpp1 = float(gpp1)

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
    """N points on S^d tied to a KernelSpec."""

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

    @property
    def N(self):
        return self.coords.shape[0]

    @property
    def points(self):
        return [UnitPoint(row) for row in self.coords]

    def with_coords(self, X):
        return Configuration(self.spec, X)


def energy_rule_size(d, n):
    """Kind and node count of the rule `_degree_energies` uses on S^d.

    The product rule, exact to degree 2n, has (n+1)^(d-1) (2n+1) nodes,
    which grows exponentially in d.  The sampled rule needs only
    2 dim H_n nodes, but an eigendecomposition per degree (O(M^3) once per
    (d, n)), and it scales rounding by its sampling condition (about 6 at
    2x oversampling); on S^d, d >= 2, it is used where it saves more than
    _PRODUCT_PREFERENCE times the nodes.  Each energy call costs
    nodes * N * n.  Raises ValueError when neither fits its budget.
    """
    product = (n + 1) ** (d - 1) * (2 * n + 1)
    sampled = 2 * harmonic_dim(d, n)
    if d >= 2 and product > _PRODUCT_PREFERENCE * sampled and sampled <= _MAX_SAMPLED_NODES:
        return "sampled", sampled
    if product <= _MAX_PRODUCT_NODES:
        return "product", product
    raise ValueError(
        f"no energy rule for d={d}, n={n}: the product rule needs {product} nodes "
        f"(at most {_MAX_PRODUCT_NODES}), the sampled rule {sampled} (at most "
        f"{_MAX_SAMPLED_NODES})"
    )


@functools.lru_cache(maxsize=2)
def _energy_rule(d, n):
    """Nodes Y with product weights omega, or with per-degree maps B_k.

    Product rule: `sphere_quadrature_grid(d, (n+1)**d, 2n+1)`, exact to
    degree 2n, and maps is None.  Sampled rule: M = 2 dim H_n seeded random
    nodes z_a; degree k uses the first M_k = 2 dim H_k of them.  The zonal
    kernels C_k(<., z_a>) span H_k, so C_k(<x, x'>) = c_x^T G^+ c_x' for
    c_x = (C_k(<x, z_a>))_a and G = (C_k(<z_a, z_b>))_ab, and B_k holds the
    dim H_k leading eigenvectors of G scaled by lambda^(-1/2).  The kept
    eigenvalues span a factor of at most 45 (measured for d = 2..20, k <= 100)
    and the rest are below 1e-13 of the largest.
    """
    kind, size = energy_rule_size(d, n)
    if kind == "product":
        Y, omega = sphere_quadrature_grid(d, (n + 1) ** d, 2 * n + 1)
        maps = None
    else:
        Y = np.random.default_rng(_SAMPLED_SEED).standard_normal((size, d + 1))
        Y /= np.linalg.norm(Y, axis=1)[:, None]
        omega = None
        T = np.clip(Y @ Y.T, -1.0, 1.0)
        maps = []
        for k, C in enumerate(gegenbauer_terms((d - 1) / 2.0, n, T)):
            if k == 0:
                continue
            h = harmonic_dim(d, k)
            lam, U = np.linalg.eigh(C[:2 * h, :2 * h])
            maps.append(U[:, -h:] / np.sqrt(lam[-h:]))
    for a in (Y, omega, *(maps or ())):
        if a is not None:
            a.flags.writeable = False
    return Y, omega, maps


def _degree_energies(spec, X):
    """Per-degree energies E_1..E_n of the rows of X, as sums of squares.

    By the addition theorem, integral h_k(<x, y>) h_k(<x', y>) dy equals
    lam_k C_k(<x, x'>) for h_k = sqrt(w_k) lam_k C_k, so
    E_k = (1/N^2) sum_ij lam_k C_k(<x_i, x_j>) is the integral of F_k(y)^2
    with F_k(y) = (1/N) sum_i h_k(<x_i, y>).  F_k^2 has degree 2k <= 2n, so
    the product rule of `_energy_rule` integrates it exactly: E_k is the
    weighted sum of omega_j F_k(y_j)^2.  On the sampled rule the same
    values give E_k = |B_k^T F_k|^2 / (w_k lam_k).  Nodes are taken in
    blocks so that the (N, block) recurrence arrays stay near
    _BLOCK_DOUBLES doubles.
    """
    N = X.shape[0]
    Y, omega, maps = _energy_rule(spec.d, spec.n)
    coeffs = np.sqrt(spec.weights) * spec.lam / N
    coeffs *= [renormalization(spec.alpha, k) for k in range(1, spec.n + 1)]
    out = np.zeros(spec.n)
    F = None if maps is None else np.empty((spec.n, Y.shape[0]))
    block = max(1, _BLOCK_DOUBLES // N)
    for start in range(0, Y.shape[0], block):
        stop = start + block
        terms = gegenbauer_terms(spec.alpha, spec.n, X @ Y[start:stop].T)
        next(terms)
        for k, term in enumerate(terms):
            Fk = coeffs[k] * term.sum(axis=0)
            if maps is None:
                out[k] += omega[start:stop] @ (Fk * Fk)
            else:
                F[k, start:stop] = Fk
    for k, B in enumerate(maps or ()):
        v = B.T @ F[k, :B.shape[0]]
        out[k] = (v @ v) / (spec.weights[k] * spec.lam[k])
    return out


def _energy_raw(spec, X):
    """Design energy |Phi|^2 of the rows of X: the sum of the per-degree
    energies, with no clamping."""
    return float(np.sum(_degree_energies(spec, X)))


# perfbench/tracing.py wraps this name; an alias of the one energy, never called
_energy_dd_raw = _energy_raw


def _report_energy(raw):
    return 0.0 if raw < ACHIEVED_ZERO else raw


def energy(config):
    """Design energy |Phi|^2 = (1/N^2) sum_ij g(<x_i, x_j>).

    Zero exactly at spherical designs; values below the achieved-zero
    threshold 1e-24 are reported as 0.0.
    """
    return _report_energy(_energy_raw(config.spec, config.coords))


def energy_by_degree(config):
    """Per-degree split E_k of the energy, k = 1..n.

    Each entry is a weighted sum of squares, so it is nonnegative, and the
    entries sum to the unclamped energy.
    """
    return _degree_energies(config.spec, config.coords)


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
    """Certification residual |Phi| = sqrt(energy), unclamped.

    Bounds the equal-weight quadrature error |mean Q - integral Q| by
    residual * |Q| for kernel-space Q.
    """
    return math.sqrt(_energy_raw(config.spec, config.coords))


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
