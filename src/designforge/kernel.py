"""Zonal reproducing-kernel machinery for spherical design energies.

The configuration energy is |Phi|^2 = (1/N^2) sum_ij g(<x_i, x_j>) for the
kernel profile

    g(t) = sum_k  dim_k / (w_k * C_k(1)) * C_k^alpha(t),   alpha = (d-1)/2,

with Laplacian weights w_k = k (k + d - 1).  That Gram sum cancels O(1)
terms down to the size of the energy, so the energy and its gradient are
taken from its variational form instead: per degree, the squared norm of
F_k(y) = (1/N) sum_i h_k(<x_i, y>), h_k = sqrt(w_k) lam_k C_k, read off the
values of F_k at the M nodes of one zonal-span rule on every sphere (see
`_energy_rule`).  Every term is a nonnegative square, so one float64 path
resolves the energy with no cancellation, however small it is.  A call costs
O(N M n) time; it forms no (N, N) array, and apart from X and the gradient
rows it holds a few (N, block) arrays, with the M nodes taken in blocks of
block = 2^16 // N.  Each such array is then about 512 KiB, so the four the
recurrence keeps live (t, P_{k-2}, P_{k-1}, P_k) fit a 2 MiB per-core L2
cache.  At 2^18 doubles they do not, and one energy call at d = 3, n = 11,
N = 960 took twice as long (15 ms against 7.6 ms on a 2-vCPU Xeon with
2 MiB of L2 per core).
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
from .sphere import UNIT_TOL, as_coords, off_sphere_rows, tangent_rows

# node block size of the field passes: N * block stays near this many doubles
# (see the module docstring for why 2^16)
_BLOCK_DOUBLES = 1 << 16
# node budget of the zonal-span rule (see `energy_rule_size`)
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


def hessian_step_bound(spec):
    """Curvature certificate (3 g''(1) + g'(1))^(1/2).

    Bounds the spherical Hessian norm of any unit-norm polynomial in the
    kernel space; the solver seeds its step size from it.
    """
    return math.sqrt(3.0 * spec.gpp1 + spec.gp1)


class Configuration:
    """N points on S^d tied to a KernelSpec: a validated, read-only copy of
    the rows, kept as given, so its energy is that of the rows passed in."""

    def __init__(self, spec, points):
        self.spec = spec
        X = as_coords(points).copy()
        if X.shape[1] != spec.d + 1:
            raise ValueError(f"points must have {spec.d + 1} coordinates")
        if X.shape[0] < 1:
            raise ValueError("empty configuration")
        if off_sphere_rows(X).size:
            raise ValueError(f"configuration points must be finite unit vectors ({UNIT_TOL:g})")
        X.flags.writeable = False
        self.coords = X

    def with_coords(self, X):
        return Configuration(self.spec, X)


def energy_rule_size(d, n):
    """Node count M = 2 dim H_n of the zonal-span rule on S^d.

    Each energy or gradient call costs M * N * n; building the rule costs
    one eigendecomposition per degree, O(M^3) once per (d, n).  Raises
    ValueError above _MAX_SAMPLED_NODES.
    """
    size = 2 * harmonic_dim(d, n)
    if size > _MAX_SAMPLED_NODES:
        raise ValueError(
            f"no energy rule for d={d}, n={n}: the zonal-span rule needs {size} "
            f"nodes (at most {_MAX_SAMPLED_NODES})"
        )
    return size


@functools.lru_cache(maxsize=2)
def _energy_rule(d, n):
    """Seeded nodes Z and per-degree maps B_1..B_n of the zonal-span rule.

    M = 2 dim H_n random nodes z_a; degree k uses the first 2 dim H_k.  The
    zonal kernels C_k(<., z_a>) span H_k, so C_k(<x, x'>) = c_x^T G^+ c_x'
    for c_x = (C_k(<x, z_a>))_a and G = (C_k(<z_a, z_b>))_ab.  B_k holds the
    dim H_k leading eigenvectors of G over sqrt(lambda), so G^+ = B_k B_k^T;
    lambda carries `renormalization`, since the recurrence yields T_k at
    d = 1.  A test pins the kept eigenvalues within 50x of each other and
    the dropped ones below 1e-12 of the largest.
    """
    size = energy_rule_size(d, n)
    alpha = (d - 1) / 2.0
    Z = np.random.default_rng(_SAMPLED_SEED).standard_normal((size, d + 1))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    maps = []
    terms = gegenbauer_terms(alpha, n, np.clip(Z @ Z.T, -1.0, 1.0))
    next(terms)
    for k, P in enumerate(terms, 1):
        h = harmonic_dim(d, k)
        lam, U = np.linalg.eigh(P[:2 * h, :2 * h])
        maps.append(U[:, -h:] / np.sqrt(renormalization(alpha, k) * lam[-h:]))
    for a in (Z, *maps):
        a.flags.writeable = False
    return Z, tuple(maps)


def _node_blocks(N, M):
    """Slices of the M rule nodes such that N * block stays near _BLOCK_DOUBLES."""
    block = max(1, _BLOCK_DOUBLES // N)
    return [slice(start, start + block) for start in range(0, M, block)]


def _fields(spec, X):
    """F_k(z_a) = (1/N) sum_i h_k(<x_i, z_a>), h_k = sqrt(w_k) lam_k C_k,
    for k = 1..n at every node z_a of the zonal-span rule; shape (n, M)."""
    Z, _ = _energy_rule(spec.d, spec.n)
    N = X.shape[0]
    coeffs = np.sqrt(spec.weights) * spec.lam / N
    coeffs *= [renormalization(spec.alpha, k) for k in range(1, spec.n + 1)]
    F = np.empty((spec.n, Z.shape[0]))
    for nodes in _node_blocks(N, Z.shape[0]):
        terms = gegenbauer_terms(spec.alpha, spec.n, X @ Z[nodes].T)
        next(terms)
        for k, term in enumerate(terms):
            F[k, nodes] = coeffs[k] * term.sum(axis=0)
    return F


def _degree_energies(spec, F):
    """Per-degree energies E_1..E_n of the fields F = `_fields`(spec, X),
    as sums of squares.

    By the addition theorem, integral h_k(<x, y>) h_k(<x', y>) dy equals
    lam_k C_k(<x, x'>) for h_k = sqrt(w_k) lam_k C_k, so
    E_k = (1/N^2) sum_ij lam_k C_k(<x_i, x_j>) is the squared norm of
    F_k(y) = (1/N) sum_i h_k(<x_i, y>).  On the zonal-span rule of
    `_energy_rule` that norm is E_k = |B_k^T F_k|^2 / (w_k lam_k).
    """
    _, maps = _energy_rule(spec.d, spec.n)
    out = np.empty(spec.n)
    for k, B in enumerate(maps):
        v = B.T @ F[k, :B.shape[0]]
        out[k] = (v @ v) / (spec.weights[k] * spec.lam[k])
    return out


def _energy_raw(spec, X, fields=False):
    """Design energy |Phi|^2 of the rows of X: the sum of the per-degree
    energies, with no clamping.

    With fields=True, returns (E, F) so that the solver can hand the fields
    of an accepted point to `_gradient_raw` instead of computing them again.
    """
    F = _fields(spec, X)
    E = float(np.sum(_degree_energies(spec, F)))
    return (E, F) if fields else E


# perfbench/tracing.py wraps this name; an alias of the one energy, never called
_energy_dd_raw = _energy_raw


def _gradient_raw(spec, X, F=None):
    """Spherical gradient rows of the energy, d E / d x_i, shape (N, d+1).

    The tangent part of sum_k V_k^T dF_k / dx_i on the rule and fields of
    `_degree_energies`, with V_k = 2 B_k B_k^T F_k / (w_k lam_k) and
    dF_k(z_a) / dx_i = (c_k / N) C_{k-1}^{alpha+1}(<x_i, z_a>) z_a, where
    c_k = shift_factor(alpha, 1) sqrt(w_k) lam_k.  F, when given, must be
    the fields of these same rows, as `_energy_raw(..., fields=True)`
    returns them; the result is then bitwise the same.
    """
    Z, maps = _energy_rule(spec.d, spec.n)
    N = X.shape[0]
    if F is None:
        F = _fields(spec, X)
    c = shift_factor(spec.alpha, 1) * np.sqrt(spec.weights) * spec.lam / N
    V = np.zeros_like(F)
    for k, B in enumerate(maps):
        m = B.shape[0]
        V[k, :m] = 2.0 * c[k] / (spec.weights[k] * spec.lam[k]) * (B @ (B.T @ F[k, :m]))
    G = np.zeros_like(X)
    for nodes in _node_blocks(N, Z.shape[0]):
        terms = gegenbauer_terms(spec.alpha + 1.0, spec.n - 1, X @ Z[nodes].T)
        A = V[0, nodes] * next(terms)
        scratch = np.empty_like(A)
        for k, term in enumerate(terms, 1):
            A += np.multiply(V[k, nodes], term, out=scratch)
        G += A @ Z[nodes]
    return tangent_rows(X, G)


def design_residual(spec, X):
    """Certification residual |Phi| = sqrt(energy) of the rows of X.

    Bounds the equal-weight quadrature error |mean Q - integral Q| by
    residual * |Q| for kernel-space Q.
    """
    return math.sqrt(_energy_raw(spec, X))
