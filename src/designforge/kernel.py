"""Zonal reproducing-kernel machinery for spherical design energies.

The configuration energy is |Phi|^2 = (1/N^2) sum_ij g(<x_i, x_j>) for the
kernel profile

    g(t) = sum_k  dim_k / w_k * P_k^alpha(t),   alpha = (d-1)/2,

with Laplacian weights w_k = k (k + d - 1) and P_k = C_k / C_k(1) the
Gegenbauer polynomial normalized to P_k(1) = 1 (T_k on the circle).  That
Gram sum cancels O(1) terms down to the size of the energy, so the energy
and its gradient are taken from its variational form instead: per degree,
the squared norm E_k of F_k(y) = (1/N) sum_i h_k(<x_i, y>),
h_k = sqrt(dim_k / w_k) P_k, read off the values of F_k at the M nodes of
one zonal-span rule on every sphere (see `_energy_rule`).  Every term is a
nonnegative square, so one float64 path resolves the energy with no
cancellation, however small it is.  A call costs
O(N M n) time; it forms no (N, N) array, and apart from X and the gradient
rows it holds a few (N, block) arrays, with the M nodes taken in blocks of
block = 2^16 // N.  Each such array is then about 512 KiB, and a pass keeps
four or five of them live, near a 2 MiB per-core L2 cache:

  fields    t = <x_i, z_a>, P_{k-2}, P_{k-1}, the product t P_{k-1} and the
            new P_k (`gegenbauer_terms`); each P_k is summed over i by one
            BLAS gemv;
  gradient  t and Clenshaw's u_{k+1}, u_{k+2} and product t u_{k+1}
            (`gegenbauer_series`), with nothing allocated per degree.

At 2^18 doubles a block does not fit, and one energy call at d = 3, n = 11,
N = 960 took twice as long (15 ms against 7.6 ms on a 2-vCPU Xeon with
2 MiB of L2 per core).

The energy call keeps the residual r_k = B_k^T F_k (`_residual_raw`), the
weighted moments of the point set in an orthonormal basis of each H_k, whose
squared norms are the E_k; `solve` hands r, not the fields, to the gradient
at an accepted point.

`_jacobian_raw` gives the Jacobian J of r with respect to tangent moves of
the points, D = dim P_n - 1 rows by d N columns in an orthonormal tangent
basis at each point (`sphere.tangent_basis`).  By the index shift its row
block k is c_k B_k^T times P_{k-1}^{alpha+1}(<x_i, z_a>) z_a, the same
field derivative the gradient sums, so 2 J^T r is the gradient; it is built
from one `gegenbauer_terms` pass at alpha + 1 and one BLAS product per
degree, and the solver's Levenberg-Marquardt steps are its only user.
"""

import math
from fractions import Fraction

import numpy as np

from .gegenbauer import (
    MAX_DEGREE,
    clamp_unit,
    gegenbauer_series,
    gegenbauer_terms,
    harmonic_dim,
)
from .sphere import UNIT_TOL, as_coords, off_sphere_rows, tangent_basis, tangent_rows

# node block size of the field passes: N * block stays near this many doubles
# (see the module docstring for why 2^16)
_BLOCK_DOUBLES = 1 << 16
# node budget of the zonal-span rule (see `energy_rule_size`)
_MAX_SAMPLED_NODES = 4096
_SAMPLED_SEED = 0


class KernelSpec:
    """Immutable precomputation for a sphere dimension d and strength n.

    Carries the weights w_k, the dimensions dim_k, and the exact series of
    g and its first two derivatives in the normalized P_k of `gegenbauer`:
    by the index shift d/dt P_k^alpha = (w_k / d) P_{k-1}^{alpha+1},

        g^(r)(t) = sum_k series[r]_k P_{k-r}^{alpha+r}(t),   r = 0, 1, 2,

    with series[0]_k = dim_k / w_k, series[1]_k = dim_k / d and
    series[2]_k = dim_k (k-1)(k+d) / (d(d+2)).  Since P_j(1) = 1, the
    boundary constants g1 = g(1), gp1 = g'(1) and gpp1 = g''(1) are the
    exact rational sums of those series, each rounded once to float64, and
    curvature = 3 g''(1) + g'(1) is the constant of `hessian_step_bound` and
    of the solver's steepest-descent step.  Raises ValueError when a stored
    constant does not fit a float64.
    """

    __slots__ = ("d", "n", "alpha", "weights", "dims", "series", "g1", "gp1", "gpp1", "curvature")

    def __init__(self, d, n):
        if d < 1:
            raise ValueError("sphere dimension d must be >= 1")
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"strength n must be in 1..{MAX_DEGREE}")
        self.d = d
        self.n = n
        self.alpha = (d - 1) / 2.0
        ks = range(1, n + 1)
        weights = [k * (k + d - 1) for k in ks]
        dims = [harmonic_dim(d, k) for k in ks]
        self.weights = np.array(weights, dtype=float)
        self.dims = np.array(dims)
        # the series coefficients as exact (numerator, denominator) pairs
        ratios = (
            list(zip(dims, weights)),
            [(dim, d) for dim in dims],
            [(dim * (k - 1) * (k + d), d * (d + 2)) for k, dim in zip(ks, dims)],
        )
        try:
            # int / int rounds the exact quotient once, or raises OverflowError
            self.series = tuple(np.array([p / q for p, q in row]) for row in ratios)
            self.g1, self.gp1, self.gpp1 = (
                float(sum(Fraction(p, q) for p, q in row)) for row in ratios
            )
            self.curvature = 3.0 * self.gpp1 + self.gp1
            finite = math.isfinite(self.curvature)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"kernel constants for d={d}, n={n} do not fit a float64")

    def __repr__(self):
        return f"KernelSpec(d={self.d}, n={self.n})"


def make_kernel(d, n):
    """Build the KernelSpec for dimension d and design strength n."""
    return KernelSpec(d, n)


def _eval_shifted(spec, t, shift):
    """g^(shift)(t) = sum_k series[shift]_k P_{k-shift}^{alpha+shift}(t)."""
    t = clamp_unit(t)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    # coeffs[j] multiplies P_j; g has no degree-0 term
    coeffs = np.concatenate([[0.0], spec.series[shift]])[shift:]
    out = gegenbauer_series(spec.alpha + shift, coeffs, t)
    return float(out[0]) if scalar else out


def gw_eval(spec, t):
    """Kernel profile g(t) = sum_k dim_k / w_k P_k^alpha(t); scalar or ndarray t."""
    return _eval_shifted(spec, t, 0)


def gw_d1(spec, t):
    """First derivative g'(t), via the index-shift identity."""
    return _eval_shifted(spec, t, 1)


def hessian_step_bound(spec):
    """Curvature certificate (3 g''(1) + g'(1))^(1/2).

    Bounds the spherical Hessian norm of any unit-norm polynomial in the
    kernel space; the solver seeds its step size from it.
    """
    return math.sqrt(spec.curvature)


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
    one eigendecomposition per degree, O(M^3) once per sphere as n grows
    (see `_energy_rule`).  Raises
    ValueError above _MAX_SAMPLED_NODES.
    """
    size = 2 * harmonic_dim(d, n)
    if size > _MAX_SAMPLED_NODES:
        raise ValueError(
            f"no energy rule for d={d}, n={n}: the zonal-span rule needs {size} "
            f"nodes (at most {_MAX_SAMPLED_NODES})"
        )
    return size


# one zonal-span rule per sphere dimension d, built at the largest n asked
# for so far (see `_energy_rule`)
_RULES = {}


def _energy_rule(d, n):
    """Seeded nodes Z and per-degree maps B_1..B_n of the zonal-span rule.

    M = 2 dim H_n random nodes z_a; degree k uses the first 2 dim H_k.  The
    zonal kernels P_k(<., z_a>) span H_k, so P_k(<x, x'>) = p_x^T G^+ p_x'
    for p_x = (P_k(<x, z_a>))_a and the Gram G = (P_k(<z_a, z_b>))_ab.  B_k
    holds the dim H_k leading eigenvectors U of G over sqrt(lambda), so
    G^+ = B_k B_k^T.  A test pins the kept eigenvalues within 50x of each
    other and the dropped ones below 1e-12 of the largest.

    One rule is kept per d, at the largest n asked for so far; a smaller n
    is served its prefix (Z[:M], B_1..B_n).  The seeded draw of M nodes is
    a prefix of any larger draw and every entry of G is formed on its own,
    so that prefix is bitwise the rule built for n alone.  B_n has M rows,
    so a cached rule serves n without recomputing M.
    """
    rule = _RULES.get(d)
    if rule is None or len(rule[1]) < n:
        rule = _RULES[d] = _build_energy_rule(d, n)
    Z, maps = rule
    return Z[:maps[n - 1].shape[0]], maps[:n]


def _build_energy_rule(d, n):
    """The zonal-span rule of `_energy_rule` for (d, n), built afresh."""
    size = energy_rule_size(d, n)
    alpha = (d - 1) / 2.0
    Z = np.random.default_rng(_SAMPLED_SEED).standard_normal((size, d + 1))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    # the Gram entry by entry in a fixed coordinate order, so that it does
    # not depend on M as a BLAS product Z @ Z.T may
    gram = Z[:, 0, None] * Z[None, :, 0]
    for c in range(1, d + 1):
        gram += Z[:, c, None] * Z[None, :, c]
    maps = []
    terms = gegenbauer_terms(alpha, n, np.clip(gram, -1.0, 1.0, out=gram))
    next(terms)
    for k, P in enumerate(terms, 1):
        h = harmonic_dim(d, k)
        lam, U = np.linalg.eigh(P[:2 * h, :2 * h])
        maps.append(U[:, -h:] / np.sqrt(lam[-h:]))
    for a in (Z, *maps):
        a.flags.writeable = False
    return Z, tuple(maps)


def _node_blocks(N, M):
    """Slices of the M rule nodes such that N * block stays near _BLOCK_DOUBLES."""
    block = max(1, _BLOCK_DOUBLES // N)
    return [slice(start, start + block) for start in range(0, M, block)]


def _fields(spec, X):
    """F_k(z_a) = (1/N) sum_i h_k(<x_i, z_a>), h_k = sqrt(dim_k / w_k) P_k,
    for k = 1..n at every node z_a of the zonal-span rule; shape (n, M)."""
    Z, _ = _energy_rule(spec.d, spec.n)
    N = X.shape[0]
    coeffs = np.sqrt(spec.series[0]) / N
    ones = np.ones(N)
    F = np.empty((spec.n, Z.shape[0]))
    for nodes in _node_blocks(N, Z.shape[0]):
        P = gegenbauer_terms(spec.alpha, spec.n, X @ Z[nodes].T)
        next(P)
        for k, term in enumerate(P):
            # column sums by BLAS gemv: 3-6x faster than term.sum(axis=0) here
            F[k, nodes] = coeffs[k] * (ones @ term)
    return F


def _residual_raw(spec, F):
    """The residual r_k = B_k^T F_k, k = 1..n, of the fields
    F = `_fields`(spec, X): a list of n arrays, r_k of length dim H_k.

    E_k = (1/N^2) sum_ij dim_k / w_k P_k(<x_i, x_j>) is the degree-k part
    of the Gram sum.  With h_k = sqrt(dim_k / w_k) P_k and
    F_k = (1/N) sum_i h_k(<x_i, .>), the zonal-span rule of `_energy_rule`
    gives P_k(<x, x'>) = p_x^T B_k B_k^T p_x', so E_k = |r_k|^2, read off
    F_k at the rule's nodes.  By the addition theorem the entries of
    psi(x) = sqrt(dim_k) B_k^T p_x are an orthonormal basis of H_k under the
    normalized surface measure, so r_k = w_k^(-1/2) (1/N) sum_i psi(x_i):
    the point set's moments in that basis, weighted.
    """
    _, maps = _energy_rule(spec.d, spec.n)
    return [B.T @ F[k, :B.shape[0]] for k, B in enumerate(maps)]


def _energy_raw(spec, X, fields=False):
    """Design energy |Phi|^2 of the rows of X: the sum of the per-degree
    energies |r_k|^2 of `_residual_raw`, with no clamping.

    With fields=True, returns (E, r) so that the solver can hand the
    residual of an accepted point to `_gradient_raw` instead of computing
    it again.
    """
    r = _residual_raw(spec, _fields(spec, X))
    E = float(np.sum([v @ v for v in r]))
    return (E, r) if fields else E


# perfbench/tracing.py wraps this name; an alias of the one energy, never called
_energy_dd_raw = _energy_raw


def _gradient_raw(spec, X, r=None):
    """Spherical gradient rows of the energy, d E / d x_i, shape (N, d+1).

    The tangent part of sum_k V_k^T dF_k / dx_i on the rule and residual of
    `_residual_raw`, with V_k = 2 c_k B_k r_k, where by the index shift
    dF_k(z_a) / dx_i = c_k P_{k-1}^{alpha+1}(<x_i, z_a>) z_a and
    c_k = sqrt(dim_k / w_k) (w_k / d) / N = sqrt(dim_k w_k) / (d N).  The
    sum over k is one Clenshaw sum (`gegenbauer_series`) per node block.

    r, when given, takes the place of the residual: any list of n arrays
    of the lengths of `_residual_raw`'s gives 2 J^T r in ambient rows, J
    of `_jacobian_raw`.  The residual of these rows, as
    `_energy_raw(..., fields=True)` returns it, gives bitwise the gradient
    computed with no r.
    """
    Z, maps = _energy_rule(spec.d, spec.n)
    N = X.shape[0]
    if r is None:
        r = _residual_raw(spec, _fields(spec, X))
    c = np.sqrt(spec.dims * spec.weights) / (spec.d * N)
    V = np.zeros((spec.n, Z.shape[0]))
    for k, (B, r_k) in enumerate(zip(maps, r)):
        V[k, :B.shape[0]] = 2.0 * c[k] * (B @ r_k)
    G = np.zeros_like(X)
    for nodes in _node_blocks(N, Z.shape[0]):
        A = gegenbauer_series(spec.alpha + 1.0, V[:, nodes], X @ Z[nodes].T)
        G += A @ Z[nodes]
    return tangent_rows(X, G)


def _jacobian_raw(spec, X, out=None):
    """Jacobian of the residual r = (r_1, ..., r_n) of `_residual_raw` with
    respect to tangent moves of the points: (J, basis), J of shape
    (D, d N) with D = sum_k dim H_k, and basis = `tangent_basis`(X).

    Column j N + i is the derivative along basis[j, i], and row block k is

        c_k B_k^T (P_{k-1}^{alpha+1}(<x_i, z_a>) <z_a, basis[j, i]>)_a,

    with B_k and c_k those of `_gradient_raw`, so 2 J^T r is the energy
    gradient in these coordinates.  One pass of `gegenbauer_terms` at
    alpha + 1 over the (M, N) array <z_a, x_i> yields the P_{k-1}^{alpha+1}
    degree by degree; each degree's (M_k, d, N) product with
    <z_a, basis[j, i]> goes through one BLAS product straight into its rows
    of J.  Apart from J the pass holds that product, the (M, d, N) array
    of <z_a, basis[j, i]> and the recurrence's three (M, N) arrays.  With
    M_k = 2 dim H_k each is at most about twice J's last row block, so the
    nodes are not blocked as in the field pass: J itself is the memory to
    budget.

    out, when given, is a (D, d N) array that receives J.  A caller that
    builds J again and again hands it the same array: at d = 2, n = 12,
    N = 338 (J 168 x 676, 0.9 MiB) a call then takes 0.97 ms, against
    1.79 ms into a fresh array, whose pages are faulted in anew each time
    (medians of 300 calls, one BLAS thread, 2-vCPU Xeon; an energy call
    takes 0.57 ms there).
    """
    Z, maps = _energy_rule(spec.d, spec.n)
    N, d = X.shape[0], spec.d
    basis = tangent_basis(X)
    T = (Z @ basis.reshape(d * N, d + 1).T).reshape(-1, d, N)
    c = np.sqrt(spec.dims * spec.weights) / (d * N)
    rows = np.cumsum([0] + [B.shape[1] for B in maps])
    J = np.empty((rows[-1], d * N)) if out is None else out
    Q = np.empty_like(T)
    P = gegenbauer_terms(spec.alpha + 1.0, spec.n - 1, Z @ X.T)
    for k, (B, P_k) in enumerate(zip(maps, P)):
        M_k = B.shape[0]
        np.multiply(P_k[:M_k, None, :], T[:M_k], out=Q[:M_k])
        np.matmul(c[k] * B.T, Q[:M_k].reshape(M_k, d * N), out=J[rows[k]:rows[k + 1]])
    return J, basis


def design_residual(spec, X):
    """Certification residual |Phi| = sqrt(energy) of the rows of X.

    Bounds the equal-weight quadrature error |mean Q - integral Q| by
    residual * |Q| for kernel-space Q.
    """
    return math.sqrt(_energy_raw(spec, X))
