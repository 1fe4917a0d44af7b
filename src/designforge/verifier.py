"""Independent certification of spherical designs.

The design check never touches the kernel code path: every monomial x^a of
degree 1..n is averaged over the points and compared with its exact sphere
integral (Delsarte, Goethals & Seidel, Geom. Dedicata 1977).  The
K = C(n+d+1, d+1) - 1 exponent vectors form one integer table, and the
monomials are evaluated in blocks of its rows: a block gathers rows of the
per-coordinate power tables x_c^e and multiplies them, so the check costs
K x N multiplies over d+1 gathers and holds one block of about 2^16 values
at a time.  Only the all-even exponent vectors have a nonzero integral,
computed in rational arithmetic; the others vanish by parity.

The module also validates the two-sided L1 sampling inequality
(Marcinkiewicz-Zygmund) against a dense product quadrature grid built by
`sphere.quadrature_rings`: rings of L equispaced longitudes phi, stacked
in nested colatitudes, a point being (sin theta y', cos theta) with y' a
point one sphere down.  Every coordinate is a product of one cos or sin
per angle, so a polynomial of degree <= m is a trigonometric polynomial of
degree <= m in each angle separately, fixed exactly by its values on the
torus of 2m+1 equispaced angles per axis.  Those values give the rings'
m+1 Fourier coefficients in longitude: an rfft of length 2m+1 along the
torus longitudes, shared by every grid of the check, every axial level
but the outermost interpolated on its result, and the outermost level's
interpolation as one small matmul per block of rings.  Each ring is then
cut into arcs of B longitudes.  An arc is symmetric about its center
phi_c, so with the coefficients turned by phi_c
P(phi_c +- psi) = C(psi) +- S(psi), C even and S odd in psi, and C and S
on a block of half arcs are two real matmuls against fixed (m+1, B/2) and
(m, B/2) cos and sin tables.  A mirror pair adds |C + S| + |C - S| =
2 max(|C|, |S|) to the integral.  So the reference integral of |P| costs
(2m+1)^d evaluations of P and about m + 1/2 multiply-adds per node, and
holds C and S on one block of about 2^16 nodes at a time, stacked in one
buffer reused across blocks and trials.  Besides its two matmuls a block
costs one abs over C and S, one maximum, one matvec with the mirror
weights and one weighted sum.  Where a ring is one arc, its center is pi
and its turn (-1)^k sits in the tables; where rings are cut into arcs,
one product turns a whole group of them.  At the generate-mz degrees on
their 10^6-node grids, (d, m) = (1, 16), (2, 10) and (3, 6), a trial
takes 2.3, 1.9 and 2.2 ms, where turning every block of arcs by its own
exp and taking |C| and |S| apart took 2.6, 2.4 and 3.3 ms (medians of 300
interleaved calls on one pinned core of a shared 2-vCPU Xeon, whose speed
swings by up to 50% between runs; the ratios held at 0.87-0.90,
0.80-0.83 and 0.66-0.67 over two runs).

Finally the averaging bound used to seed the solver is checked by Monte
Carlo over in-region sampling.
"""

import functools
import math
import numbers
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .gegenbauer import MAX_DEGREE
from .kernel import _BLOCK_DOUBLES, _energy_raw, gw_eval, make_kernel
from .sphere import (
    UNIT_TOL,
    as_coords,
    nested_points,
    off_sphere_rows,
    quadrature_rings,
    sphere_quadrature_grid,  # perfbench/tracing.py wraps it here by name
)
from .solver import initial_energy_bound

# the raw deviation loses sight of a failure as the degree grows: the M-gon
# is an (M-1)-design and deviates at strength M by about 2^(1-M) (3.5e-4 to
# 4.9e-4 over rotations at M = 12, and below the default tolerance 1e-9 at
# M = 31)
MAX_MONOMIAL_DEGREE = 12
MAX_MZ_DIM = 3
# node floor of the MZ check's coarse grid, and so of its fine grid
_MIN_GRID_NODES = 4096
# MZ trial polynomials: zonal kernels at this many random centers, and
# mixtures of at most this many monomials
_SPAN_CENTERS = 8
_MIXTURE_TERMS = 10


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


@functools.lru_cache(maxsize=None)
def _exponent_table(d, n):
    """(exponents, table): the exponent vectors of degree 0..n in
    `monomial_exponents` order, as a tuple of int tuples and as a read-only
    (K + 1, d+1) integer array.  Built once per (d, n) and shared by the
    monomial certifier and the MZ check's monomial mixtures."""
    exponents = tuple(monomial_exponents(d, n, 0))
    table = np.array(exponents)
    table.flags.writeable = False
    return exponents, table


@functools.lru_cache(maxsize=None)
def _monomial_integrals(d, n):
    """The exact sphere integrals of the exponent vectors of degree 0..n of
    `_exponent_table`, read-only: computed for the all-even vectors only,
    the rest vanish by parity."""
    exponents, table = _exponent_table(d, n)
    integral = np.zeros(len(exponents))
    even = np.flatnonzero(~np.any(table % 2, axis=1))
    integral[even] = [monomial_sphere_integral(exponents[k]) for k in even]
    integral.flags.writeable = False
    return integral


def worst_monomial_deviation(points, n):
    """Max |mean x^a - integral x^a| over monomials of degree 1..n.

    Returns (worst, witness_exponents), the witness being the first
    exponent vector in `monomial_exponents` order that attains the max.
    The K = C(n+d+1, d+1) - 1 exponent vectors form one (K, d+1) table,
    evaluated in blocks of about _BLOCK_DOUBLES // N rows: each block
    gathers rows of the per-coordinate power tables x_c^e and multiplies
    them coordinate 0 first (a factor x_c^0 = 1.0 is exact), so the cost is
    K x N multiplies over d+1 gathers and the memory one block of about
    _BLOCK_DOUBLES values.  The table and the exact integrals depend on
    (d, n) alone and are built once (`_exponent_table`,
    `_monomial_integrals`).  At n = 12 and
    N = 1000 random points one call takes 4-6 ms on S^2 (K = 454), 9-15 ms
    on S^3 (K = 1819) and 25-45 ms on S^4 (K = 6187) on one core of a
    shared 2-vCPU Xeon.  d is not capped: the CLI asks only where an
    energy rule exists, which keeps K at most 8007, at (5, 10).  No points,
    non-finite or non-unit rows, and n outside 1..MAX_MONOMIAL_DEGREE
    raise ValueError.
    """
    X = as_coords(points)
    d = X.shape[1] - 1
    if X.shape[0] == 0:
        raise ValueError("no points to certify")
    if off_sphere_rows(X).size:
        raise ValueError(f"points must be finite unit vectors ({UNIT_TOL:g})")
    if not 1 <= n <= MAX_MONOMIAL_DEGREE:
        raise ValueError(f"monomial certification supports n in 1..{MAX_MONOMIAL_DEGREE}")
    exponents, table = _exponent_table(d, n)
    exponents, table, integral = exponents[1:], table[1:], _monomial_integrals(d, n)[1:]
    powers = [
        np.stack([X[:, c] ** e for e in range(n + 1)]) for c in range(d + 1)
    ]
    worst = -1.0
    witness = None
    rows = max(1, _BLOCK_DOUBLES // X.shape[0])
    for k0 in range(0, len(exponents), rows):
        block = table[k0:k0 + rows]
        vals = powers[0][block[:, 0]]
        for c in range(1, d + 1):
            vals *= powers[c][block[:, c]]
        deviation = np.abs(vals.mean(axis=1) - integral[k0:k0 + rows])
        k = int(np.argmax(deviation))
        if deviation[k] > worst:
            worst = float(deviation[k])
            witness = exponents[k0 + k]
    return worst, witness


def is_design(points, n, tol):
    """Certify the design property by exhaustive monomial comparison.

    Returns (passed, worst_error, witness_exponents); independent of the
    kernel energy path.  Invalid points raise ValueError
    (`worst_monomial_deviation`).
    """
    worst, witness = worst_monomial_deviation(points, n)
    return worst <= tol, worst, witness


def _torus_spectrum(d, m):
    """spectrum(evaluate): P's Fourier coefficients in longitude on the
    torus, the only evaluations of P.

    A coordinate of a ring point is a product of one cos or sin per nested
    angle (`_ring_coefficients`), so a polynomial P of degree <= m is a
    trigonometric polynomial of degree <= m in each angle separately, fixed
    by its values on the torus of K = 2m+1 equispaced angles
    psi_k = 2 pi k / K per axis.  spectrum(evaluate) takes P at those
    (2m+1)^d torus points and an rfft of length K along the torus
    longitudes, and returns the coefficients c_0..c_m as (K^(d-1), K) reals,
    each row Re c_0..c_m then Im c_1..c_m (Im c_0 = 0 for real P).  The
    torus depends on (d, m) alone, so every grid of an MZ check reads one
    spectrum per trial.
    """
    K = 2 * m + 1
    psi = np.arange(K) * (2.0 * math.pi / K)
    cos, sin = np.cos(psi), np.sin(psi)
    torus = nested_points(np.column_stack([cos, sin]), [(cos, sin)] * (d - 1))

    def spectrum(evaluate):
        # (K^(d-1), m+1) complex: at most 19 KiB at the generate-mz degrees
        c = np.fft.rfft(evaluate(torus).reshape(-1, K))
        return np.concatenate((c.real, c.imag[:, 1:]), axis=1)

    return spectrum


def _ring_coefficients(rings, m):
    """(outer, spectra): the Fourier coefficients of P along the rings, in
    two factors.

    The rings are nested: y = (sin theta y', cos theta) with y' a ring
    point one sphere down, ending in (x0, x1) = (cos phi, sin phi).  One
    (n_a, K) trigonometric-interpolation matrix per axial level, K = 2m+1,
    moves that level's angle from the torus angles psi_k = 2 pi k / K to
    its Gauss colatitudes arccos t.  spectra(T) takes the torus spectrum
    T of `_torus_spectrum` and applies every level's matrix but the
    outermost to it: F, (K, n K) real, n the number of rings per outer
    colatitude, each ring's K values Re c_0..c_m then Im c_1..c_m.
    Interpolation and rfft commute, so the rings at the outer colatitudes i
    have the coefficients outer[i] @ F, (len(i) n, K), with
    P(phi) = (1/K) (c_0 + 2 Re sum_{k=1..m} c_k e^(i k phi)).  On S^1,
    outer is the 1x1 identity.
    """
    K = 2 * m + 1
    psi = np.arange(K) * (2.0 * math.pi / K)
    interps = []
    for t in rings.levels:
        # the Dirichlet kernel sin(K x / 2) / (K sin(x / 2)) at x = theta - psi_k
        # interpolates a torus angle to the level's colatitudes theta
        half = 0.5 * (np.arccos(t)[:, None] - psi)
        den = K * np.sin(half)
        interps.append(np.divide(np.sin(K * half), den, out=np.ones_like(den), where=den != 0.0))
    outer = interps[0] if interps else np.ones((1, 1))
    # an inner level's product holds the angles before its axis, already
    # moved to their colatitudes, its own colatitudes, and the torus angles
    # after it, down to the longitudes' K coefficient reals
    before = outer.shape[1]
    products = []
    for axis, interp in enumerate(interps[1:], 1):
        after = K ** (len(interps) - axis)
        products.append(np.empty((before, interp.shape[0], after)))
        before *= interp.shape[0]

    def spectra(T):
        F = T
        for interp, out in zip(interps[1:], products):
            F = np.matmul(interp, F.reshape(out.shape[0], K, -1), out=out)
        return F.reshape(outer.shape[1], -1)

    return outer, spectra


def _half_angles(p, k, L):
    """The angles p_i k_j pi / L, (len(p), len(k)), reduced mod 2 pi in integers."""
    return (math.pi / L) * (np.outer(p, k) % (2 * L))


def _arc_width(L, m):
    """Longitudes B per arc: the most with 2(m+1) B <= _BLOCK_DOUBLES, so
    that the half-arc cos and sin tables, (2m+1) ceil(B/2) values, fill
    about half of it; at most the ring."""
    return min(L, max(1, _BLOCK_DOUBLES // (2 * (m + 1))))


def _arc_parts(rings, m):
    """parts(T): the even and odd parts of P on the rings' half arcs, one
    block of arcs at a time, from P's torus spectrum T (`_torus_spectrum`).

    Node j of a ring sits at phi_j = (j + 1/2) 2 pi / L.  Each ring is cut
    into arcs of B longitudes (`_arc_width`), and a short last arc of
    L mod B nodes when B does not divide L.  An arc of w nodes from node j0
    is symmetric about its center phi_c = (j0 + w/2) 2 pi / L: its nodes
    are phi_c +- psi_h, psi_h = (2h + 1 - w mod 2) pi / L, h < ceil(w/2).
    Turned by phi_c, a ring's coefficients c'_k = c_k e^(i k phi_c) give
    P(phi_c +- psi) = C(psi) +- S(psi), with
    C = sum_{k=0..m} s_k Re c'_k cos(k psi) and
    S = -sum_{k=1..m} s_k Im c'_k sin(k psi), s_0 = 1/K and s_k = 2/K.
    So C and S on the half arc are two real matmuls of the turned rows'
    Re and Im parts against fixed (m+1, ceil(w/2)) and (m, ceil(w/2))
    tables of s_k cos(k psi_h) and -s_k sin(k psi_h): about m + 1/2
    multiply-adds per node, against 2(m+1) for P at every node.  The full
    arcs share one table pair and the short last arc has its own, no
    wider.  An odd arc's center node is psi_0 = 0, where S = 0.

    A ring block is the rings of a run of outer colatitudes, and its ring
    coefficients are one small matmul of the outer interpolation rows
    against the torus spectra (`_ring_coefficients`), laid out as the
    tables read them, Re c_0..c_m then Im c_1..c_m.  A ring that is one
    whole arc (B = L: every ring of the generate-mz grids on S^2 and S^3)
    has its center at phi_c = pi, so its only turn, (-1)^k, is folded
    exactly into the tables and its rows feed the matmuls as they are.
    Where rings are cut into arcs, a group of arcs is turned at once: the
    ring rows turned to the group's first arc, times the fixed turns
    e^(i k a B 2 pi / L) of its arcs a, in one product.  A group holds
    whole blocks and about _BLOCK_DOUBLES / 16 turned coefficients, more
    where one block is larger: 238 of the 518 full arcs of S^1's 10^6-node
    ring at m = 16, so its trial turns four groups, not 17 blocks.  A
    block is a run of arcs of one width times the rings of a ring block,
    about _BLOCK_DOUBLES // B rows, and its C and S are two matmuls into
    the two layers of one buffer.  The tables, the turns and every buffer
    depend on (rings, m) only and are allocated once, here.  parts yields
    (first node, first ring, w, CS), CS (2, arcs, rings, ceil(w/2)) with
    CS[0] = C and CS[1] = S: a view of the buffer that holds until the next
    block.
    """
    L = rings.L
    K = 2 * m + 1
    k = np.arange(m + 1)
    B = _arc_width(L, m)
    full, short = divmod(L, B)
    outer, spectra = _ring_coefficients(rings, m)
    inner = rings.weight.size // outer.shape[0]
    target = max(1, _BLOCK_DOUBLES // B)  # block rows of B nodes
    outers_per = min(outer.shape[0], max(1, target // inner))
    ring_rows = outers_per * inner
    arcs_per = min(full, max(1, target // ring_rows))
    rows = arcs_per * ring_rows
    whole = B == L
    scale = np.where(k == 0, 1.0, 2.0)[:, None] / K
    if whole:
        scale *= (-1.0) ** k[:, None]
    # (first node, arcs, width) of the full arcs and the short last one
    spans = [(j0, count, w) for j0, count, w in ((0, full, B), (full * B, 1, short)) if w]
    tables = []  # one cos and one sin table per arc width
    for _, _, w in spans:
        angle = _half_angles(k, 2 * np.arange((w + 1) // 2) + 1 - w % 2, L)
        tables.append((scale * np.cos(angle), -scale[1:] * np.sin(angle[1:])))
    coefficients = np.empty((outers_per, inner * K))
    both = np.empty((2, rows * ((B + 1) // 2)))
    # arcs per turn group: whole blocks, and at most about _BLOCK_DOUBLES / 16
    # turned coefficients where a block has fewer, so that the turns, the
    # turned rows and their layout, 64 KiB each, stay under glibc's default
    # 128 KiB mmap threshold and are not mapped afresh on every call
    group = 1 if whole else min(full, arcs_per * max(1, _BLOCK_DOUBLES // (16 * rows * (m + 1))))
    if not whole:
        # the turn of arc g0 + a is that of g0 times that of a
        steps = np.exp(1j * _half_angles(2 * B * np.arange(group), k, L))
        ring = np.zeros((ring_rows, m + 1), complex)  # Im c_0 stays 0
        turned = np.empty((group, ring_rows, m + 1), complex)
        layout = np.empty((group * ring_rows, K))

    def parts(T):
        F = spectra(T)
        for o0 in range(0, outer.shape[0], outers_per):
            o = min(outers_per, outer.shape[0] - o0)
            c = np.matmul(outer[o0:o0 + o], F, out=coefficients[:o]).reshape(-1, K)
            n_rings = c.shape[0]
            if not whole:
                np.copyto(ring[:n_rings].real, c[:, :m + 1])
                np.copyto(ring[:n_rings, 1:].imag, c[:, m + 1:])
            for (j0, count, w), (cos, sin) in zip(spans, tables):
                half = cos.shape[1]
                for g0 in range(0, count, group):
                    g = min(group, count - g0)
                    if whole:
                        src = c
                    else:
                        turn = np.exp(1j * _half_angles([2 * (j0 + g0 * B) + w], k, L))
                        arcs = turned[:g, :n_rings]
                        np.multiply(steps[:g, None], ring[:n_rings] * turn, out=arcs)
                        src = layout[:g * n_rings]
                        np.copyto(src.reshape(g, n_rings, K)[..., :m + 1], arcs.real)
                        np.copyto(src.reshape(g, n_rings, K)[..., m + 1:], arcs[..., 1:].imag)
                    for a0 in range(0, g, arcs_per):
                        n = min(arcs_per, g - a0)
                        block = src[a0 * n_rings:(a0 + n) * n_rings]
                        CS = both[:, :block.shape[0] * half].reshape(2, -1, half)
                        np.matmul(block[:, :m + 1], cos, out=CS[0])
                        np.matmul(block[:, m + 1:], sin, out=CS[1])
                        yield j0 + (g0 + a0) * B, o0 * inner, w, CS.reshape(2, n, n_rings, half)

    return parts


def _arc_blocks(rings, m):
    """blocks(evaluate): `_arc_parts` of P's torus spectrum
    (`_torus_spectrum`), one block of arcs at a time.

    Per block that is two half-arc matmuls, after one outer-interpolation
    matmul per ring block and, where rings are cut into arcs, one turning
    product and two copies per group of arcs: 2.3, 1.9 and 2.2 ms per
    fine-grid trial on S^1, S^2 and S^3 at the generate-mz degrees, where an
    exp, two products and two copies per block took 2.6, 2.4 and 3.3 ms
    (module docstring).  blocks yields (first node, first ring, w, C, S),
    C and S the (arcs, rings, ceil(w/2)) layers of one block buffer, views
    that hold until the next block; P(phi_c +- psi_h) = C +- S at an arc's
    mirror pair of nodes.
    """
    spectrum = _torus_spectrum(len(rings.levels) + 1, m)
    parts = _arc_parts(rings, m)

    def blocks(evaluate):
        for j0, r0, w, CS in parts(spectrum(evaluate)):
            yield j0, r0, w, CS[0], CS[1]

    return blocks


def _abs_integral(rings, m):
    """integral(T): the quadrature of |P| over the rings' nodes from P's
    torus spectrum T, block by block, P never held at all R L nodes.

    The mirror pair P(phi_c +- psi) = C +- S of a block (`_arc_parts`)
    adds |C + S| + |C - S| = 2 max(|C|, |S|), an odd arc's center node
    (S = 0) only |C|.  So a block costs one abs over C and S, a maximum, a
    matvec with these mirror weights, built once per arc width, and a
    weighted sum over its rings.
    """
    parts = _arc_parts(rings, m)
    B = _arc_width(rings.L, m)
    mirrors = {}
    for w in {B, rings.L % B} - {0}:
        mirrors[w] = np.full((w + 1) // 2, 2.0)
        mirrors[w][0] -= w % 2

    def integral(T):
        total = 0.0
        for _, r0, w, CS in parts(T):
            np.abs(CS, out=CS)
            C = np.maximum(CS[0], CS[1], out=CS[0])
            total += rings.weight[r0:r0 + C.shape[1]] @ (C @ mirrors[w]).sum(axis=0)
        return float(total)

    return integral


def _ring_abs_integral(rings, m):
    """integral(evaluate): `_abs_integral` of P's torus spectrum
    (`_torus_spectrum`), with one set of tables for every P."""
    spectrum = _torus_spectrum(len(rings.levels) + 1, m)
    integral = _abs_integral(rings, m)
    return lambda evaluate: integral(spectrum(evaluate))


def _is_count(value):
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class MzReport:
    """Observed band of discrete/continuous L1 ratios over random polynomials."""

    degree: int
    trials: int
    min_ratio: float
    max_ratio: float
    passed: bool

    def to_dict(self):
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        return doc


def mz_check(points, m, trials=100, seed=0, min_nodes=1_000_000):
    """Two-sided L1 sampling test: is the node average of |P| within
    (1/2, 3/2) times the true integral for random degree-<=m polynomials?

    Trials alternate between random kernel-span combinations and random
    monomial mixtures.  The reference integral is the dense product grid
    of `quadrature_rings`, consistency-checked against a coarser grid on
    the first two trials.  (2m+1)^d evaluations of each trial polynomial
    on the torus of equispaced angles and their rfft (`_torus_spectrum`),
    made once per trial and read by both grids, give the rings' Fourier
    coefficients, one block of rings at a time.  Each grid sums |P| over
    arcs of B longitudes as mirror pairs about each arc's center,
    P(phi_c +- psi) = C(psi) +- S(psi), with C and S two cos/sin-table
    matmuls per block of half arcs (about m + 1/2 multiply-adds per node),
    then one abs over both, a maximum, a matvec and a weighted sum
    (`_abs_integral`).  That route is exact because P has degree <= m in
    each nested angle (each grid has L >= 2m+1, raised if need be, so
    nothing aliases).  The tables and block buffers are built here, once
    per grid, and reused by every trial.  At the generate degrees on S^1,
    S^2 and S^3 a fine-grid trial takes about 2.3, 1.9 and 2.2 ms, against
    2.6, 2.4 and 3.3 ms with a turn per block and |C| and |S| taken apart
    (module docstring).  The discrete mean is evaluated directly on the
    points, and only the points are read.  A non-finite ratio fails the
    check.  Non-finite or non-unit rows, m not an integer in 1..MAX_DEGREE
    (the kernel-span trials need `make_kernel(d, m)`), trials not an
    integer >= 1, seed not an integer >= 0 and min_nodes not an integer
    >= 4096 (the coarse grid's floor) raise ValueError before any grid is
    built; a bool is not an integer here.
    """
    X = as_coords(points)
    d = X.shape[1] - 1
    if off_sphere_rows(X).size:
        raise ValueError(f"points must be finite unit vectors ({UNIT_TOL:g})")
    if not _is_count(m) or not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"polynomial degree m must be an integer in 1..{MAX_DEGREE}")
    if not _is_count(trials) or trials < 1:
        raise ValueError("trials must be an integer >= 1")
    if not _is_count(seed) or seed < 0:
        raise ValueError("seed must be an integer >= 0")
    if not _is_count(min_nodes) or min_nodes < _MIN_GRID_NODES:
        raise ValueError(f"min_nodes must be an integer >= {_MIN_GRID_NODES}")
    # one set of tables and block buffers per grid, shared by all the trials,
    # and one torus, shared by both grids
    spectrum = _torus_spectrum(d, m)
    reference_integral = _abs_integral(quadrature_rings(d, min_nodes, 2 * m + 1), m)
    coarse_rings = quadrature_rings(d, max(_MIN_GRID_NODES, min_nodes // 4), 2 * m + 1)
    coarse_integral = _abs_integral(coarse_rings, m)
    spec_m = make_kernel(d, m)
    exponent_pool, _ = _exponent_table(d, m)

    ratios = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        if trial % 2 == 0:
            evaluate = _random_kernel_span(spec_m, d, rng)
        else:
            evaluate = _random_monomial_mixture(exponent_pool, d, rng)
        T = spectrum(evaluate)
        reference = reference_integral(T)
        if trial < 2:
            check = coarse_integral(T)
            if not abs(check - reference) <= 1e-3 * max(reference, 1e-12):
                raise ArithmeticError("reference quadrature failed its grid consistency check")
        discrete = float(np.mean(np.abs(evaluate(X))))
        ratios[trial] = discrete / reference if reference > 0.0 else math.nan
    lo = float(np.min(ratios))
    hi = float(np.max(ratios))
    return MzReport(degree=m, trials=trials, min_ratio=lo, max_ratio=hi,
                    passed=bool(np.all(np.isfinite(ratios))) and 0.5 < lo and hi < 1.5)


def _random_kernel_span(spec_m, d, rng):
    Z = rng.standard_normal((_SPAN_CENTERS, d + 1))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    c = rng.standard_normal(_SPAN_CENTERS)
    c /= np.linalg.norm(c)

    def evaluate(Y):
        T = np.clip(Y @ Z.T, -1.0, 1.0)
        return gw_eval(spec_m, T) @ c

    return evaluate


def _random_monomial_mixture(exponent_pool, d, rng):
    size = min(_MIXTURE_TERMS, len(exponent_pool))
    idx = rng.choice(len(exponent_pool), size=size, replace=False)
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
    bound = initial_energy_bound(spec, partition)
    energies = np.empty(trials)
    cross = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        X = partition.sample(rng)
        Y = partition.sample(rng)
        energies[trial] = _energy_raw(spec, X)
        cross[trial] = float(np.mean(gw_eval(spec, np.clip(X @ Y.T, -1.0, 1.0))))
    mean_energy = float(np.mean(energies))
    cross_mean = float(np.mean(cross))
    cross_stderr = float(np.std(cross, ddof=1) / math.sqrt(trials))
    passed = mean_energy <= bound * (1.0 + 3.0 / math.sqrt(trials))
    return SamplingEnergyReport(mean_energy, bound, passed, cross_mean, cross_stderr)
