"""Gegenbauer polynomials, their derivatives, and spherical harmonic dimensions.

Everything here is scalar special-function plumbing: the three-term
recurrence for C_k^alpha on [-1, 1], exact rational values at t = 1, and
the dimension count for the degree-k harmonic space on S^d.

`gegenbauer_terms` is the one way the package evaluates a Gegenbauer
polynomial in float64; every value, kernel series, field and per-degree sum
is read off the sequence it yields.  Derivatives are read off it too,
through the index shift d^r/dt^r C_k^alpha = shift_factor(alpha, r) *
C_{k-r}^{alpha+r}.  The alpha = 0 case (the circle, d = 1) uses
the renormalized Chebyshev limit C_k^0 := lim_{a->0} C_k^a / a = (2/k) T_k
(and C_0^0 = 1), so that values at 1 stay nonzero and the zonal addition
identity keeps the same shape as for d >= 2.  At alpha = 0 the generator
yields T_k itself, and `renormalization` gives the factor 2/k.
"""

import math
from fractions import Fraction

import numpy as np

MAX_DEGREE = 200

_T_SLACK = 1e-12


def clamp_unit(t):
    """Clamp t into [-1, 1], allowing 1e-12 of rounding drift outside."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _T_SLACK):
        raise ValueError("argument outside [-1, 1]")
    return np.clip(t, -1.0, 1.0)


def gegenbauer_terms(alpha, n, t):
    """Yield P_0(t), ..., P_n(t) by the three-term recurrence.

    For alpha > 0, P_k = C_k^alpha:
        C_0 = 1,  C_1 = 2*alpha*t,
        k C_k = 2(k+alpha-1) t C_{k-1} - (k+2*alpha-2) C_{k-2}.
    For alpha = 0, P_k = T_k (T_1 = t, T_k = 2t T_{k-1} - T_{k-2}); multiply
    by `renormalization(0, k)` to get the renormalized C_k^0.  t must be an
    ndarray already in [-1, 1].

    Each yielded array is fresh (P_1 at alpha = 0 is t itself) and is never
    written afterwards, so a caller may keep it; it must not be modified
    while the generator still needs it as P_{k-1} or P_{k-2}.  Each step is
    computed in place in the new array with the textbook's rounding order,
    so the values are bitwise those of the one-line expression above.
    """
    prev = np.ones_like(t)
    yield prev
    if n == 0:
        return
    cur = t if alpha == 0.0 else 2.0 * alpha * t
    yield cur
    for k in range(2, n + 1):
        if alpha == 0.0:
            nxt = np.multiply(2.0, t)
            nxt *= cur
            nxt -= prev
        else:
            nxt = np.multiply(2.0 * (k + alpha - 1.0), t)
            nxt *= cur
            nxt -= (k + 2.0 * alpha - 2.0) * prev
            nxt /= k
        prev, cur = cur, nxt
        yield cur


def renormalization(alpha, k):
    """Factor taking the k-th term of `gegenbauer_terms` to C_k^alpha.

    2/k at alpha = 0 and k >= 1, where the term is T_k; 1 otherwise.
    """
    return 2.0 / k if alpha == 0.0 and k > 0 else 1.0


def shift_factor(alpha, order):
    """Constant c of the index shift d^r/dt^r C_k^alpha = c * C_{k-r}^{alpha+r}.

    2*alpha for r = 1 and 4*alpha*(alpha+1) for r = 2; their alpha -> 0
    limits under the renormalized convention are 2 and 4 (the derivatives
    of (2/k) T_k are 2 C_{k-1}^1 and 4 C_{k-2}^2).
    """
    if order == 1:
        return 2.0 * alpha if alpha > 0 else 2.0
    return 4.0 * alpha * (alpha + 1.0) if alpha > 0 else 4.0


def gegenbauer_at_one_exact(alpha2, k):
    """Exact rational C_k^alpha(1) for the integer alpha2 = 2*alpha.

    The binomial C(k + alpha2 - 1, k), and 2/k under the renormalized
    convention at alpha2 = 0, k >= 1.
    """
    if k == 0:
        return Fraction(1)
    if alpha2 == 0:
        return Fraction(2, k)
    return Fraction(math.comb(k + alpha2 - 1, k))


def harmonic_dim(d, k):
    """Dimension of the space of degree-k spherical harmonics on S^d.

    Exact integer arithmetic via dim = C(d+k, d) - C(d+k-2, d), which
    equals (2k+d-1)/(k+d-1) * C(d+k-1, k).  Degree k = 0 is rejected:
    constants are excluded from the mean-zero polynomial space.
    """
    if d < 1:
        raise ValueError("sphere dimension d must be >= 1")
    if k < 1:
        raise ValueError("harmonic degree k must be >= 1 (constants excluded)")
    return math.comb(d + k, d) - math.comb(d + k - 2, d)
