"""Gegenbauer polynomials, their derivatives, and spherical harmonic dimensions.

Everything here is scalar special-function plumbing: the three-term
recurrence on [-1, 1], exact rational values at t = 1, and the dimension
count for the degree-k harmonic space on S^d.

`gegenbauer_terms` is the one way the package evaluates a Gegenbauer
polynomial in float64, and it evaluates one normalization for every
alpha >= 0: P_k^alpha = C_k^alpha / C_k^alpha(1), so P_k(1) = 1 and
|P_k| <= 1 on [-1, 1].  At alpha = 0 (the circle, d = 1) that is the limit
T_k, with no separate convention.  Every value, kernel series, field and
per-degree sum is read off the sequence it yields, and so are derivatives,
through the index shift

    d/dt P_k^alpha = (w_k / d) P_{k-1}^{alpha+1},   alpha = (d-1)/2,

with w_k = k (k + d - 1) the Laplacian eigenvalue of degree k on S^d, so
that P_k'(1) = w_k / d.
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
    """Yield P_0(t), ..., P_n(t), P_k = C_k^alpha / C_k^alpha(1), for alpha >= 0.

        P_0 = 1,  P_1 = t,
        P_k = t P_{k-1} + b_k (t P_{k-1} - P_{k-2}),  b_k = (k-1) / (k+2*alpha-1).

    At alpha = 0 every b_k is 1 and P_k = T_k.  In this form P_k(1) = 1 and
    P_k(-1) = (-1)^k hold exactly in floating point.  t must be an ndarray
    already in [-1, 1].

    P_1 is t itself and every later term is a fresh array.  Callers never
    write a yielded array, so a caller may keep it; it must not be modified
    while the generator still needs it as P_{k-1} or P_{k-2}.  Each step
    runs in place, with one scratch array per generator, in the rounding
    order of the expression above.
    """
    prev = np.ones_like(t)
    yield prev
    if n == 0:
        return
    cur = t
    yield cur
    scratch = np.empty_like(t)
    for k in range(2, n + 1):
        tp = np.multiply(t, cur, out=scratch)
        nxt = tp - prev
        nxt *= (k - 1.0) / (k + 2.0 * alpha - 1.0)
        nxt += tp
        prev, cur = cur, nxt
        yield cur


def gegenbauer_at_one_exact(alpha2, k):
    """Exact rational C_k^alpha(1) for the integer alpha2 = 2*alpha.

    The binomial C(k + alpha2 - 1, k), and 2/k at alpha2 = 0, k >= 1, for
    the circle's C_k^0 = lim C_k^a / a = (2/k) T_k.  Nothing evaluates C_k
    itself; `kernel-info` reads this to print the coefficients
    lambda_k = dim_k / (w_k C_k(1)) of g in the C_k basis.
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
