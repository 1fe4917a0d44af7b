"""Gegenbauer polynomials, their derivatives, and spherical harmonic dimensions.

Everything here is scalar special-function plumbing: the three-term
recurrence on [-1, 1], exact rational values at t = 1, and the dimension
count for the degree-k harmonic space on S^d.

The package evaluates Gegenbauer polynomials in float64 through two entry
points, both on one recurrence and one normalization for every alpha >= 0:
P_k^alpha = C_k^alpha / C_k^alpha(1), so P_k(1) = 1 and |P_k| <= 1 on
[-1, 1].  At alpha = 0 (the circle, d = 1) that is the limit T_k, with no
separate convention.

  `gegenbauer_terms`   the values P_0(t), ..., P_n(t) degree by degree, for
                       per-degree fields and Gram matrices;
  `gegenbauer_series`  one sum sum_k c_k P_k(t) by Clenshaw's recurrence,
                       for the kernel series g, g', g'' and the gradient.

Derivatives are read off shifted sequences through the index shift

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


def gegenbauer_series(alpha, coeffs, t):
    """Sum_k coeffs[k] P_k(t), P_k = C_k^alpha / C_k^alpha(1), by Clenshaw's
    backward recurrence on the b_k of `gegenbauer_terms`.  With
    a_k = 1 + b_k (a_1 = 1) that recurrence is P_k = a_k t P_{k-1} - b_k P_{k-2},
    and Clenshaw's sum is y_0 of

        y_k = c_k + a_{k+1} t y_{k+1} - b_{k+2} y_{k+2},   y_{n+1} = y_{n+2} = 0.

    It runs on u_k = y_k / s_k, s_k = a_{k+1} ... a_n, which takes the a's
    off the arrays:

        u_k = c_k / s_k + t u_{k+1} - b_{k+2} / (a_{k+1} a_{k+2}) u_{k+2},

    and returns s_0 u_0 (s_0 <= 2^n).  coeffs has shape (n+1,) or
    (n+1, ...); each coeffs[k] broadcasts against t, so a column of
    coefficients per column of t sums a different series in each column.
    An empty coeffs gives zeros.  t must be an ndarray already in [-1, 1];
    it is not written.

    Keeps three arrays of the broadcast shape (u_{k+1}, u_{k+2} and one
    scratch) and allocates nothing per degree: four array sweeps a degree.
    Where 1 - |t| > 1e-2 the sum agrees with the sum over `gegenbauer_terms`
    to 2e-15 sum|c_k| at n = 200.  Nearer t = +-1 Clenshaw loses more, up
    to about n^2 eps / 50 sum|c_k|: at n = 200 on the circle 1.9e-13 where
    1 - |t| < 1e-14, and 6e-14 out to 1 - |t| = 1e-4.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    shape = np.broadcast_shapes(t.shape, coeffs.shape[1:])
    n = coeffs.shape[0] - 1
    if n < 0:
        return np.zeros(shape)
    k = np.arange(n + 1.0)
    b = np.zeros(n + 1)
    b[2:] = (k[2:] - 1.0) / (k[2:] + 2.0 * alpha - 1.0)
    a = 1.0 + b
    s = np.ones(n + 1)
    s[:n] = np.cumprod(a[n:0:-1])[::-1]
    scaled = coeffs / s.reshape((n + 1,) + (1,) * (coeffs.ndim - 1))
    cur = np.zeros(shape)
    cur += scaled[n]
    prev = np.zeros(shape)
    scratch = np.empty(shape)
    for j in range(n - 1, -1, -1):
        # cur = u_{j+1}, prev = u_{j+2}; prev becomes u_j
        if j + 2 <= n:
            prev *= -b[j + 2] / (a[j + 1] * a[j + 2])
        prev += np.multiply(t, cur, out=scratch)
        prev += scaled[j]
        prev, cur = cur, prev
    cur *= s[0]
    return cur


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
