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
                       per-degree fields, Gram matrices and the Jacobian;
  `gegenbauer_series`  one sum sum_k c_k P_k(t) by Clenshaw's recurrence,
                       for the kernel series g, g', g'' and the gradient.

`gauss_gegenbauer` finds the zeros of P_n by Newton's method on the same
recurrence, written in the colatitude (see `_at_colatitude`), for the Gauss
rules of the sphere's product quadrature and of the cap areas.

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

    P_0 is a read-only broadcast of 1 and P_1 is t itself.  Every later term
    is a fresh array.  Callers never write a yielded array, so a caller may
    keep it; it must not be modified while the generator still needs it as
    P_{k-1} or P_{k-2}.  Each step runs in place on its new term, with one
    scratch array per generator, in the rounding order of the expression
    above.
    """
    prev = np.broadcast_to(1.0, t.shape)
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


def _at_colatitude(alpha, n, theta):
    """P_n(cos theta) and q = P_{n-1} - cos(theta) P_n, for n >= 1.

    The recurrence of `gegenbauer_terms` in Reinsch's difference form: with
    s = 1 - cos theta = 2 sin^2(theta / 2) and D_k = P_k - P_{k-1},

        D_1 = -s,  D_k = b_k D_{k-1} - (1 + b_k) s P_{k-1},  P_k = P_{k-1} + D_k,

    and q = s P_n - D_n.  Nothing rounds t = cos theta, so both values are
    those at theta itself.  Near t = +-1 that matters: Gauss weights formed
    from P_{n-1} at the rounded t are 2e-8 off at the outermost zero of
    P_1000, and the forward recurrence in t loses another 1e-10 there.
    """
    s = 2.0 * np.sin(0.5 * theta) ** 2
    p = 1.0 - s
    diff = -s
    scratch = np.empty_like(s)
    for k in range(2, n + 1):
        b = (k - 1.0) / (k + 2.0 * alpha - 1.0)
        diff *= b
        np.multiply(s, p, out=scratch)
        scratch *= 1.0 + b
        diff -= scratch
        p += diff
    return p, s * p - diff


def gauss_gegenbauer(n, alpha):
    """The n-node Gauss rule of the weight (1 - t^2)^(alpha - 1/2) on [-1, 1]:
    (nodes t ascending, weights summing to 1), for n >= 1 and alpha > 0.

    The nodes are the zeros of P_n, found on the half theta <= pi/2 of
    theta = arccos t (the other half is its mirror) by Newton's method on
    u = sin^alpha(theta) P_n(cos theta).  u solves the Liouville normal form
    u'' + ((n + alpha)^2 + alpha (1 - alpha) / sin^2 theta) u = 0 of the
    Gegenbauer equation, so u'' = 0 at its zeros and the iteration is cubic
    there.  With dP_n/dtheta = -n q / sin theta, since (1 - t^2) P_n' = n q,
    the step is p sin theta / (n q - alpha cos theta p).  Each zero stops
    once its step has phase (n + alpha) |step| <= 1e-6, which leaves it
    within 1e-18 / (n + alpha).  The start is the interior asymptotic
    phi_k + alpha (1 - alpha) cot(phi_k) / (2 (n + alpha)^2),
    phi_k = pi (k + alpha/2 - 1/2) / (n + alpha), which is further off next
    to the pole as alpha grows: Newton settles on the n zeros for every
    alpha = 1/2, 1, ..., 15.5 and n up to 2000 tried, and ArithmeticError
    is raised when it does not.  The package asks for alpha = 1/2 (the cap
    areas) and alpha <= 1 (the quadrature of S^2 and S^3).

    The weights are the Christoffel numbers, proportional to
    1 / ((1 - t^2) P_n'(t)^2) = sin^2 theta / (n q)^2 at the zeros, formed
    from theta, never from 1 - t^2.
    """
    half = (n + 1) // 2
    phi = math.pi * (np.arange(1, half + 1) + 0.5 * alpha - 0.5) / (n + alpha)
    theta = phi + alpha * (1.0 - alpha) / (2.0 * (n + alpha) ** 2) / np.tan(phi)
    active = np.arange(half)
    for _ in range(100):
        if not active.size:
            break
        th = theta[active]
        p, q = _at_colatitude(alpha, n, th)
        step = p * np.sin(th) / (n * q - alpha * np.cos(th) * p)
        theta[active] = th + step
        active = active[~((n + alpha) * np.abs(step) <= 1e-6)]
    if active.size or not (theta[0] > 0.0 and theta[-1] <= 0.5 * math.pi + 1e-9
                           and np.all(np.diff(theta) > 1e-9)):
        raise ArithmeticError(f"Newton found no {n}-node Gauss rule at alpha={alpha}")
    _, q = _at_colatitude(alpha, n, theta)
    w = (np.sin(theta) / q) ** 2
    t = np.cos(theta)
    if n % 2:
        t = np.concatenate([-t[:-1], [0.0], t[-2::-1]])
        w = np.concatenate([w, w[-2::-1]])
    else:
        t = np.concatenate([-t, t[::-1]])
        w = np.concatenate([w, w[::-1]])
    return t, w / w.sum()


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
