import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_jacobi

from designforge.gegenbauer import (
    clamp_unit,
    gauss_gegenbauer,
    gegenbauer_at_one_exact,
    gegenbauer_series,
    gegenbauer_terms,
    harmonic_dim,
)
from oracles import gauss_gegenbauer_mp


def _gegenbauer(alpha, k, t):
    """P_k^alpha(t) = C_k^alpha(t) / C_k^alpha(1): the last term of `gegenbauer_terms`."""
    for term in gegenbauer_terms(alpha, k, np.atleast_1d(np.asarray(t, dtype=float))):
        pass
    return float(term[0]) if np.ndim(t) == 0 else term


def _at_one(alpha, k):
    """C_k^alpha(1), and 2/k for the circle's C_k^0 = (2/k) T_k."""
    return float(gegenbauer_at_one_exact(round(2 * alpha), k))


def _at_one_rising(alpha2, k):
    """C_k^alpha(1) = (2 alpha)_k / k! as a rising factorial, term by term, and
    2/k at alpha = 0: the oracle for the binomial of `gegenbauer_at_one_exact`."""
    alpha2 = Fraction(alpha2)
    if k == 0:
        return Fraction(1)
    if alpha2 == 0:
        return Fraction(2, k)
    value = Fraction(1)
    for j in range(1, k + 1):
        value *= Fraction(alpha2 + j - 1, j)
    return value


def test_eval_degree_one_is_2_alpha_t():
    # P_1 = t, and C_1 = C_1(1) P_1 = 2 alpha t
    for alpha in (0.0, 0.5, 1.0, 2.5):
        assert _gegenbauer(alpha, 1, 0.3) == 0.3
    assert _at_one(1.0, 1) * _gegenbauer(1.0, 1, 0.3) == pytest.approx(0.6, abs=1e-15)


def test_eval_matches_legendre_p2():
    # P_2(t) = (3t^2 - 1)/2 at t = 0.5
    assert _gegenbauer(0.5, 2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_value_at_one_binomial():
    from scipy.special import eval_gegenbauer

    # C(2*1.5 + 3 - 1, 3) = C(5, 3) = 10, the normalizer of P_3 = C_3 / C_3(1)
    assert _gegenbauer(1.5, 3, 1.0) == 1.0
    assert _at_one(1.5, 3) == 10.0
    assert _at_one(1.5, 3) * _gegenbauer(1.5, 3, 0.3) == pytest.approx(
        eval_gegenbauer(3, 1.5, 0.3), rel=1e-13)


def test_at_one_legendre_is_one():
    for k in (0, 1, 2, 5, 17, 60):
        assert _at_one(0.5, k) == 1.0


def test_at_one_alpha1():
    assert _at_one(1.0, 4) == 5.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 4.5])
def test_recurrence_matches_closed_form_at_one(alpha):
    # P_k(1) = 1, and the binomial normalizer is scipy's C_k^alpha(1)
    from scipy.special import eval_gegenbauer

    for k, term in enumerate(gegenbauer_terms(alpha, 60, np.ones(1))):
        assert term[0] == 1.0, k
        assert _at_one(alpha, k) == pytest.approx(eval_gegenbauer(k, alpha, 1.0), rel=1e-11), k


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.5, 17.0, 1267.5])
def test_values_at_plus_and_minus_one_are_exact(alpha):
    ends = np.array([1.0, -1.0])
    for k, term in enumerate(gegenbauer_terms(alpha, 200, ends)):
        assert term[0] == 1.0 and term[1] == (-1.0) ** k, (alpha, k)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_bounded_by_value_at_one(alpha):
    grid = np.linspace(-1.0, 1.0, 1001)
    for k in (1, 2, 5, 12, 20):
        vals = _gegenbauer(alpha, k, grid)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def _derivative(alpha, k, t, order):
    """The index shift d/dt P_k^alpha = (w_k / d) P_{k-1}^{alpha+1}, with
    d = 2 alpha + 1 and w_k = k (k + d - 1), applied `order` times: the
    identity the kernel's gradient, g' and g'' rely on."""
    factor = 1.0
    for j in range(order):
        a, m = alpha + j, k - j
        factor *= m * (m + 2.0 * a) / (2.0 * a + 1.0)
    return factor * _gegenbauer(alpha + order, k - order, t)


def test_derivative_legendre_at_one():
    # P_2'(1) = 3
    assert _derivative(0.5, 2, 1.0, 1) == pytest.approx(3.0, rel=1e-14)


def test_derivative_of_constant_is_zero():
    # g = lam_1 C_1 at n = 1 has no second derivative: the kernel's shifted
    # series returns zeros when the shift exceeds the strength
    from designforge.kernel import _eval_shifted, make_kernel

    for d in (1, 2, 4):
        assert _eval_shifted(make_kernel(d, 1), 0.7, 2) == 0.0
        assert np.array_equal(_eval_shifted(make_kernel(d, 1), np.linspace(-1, 1, 5), 2),
                              np.zeros(5))


def test_derivative_against_finite_difference():
    h = 1e-5
    fd = (_gegenbauer(0.5, 3, 0.2 + h) - _gegenbauer(0.5, 3, 0.2 - h)) / (2 * h)
    exact = _derivative(0.5, 3, 0.2, 1)
    assert exact == pytest.approx(fd, rel=1e-8)


def _central_difference(alpha, k, t, order, h):
    if order == 1:
        return (_gegenbauer(alpha, k, t + h)
                - _gegenbauer(alpha, k, t - h)) / (2 * h)
    return (_gegenbauer(alpha, k, t + h) - 2 * _gegenbauer(alpha, k, t)
            + _gegenbauer(alpha, k, t - h)) / h**2


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_identities_fd_sweep(alpha, order):
    # d = 2 alpha + 1 = 1..6
    # Richardson-extrapolated central differences (h^2 truncation cancelled)
    h = 2e-5 if order == 1 else 2e-4
    for k in (2, 3, 7, 12):
        for t in np.linspace(-0.9, 0.9, 7):
            coarse = _central_difference(alpha, k, t, order, h)
            fine = _central_difference(alpha, k, t, order, h / 2)
            fd = (4.0 * fine - coarse) / 3.0
            exact = _derivative(alpha, k, t, order)
            scale = max(abs(exact), 1.0)
            assert abs(exact - fd) <= 1e-7 * scale


def test_domain_validation():
    with pytest.raises(ValueError):
        clamp_unit(1.1)
    # rounding drift inside the 1e-12 slack is clamped, not rejected
    assert clamp_unit(1.0 + 1e-13) == 1.0
    assert _gegenbauer(0.5, 2, clamp_unit(1.0 + 1e-13)) == pytest.approx(1.0)


def test_alpha_zero_chebyshev_limit():
    # on the circle P_k^0 = T_k, and C_k^0 = lim C_k^a / a = (2/k) T_k, so
    # the exact value at one is 2/k (scipy's C_k^a / a at a small a)
    from scipy.special import eval_gegenbauer

    a = 1e-9
    for k in (1, 2, 5, 9):
        assert _at_one(0.0, k) == pytest.approx(2.0 / k, rel=1e-15)
        assert _at_one(0.0, k) == pytest.approx(eval_gegenbauer(k, a, 1.0) / a, rel=1e-7)
        theta = 0.7
        assert _gegenbauer(0.0, k, math.cos(theta)) == pytest.approx(math.cos(k * theta), abs=1e-13)


def test_at_one_binomial_matches_rising_factorial():
    for alpha2 in range(7):
        for k in range(61):
            assert gegenbauer_at_one_exact(alpha2, k) == _at_one_rising(alpha2, k), (alpha2, k)


def _derivative_at_one_exact(d, k, order):
    """d^r/dt^r C_k^alpha at 1, alpha = (d-1)/2, by the index shift
    d^r/dt^r C_k^alpha = c C_{k-r}^{alpha+r} in exact rationals: c = 2 alpha
    for r = 1 and 4 alpha (alpha+1) for r = 2, with their limits 2 and 4 for
    the circle's (2/k) T_k."""
    if k < order:
        return Fraction(0)
    alpha2 = d - 1
    if order == 1:
        factor = alpha2 if alpha2 > 0 else 2
    else:
        factor = alpha2 * (alpha2 + 2) if alpha2 > 0 else 4
    return factor * _at_one_rising(alpha2 + 2 * order, k - order)


def test_exact_at_one_and_derivatives():
    assert gegenbauer_at_one_exact(2, 3) == 4  # C_3^1(1) = C(4, 3)
    assert _derivative_at_one_exact(2, 2, 1) == 3  # P_2'(1)
    assert _derivative_at_one_exact(2, 2, 2) == 3  # P_2''(1)
    assert _derivative_at_one_exact(1, 4, 1) == 8  # circle: d/dt (2/4)T_4 at 1 = 2k
    # the ratios behind KernelSpec's closed forms for g'(1) and g''(1), with
    # w_k = k (k+d-1): C_k'(1) = C_k(1) w_k / d and
    # C_k''(1) = C_k(1) w_k (k-1)(k+d) / (d(d+2))
    for d in range(1, 7):
        for k in range(61):
            at_one = _at_one_rising(d - 1, k)
            w = k * (k + d - 1)
            assert _derivative_at_one_exact(d, k, 1) == at_one * Fraction(w, d), (d, k)
            assert _derivative_at_one_exact(d, k, 2) == at_one * Fraction(
                w * (k - 1) * (k + d), d * (d + 2)), (d, k)


def test_harmonic_dim_examples():
    assert harmonic_dim(2, 3) == 7
    assert harmonic_dim(3, 2) == 9
    assert harmonic_dim(1, 5) == 2
    assert isinstance(harmonic_dim(3, 2), int)


def test_harmonic_dim_rejects_degree_zero():
    with pytest.raises(ValueError):
        harmonic_dim(2, 0)
    with pytest.raises(ValueError):
        harmonic_dim(0, 1)


def test_harmonic_dim_positive():
    for d in (1, 2, 3, 4, 7):
        for k in range(1, 15):
            assert harmonic_dim(d, k) > 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_harmonic_dims_sum_matches_polynomial_rank(d):
    # rank of the monomial evaluation matrix on random points equals the
    # dimension of degree-<=n polynomials on S^d: 1 + sum_k dim_k
    from designforge.verifier import monomial_exponents

    n = 10 if d <= 2 else 8
    rng = np.random.default_rng(42)
    expected = 1 + sum(harmonic_dim(d, k) for k in range(1, n + 1))
    pts = rng.standard_normal((expected + 60, d + 1))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    cols = []
    for a in monomial_exponents(d, n, 0):
        col = np.ones(pts.shape[0])
        for c, e in enumerate(a):
            if e:
                col = col * pts[:, c] ** e
        cols.append(col)
    A = np.column_stack(cols)
    assert np.linalg.matrix_rank(A, tol=1e-8 * max(A.shape)) == expected


def orthogonality_residual(alpha, m, n, grid_size=256):
    """|quadrature of C_m C_n against (1-t^2)^(alpha-1/2) minus closed form|.

    Gauss-Jacobi quadrature with `grid_size` nodes integrates the product
    exactly once 2*grid_size - 1 >= m + n.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    nodes, weights = roots_jacobi(grid_size, alpha - 0.5, alpha - 0.5)
    fm = _at_one(alpha, m) * _gegenbauer(alpha, m, nodes)
    fn = fm if m == n else _at_one(alpha, n) * _gegenbauer(alpha, n, nodes)
    numeric = float(np.dot(weights, fm * fn))
    return abs(numeric - _orthogonality_constant(alpha, m, n))


def _orthogonality_constant(alpha, m, n):
    if m != n:
        return 0.0
    if alpha == 0.0:
        # renormalized (2/k) T_k: integral of (2/m)^2 T_m^2 / sqrt(1-t^2)
        return math.pi if m == 0 else 2.0 * math.pi / m**2
    if m == 0:
        # B(1/2, alpha+1/2)
        return math.exp(math.lgamma(0.5) + math.lgamma(alpha + 0.5) - math.lgamma(alpha + 1.0))
    log_c = (
        math.log(math.pi)
        + (1.0 - 2.0 * alpha) * math.log(2.0)
        + math.lgamma(m + 2.0 * alpha)
        - math.lgamma(m + 1.0)
        - math.log(alpha + m)
        - 2.0 * math.lgamma(alpha)
    )
    return math.exp(log_c)


def test_orthogonality_residuals():
    assert orthogonality_residual(0.5, 1, 2) <= 1e-10
    # <P_1, P_1> with weight 1: integral t^2 dt = 2/3; same as the closed constant
    assert orthogonality_residual(0.5, 1, 1) <= 1e-10
    # alpha = 1, m = n = 0: integral sqrt(1-t^2) dt = pi/2
    assert orthogonality_residual(1.0, 0, 0) <= 1e-10


def test_orthogonality_closed_constants_match_brute_force():
    assert _orthogonality_constant(0.5, 1, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert _orthogonality_constant(1.0, 0, 0) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_orthogonality_grid_size_validation():
    with pytest.raises(ValueError):
        orthogonality_residual(0.5, 1, 1, grid_size=32)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.5, 4.5])
def test_generator_matches_scipy(alpha):
    # an oracle outside the package: scipy's C_k^alpha / C_k^alpha(1), and T_k at alpha = 0
    from scipy.special import eval_chebyt, eval_gegenbauer

    t = np.concatenate([np.linspace(-1.0, 1.0, 201), [-0.999999, 0.123456789]])
    for k, term in enumerate(gegenbauer_terms(alpha, 30, t)):
        if alpha == 0.0:
            ref = eval_chebyt(k, t)
        else:
            ref = eval_gegenbauer(k, alpha, t) / eval_gegenbauer(k, alpha, 1.0)
        assert np.max(np.abs(term - ref)) <= 1e-12, (alpha, k)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 5.5])
def test_generator_is_bitwise_the_textbook_recurrence(alpha):
    # the in-place steps keep the one-line expression's rounding order
    t = np.concatenate([np.linspace(-1.0, 1.0, 301), [-0.999999, 0.123456789]])
    expected = [np.ones_like(t), t]
    for k in range(2, 41):
        prev, cur = expected[-2], expected[-1]
        expected.append(t * cur + (k - 1.0) / (k + 2.0 * alpha - 1.0) * (t * cur - prev))
    kept, copies = [], []
    for term in gegenbauer_terms(alpha, 40, t):
        kept.append(term)
        copies.append(term.copy())
    assert len(kept) == 41 and kept[1] is t
    for k, (term, copy, ref) in enumerate(zip(kept, copies, expected)):
        assert np.array_equal(copy, ref), (alpha, k)
        # still intact once the generator is exhausted: no buffer is reused
        assert np.array_equal(term, copy), (alpha, k)
    assert len({id(term) for term in kept}) == 41


# the arguments of the series tests: a grid on [-1, 1], both ends, and
# points crowded near +-1, where the recurrences lose the most
SERIES_T = np.concatenate([
    np.linspace(-1.0, 1.0, 201),
    np.cos(np.geomspace(1e-8, 0.1, 40)),
    -np.cos(np.geomspace(1e-8, 0.1, 40)),
])


def _series_tolerance(n):
    """1e-14, or n^2 eps / 16 above n = 26.  Near t = +-1 Clenshaw's sum
    loses up to about n^2 eps / 50 (1.9e-13 at n = 200, alpha = 0, where the
    forward sum is good to 1e-16); away from them both routes agree to a
    few 1e-15 even at n = 200."""
    return max(1e-14, n * n * np.finfo(float).eps / 16.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.5, 17.0, 1260.5])
@pytest.mark.parametrize("n", [0, 1, 2, 30, 200])
def test_series_is_the_sum_over_the_terms(alpha, n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        c = rng.standard_normal(n + 1)
        ref = sum(ck * P for ck, P in zip(c, gegenbauer_terms(alpha, n, SERIES_T)))
        got = gegenbauer_series(alpha, c, SERIES_T)
        assert got.shape == SERIES_T.shape
        err = np.max(np.abs(got - ref))
        assert err <= _series_tolerance(n) * np.sum(np.abs(c)), (alpha, n, err)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.5, 17.0, 1260.5])
@pytest.mark.parametrize("n", [0, 1, 2, 30, 200])
def test_series_matches_scipy(alpha, n):
    # P_k = C_k / C_k(1) from scipy, and T_k at alpha = 0; at alpha = 1260.5
    # scipy's C_k(1) overflows above some k, and the series stops there
    from scipy.special import eval_chebyt, eval_gegenbauer

    k = np.arange(n + 1)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if alpha == 0.0:
            P = eval_chebyt(k, SERIES_T)
        else:
            P = eval_gegenbauer(k, alpha, SERIES_T) / eval_gegenbauer(k, alpha, 1.0)
    finite = np.all(np.isfinite(P), axis=1)
    m = int(np.argmin(finite)) if not finite.all() else n + 1
    assert m >= min(n + 1, 31)
    c = np.random.default_rng(n + 1).standard_normal(m)
    err = np.max(np.abs(gegenbauer_series(alpha, c, SERIES_T) - c @ P[:m]))
    assert err <= _series_tolerance(n) * np.sum(np.abs(c)), (alpha, n, m, err)


@pytest.mark.parametrize("alpha", [0.0, 1.5, 17.0])
def test_series_with_a_coefficient_column_per_column_of_t(alpha):
    rng = np.random.default_rng(5)
    n, M = 12, 7
    t = np.clip(rng.uniform(-1.0, 1.0, (33, M)), -1.0, 1.0)
    t_before = t.copy()
    C = rng.standard_normal((n + 1, M))
    got = gegenbauer_series(alpha, C, t)
    assert got.shape == (33, M)
    for j in range(M):
        # each column runs the same elementwise steps as a series of its own
        assert np.array_equal(got[:, j], gegenbauer_series(alpha, C[:, j], t[:, j])), j
        ref = sum(ck * P for ck, P in zip(C[:, j], gegenbauer_terms(alpha, n, t[:, j])))
        assert np.max(np.abs(got[:, j] - ref)) <= 1e-14 * np.sum(np.abs(C[:, j])), j
    # one coefficient per degree broadcasts over a 2-D t
    c = C[:, 0]
    got = gegenbauer_series(alpha, c, t)
    assert np.array_equal(got[:, 3], gegenbauer_series(alpha, c, t[:, 3]))
    assert np.array_equal(t, t_before)


def test_empty_series_is_zero():
    from designforge.kernel import _eval_shifted, make_kernel

    t = np.linspace(-1.0, 1.0, 9)
    for alpha in (0.0, 0.5, 2.0):
        assert np.array_equal(gegenbauer_series(alpha, np.empty(0), t), np.zeros(9))
        assert np.array_equal(gegenbauer_series(alpha, np.empty((0, 9)), t[:, None]),
                              np.zeros((9, 9)))
    # g'' at n = 1 has no term: the kernel's shifted series is this empty sum
    for d in (1, 2, 3, 4):
        assert np.array_equal(_eval_shifted(make_kernel(d, 1), t, 2),
                              gegenbauer_series((d + 1) / 2.0, np.empty(0), t))


_GAUSS_ALPHAS = [0.5, 1.0, 1.5, 2.5]
_GAUSS_SIZES = [1, 2, 7, 31, 100, 500, 1000]


@pytest.mark.parametrize("alpha", _GAUSS_ALPHAS)
@pytest.mark.parametrize("n", _GAUSS_SIZES)
def test_gauss_nodes_match_scipy(alpha, n):
    # scipy's Golub-Welsch nodes, polished by Newton, are the oracle; a Newton
    # stopped early (a fixed 4 steps on P_n missed alpha = 2.5, n = 31 by
    # 1.4e-12) fails here
    from scipy.special import roots_gegenbauer

    t, w = gauss_gegenbauer(n, alpha)
    assert t.shape == w.shape == (n,)
    assert np.all(np.diff(t) > 0.0)
    assert np.max(np.abs(t - roots_gegenbauer(n, alpha)[0])) <= 4e-16


@pytest.mark.parametrize("alpha", _GAUSS_ALPHAS)
@pytest.mark.parametrize("n", _GAUSS_SIZES)
def test_gauss_weights_match_mpmath(alpha, n):
    # 30-digit Christoffel numbers at the two ends, where weights formed
    # from 1 - t^2 or from P_{n-1} at a rounded t lose 1e-9 and more at
    # n = 1000, and across the middle
    t, w = gauss_gegenbauer(n, alpha)
    assert math.fsum(w) == pytest.approx(1.0, abs=4e-16)
    assert np.array_equal(w, w[::-1]) and np.array_equal(t, -t[::-1])
    indices = sorted({0, 1, 2, n // 3, n // 2, n - 2, n - 1} & set(range(n)))
    _, exact = gauss_gegenbauer_mp(n, alpha, t, indices)
    rel = [abs(w[i] / float(e) - 1.0) for i, e in zip(indices, exact)]
    assert max(rel) <= 1e-13, rel


def test_gauss_rule_refuses_where_newton_misses_zeros():
    # at alpha = 16 the start next to the pole is off by more than Newton
    # recovers from: a rule with a repeated or missing zero must not come back
    from scipy.special import roots_gegenbauer

    t, _ = gauss_gegenbauer(60, 15.5)
    assert np.max(np.abs(t - roots_gegenbauer(60, 15.5)[0])) <= 4e-16
    with pytest.raises(ArithmeticError):
        gauss_gegenbauer(9, 16.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
def test_gauss_rule_is_exact_to_degree_2n_minus_1(alpha):
    # sum_i w_i P_k(t_i) = 0 for 1 <= k <= 2n - 1, and P_2n is not integrated
    n = 12
    t, w = gauss_gegenbauer(n, alpha)
    sums = [float(term @ w) for term in gegenbauer_terms(alpha, 2 * n, t)]
    assert sums[0] == pytest.approx(1.0, abs=1e-15)
    assert max(abs(v) for v in sums[1:2 * n]) <= 1e-15
    assert abs(sums[2 * n]) > 1e-6

