import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from designforge.gegenbauer import (
    clamp_unit,
    derivative_at_one_exact,
    gegenbauer_at_one_exact,
    gegenbauer_terms,
    harmonic_dim,
    renormalization,
    shift_factor,
)


def _gegenbauer(alpha, k, t):
    """C_k^alpha(t): the last term of `gegenbauer_terms`, renormalized at alpha = 0."""
    for term in gegenbauer_terms(alpha, k, np.atleast_1d(np.asarray(t, dtype=float))):
        pass
    out = renormalization(alpha, k) * term
    return float(out[0]) if np.ndim(t) == 0 else out


def _at_one(alpha, k):
    return float(gegenbauer_at_one_exact(2 * alpha, k))


def test_eval_degree_one_is_2_alpha_t():
    assert _gegenbauer(1.0, 1, 0.3) == pytest.approx(0.6, abs=1e-15)


def test_eval_matches_legendre_p2():
    # P_2(t) = (3t^2 - 1)/2 at t = 0.5
    assert _gegenbauer(0.5, 2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_value_at_one_binomial():
    # C(2*1.5 + 3 - 1, 3) = C(5, 3) = 10
    assert _gegenbauer(1.5, 3, 1.0) == pytest.approx(10.0, rel=1e-13)
    assert _at_one(1.5, 3) == 10.0


def test_at_one_legendre_is_one():
    for k in (0, 1, 2, 5, 17, 60):
        assert _at_one(0.5, k) == 1.0


def test_at_one_alpha1():
    assert _at_one(1.0, 4) == 5.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 4.5])
def test_recurrence_matches_closed_form_at_one(alpha):
    for k, term in enumerate(gegenbauer_terms(alpha, 60, np.ones(1))):
        assert term[0] == pytest.approx(_at_one(alpha, k), rel=1e-11), k


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_bounded_by_value_at_one(alpha):
    grid = np.linspace(-1.0, 1.0, 1001)
    for k in (1, 2, 5, 12, 20):
        vals = _gegenbauer(alpha, k, grid)
        assert np.max(np.abs(vals)) <= _at_one(alpha, k) * (1 + 1e-12)


def _derivative(alpha, k, t, order):
    """The index shift d^r/dt^r C_k^alpha = shift_factor(alpha, r) C_{k-r}^{alpha+r},
    which the kernel's gradient and g' rely on."""
    return shift_factor(alpha, order) * _gegenbauer(alpha + order, k - order, t)


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


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_identities_fd_sweep(alpha, order):
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
    # renormalized circle convention: C_k^0 = (2/k) T_k
    for k in (1, 2, 5, 9):
        assert _at_one(0.0, k) == pytest.approx(2.0 / k, rel=1e-15)
        theta = 0.7
        expected = (2.0 / k) * math.cos(k * theta)
        assert _gegenbauer(0.0, k, math.cos(theta)) == pytest.approx(expected, abs=1e-13)


def test_exact_at_one_and_derivatives():
    assert gegenbauer_at_one_exact(2, 3) == 4  # C_3^1(1) = C(4, 3)
    assert derivative_at_one_exact(2, 2, 1) == 3  # P_2'(1)
    assert derivative_at_one_exact(2, 2, 2) == 3  # P_2''(1)
    assert derivative_at_one_exact(1, 4, 1) == 8  # circle: d/dt (2/4)T_4 at 1 = 2k


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
    fm = _gegenbauer(alpha, m, nodes)
    fn = fm if m == n else _gegenbauer(alpha, n, nodes)
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
    # an oracle outside the package: scipy's C_k^alpha, and (2/k) T_k at alpha = 0
    from scipy.special import eval_chebyt, eval_gegenbauer

    t = np.concatenate([np.linspace(-1.0, 1.0, 201), [-0.999999, 0.123456789]])
    for k, term in enumerate(gegenbauer_terms(alpha, 30, t)):
        ours = renormalization(alpha, k) * term
        if alpha == 0.0:
            ref = eval_chebyt(k, t) * (2.0 / k if k else 1.0)
        else:
            ref = eval_gegenbauer(k, alpha, t)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * _at_one(alpha, k), (alpha, k)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 5.5])
def test_generator_is_bitwise_the_textbook_recurrence(alpha):
    # the in-place steps keep the one-line expression's rounding order
    t = np.concatenate([np.linspace(-1.0, 1.0, 301), [-0.999999, 0.123456789]])
    expected = [np.ones_like(t), t if alpha == 0.0 else 2.0 * alpha * t]
    for k in range(2, 41):
        prev, cur = expected[-2], expected[-1]
        if alpha == 0.0:
            expected.append(2.0 * t * cur - prev)
        else:
            expected.append((2.0 * (k + alpha - 1.0) * t * cur - (k + 2.0 * alpha - 2.0) * prev) / k)
    kept, copies = [], []
    for term in gegenbauer_terms(alpha, 40, t):
        kept.append(term)
        copies.append(term.copy())
    assert len(kept) == 41
    for k, (term, copy, ref) in enumerate(zip(kept, copies, expected)):
        assert np.array_equal(copy, ref), (alpha, k)
        # still intact once the generator is exhausted: no buffer is reused
        assert np.array_equal(term, copy), (alpha, k)
    assert len({id(term) for term in kept}) == 41
