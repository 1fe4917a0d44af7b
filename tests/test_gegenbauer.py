import math

import numpy as np
import pytest

from designforge.gegenbauer import (
    derivative_at_one_exact,
    gegenbauer_at_one,
    gegenbauer_at_one_exact,
    gegenbauer_derivative,
    gegenbauer_eval,
    gegenbauer_terms,
    harmonic_dim,
    orthogonality_residual,
    renormalization,
)


def test_eval_degree_one_is_2_alpha_t():
    assert gegenbauer_eval(1.0, 1, 0.3) == pytest.approx(0.6, abs=1e-15)


def test_eval_matches_legendre_p2():
    # P_2(t) = (3t^2 - 1)/2 at t = 0.5
    assert gegenbauer_eval(0.5, 2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_value_at_one_binomial():
    # C(2*1.5 + 3 - 1, 3) = C(5, 3) = 10
    assert gegenbauer_eval(1.5, 3, 1.0) == pytest.approx(10.0, rel=1e-13)
    assert gegenbauer_at_one(1.5, 3) == pytest.approx(10.0, rel=1e-15)


def test_at_one_legendre_is_one():
    for k in (0, 1, 2, 5, 17, 60):
        assert gegenbauer_at_one(0.5, k) == pytest.approx(1.0, rel=1e-13)


def test_at_one_alpha1():
    assert gegenbauer_at_one(1.0, 4) == pytest.approx(5.0, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 4.5])
def test_recurrence_matches_closed_form_at_one(alpha):
    for k in range(61):
        closed = gegenbauer_at_one(alpha, k)
        assert gegenbauer_eval(alpha, k, 1.0) == pytest.approx(closed, rel=1e-11)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_bounded_by_value_at_one(alpha):
    grid = np.linspace(-1.0, 1.0, 1001)
    for k in (1, 2, 5, 12, 20):
        vals = gegenbauer_eval(alpha, k, grid)
        assert np.max(np.abs(vals)) <= gegenbauer_at_one(alpha, k) * (1 + 1e-12)


def test_derivative_legendre_at_one():
    # P_2'(1) = 3
    assert gegenbauer_derivative(0.5, 2, 1.0, 1) == pytest.approx(3.0, rel=1e-14)


def test_derivative_of_constant_is_zero():
    for alpha in (0.0, 0.5, 2.0):
        assert gegenbauer_derivative(alpha, 0, 0.7, 1) == 0.0


def test_derivative_against_finite_difference():
    h = 1e-5
    fd = (gegenbauer_eval(0.5, 3, 0.2 + h) - gegenbauer_eval(0.5, 3, 0.2 - h)) / (2 * h)
    exact = gegenbauer_derivative(0.5, 3, 0.2, 1)
    assert exact == pytest.approx(fd, rel=1e-8)


def _central_difference(alpha, k, t, order, h):
    if order == 1:
        return (gegenbauer_eval(alpha, k, t + h)
                - gegenbauer_eval(alpha, k, t - h)) / (2 * h)
    return (gegenbauer_eval(alpha, k, t + h) - 2 * gegenbauer_eval(alpha, k, t)
            + gegenbauer_eval(alpha, k, t - h)) / h**2


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
            exact = gegenbauer_derivative(alpha, k, t, order)
            scale = max(abs(exact), 1.0)
            assert abs(exact - fd) <= 1e-7 * scale


def test_derivative_order_validation():
    with pytest.raises(ValueError):
        gegenbauer_derivative(0.5, 3, 0.2, 3)


def test_domain_validation():
    with pytest.raises(ValueError):
        gegenbauer_eval(0.5, 2, 1.1)
    # rounding drift inside the 1e-12 slack is clamped, not rejected
    assert gegenbauer_eval(0.5, 2, 1.0 + 1e-13) == pytest.approx(1.0)


def test_degree_cap():
    with pytest.raises(ValueError):
        gegenbauer_eval(0.5, 201, 0.5)


def test_negative_alpha_unsupported():
    with pytest.raises(ValueError):
        gegenbauer_eval(-0.25, 2, 0.5)


def test_alpha_zero_chebyshev_limit():
    # renormalized circle convention: C_k^0 = (2/k) T_k
    for k in (1, 2, 5, 9):
        assert gegenbauer_at_one(0.0, k) == pytest.approx(2.0 / k, rel=1e-15)
        theta = 0.7
        expected = (2.0 / k) * math.cos(k * theta)
        assert gegenbauer_eval(0.0, k, math.cos(theta)) == pytest.approx(expected, abs=1e-13)


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


def test_orthogonality_residuals():
    assert orthogonality_residual(0.5, 1, 2) <= 1e-10
    # <P_1, P_1> with weight 1: integral t^2 dt = 2/3; same as the closed constant
    assert orthogonality_residual(0.5, 1, 1) <= 1e-10
    # alpha = 1, m = n = 0: integral sqrt(1-t^2) dt = pi/2
    assert orthogonality_residual(1.0, 0, 0) <= 1e-10


def test_orthogonality_closed_constants_match_brute_force():
    from designforge.gegenbauer import _orthogonality_constant

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
        scale = gegenbauer_at_one(alpha, k)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * scale, (alpha, k)
        assert np.array_equal(ours, gegenbauer_eval(alpha, k, t))


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
