import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from designforge.kernel import (
    Configuration,
    _energy_raw,
    _gradient_raw,
    design_residual,
    energy,
    energy_rule_size,
    energy_by_degree,
    energy_gradient,
    gp1_closed_form,
    gw_d1,
    gw_d2,
    gw_eval,
    hessian_step_bound,
    kernel_poly_eval,
    kernel_poly_norm,
    make_kernel,
)
from designforge.solver import solve
from designforge.sphere import geodesic_step, random_point, tangent_project
from designforge.verifier import sphere_quadrature_grid
from exact_designs import (
    cross_polytope,
    e8_roots,
    icosahedron,
    octahedron,
    polygon,
    six_hundred_cell,
    twenty_four_cell,
    unit_rows,
)

TETRA = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / math.sqrt(3.0)


def _random_config(spec, N, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, spec.d + 1))
    X /= np.linalg.norm(X, axis=1)[:, None]
    return Configuration(spec, X)


def test_make_kernel_d2_n1_constants():
    s = make_kernel(2, 1)
    assert s.lam[0] == pytest.approx(1.5, rel=1e-15)
    assert s.g1 == pytest.approx(1.5, rel=1e-15)
    assert s.gp1 == pytest.approx(1.5, rel=1e-15)
    assert s.gpp1 == 0.0


def test_make_kernel_d2_n2_constants():
    s = make_kernel(2, 2)
    assert s.gp1 == pytest.approx(4.0, rel=1e-15)
    assert s.gpp1 == pytest.approx(2.5, rel=1e-15)


def test_make_kernel_invariants():
    for d in (1, 2, 3, 4):
        for n in (1, 3, 9):
            s = make_kernel(d, n)
            assert np.all(s.lam > 0.0)
            assert s.g1 == pytest.approx(float(np.sum(s.dims / s.weights)), rel=1e-14)
            assert s.gpp1 < n**2 * s.gp1


def test_make_kernel_validation():
    with pytest.raises(ValueError):
        make_kernel(2, 0)
    with pytest.raises(ValueError):
        make_kernel(2, 201)
    with pytest.raises(ValueError):
        make_kernel(0, 3)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gp1_matches_closed_sum(d):
    for n in (1, 5, 17, 40):
        s = make_kernel(d, n)
        assert s.gp1 == pytest.approx(gp1_closed_form(d, n), rel=1e-10)


def test_gw_eval_single_term_kernel():
    s = make_kernel(2, 1)
    for t in (-1.0, 0.0, 0.5, 1.0):
        assert gw_eval(s, t) == pytest.approx(1.5 * t, abs=1e-15)


def test_gw_eval_direct_sum_cross_check():
    from designforge.gegenbauer import gegenbauer_eval

    for d, n in ((1, 6), (2, 5), (3, 4)):
        s = make_kernel(d, n)
        alpha = (d - 1) / 2.0
        for t in (-0.8, -0.1, 0.33, 0.9):
            direct = sum(
                s.lam[k - 1] * gegenbauer_eval(alpha, k, t) for k in range(1, n + 1)
            )
            assert gw_eval(s, t) == pytest.approx(direct, rel=1e-12)


def test_gw_mean_zero_over_sphere():
    pts, w = sphere_quadrature_grid(2, 40_000)
    s = make_kernel(2, 4)
    # fixed north pole: the zonal slice integrates to zero
    vals = gw_eval(s, pts[:, 2])
    assert abs(float(w @ vals)) <= 1e-9


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gw_derivative_extremal_at_one(d):
    grid = np.linspace(-1.0, 1.0, 2001)
    for n in (2, 7, 20):
        s = make_kernel(d, n)
        dv = gw_d1(s, grid)
        assert int(np.argmax(np.abs(dv))) == 2000
        vals = gw_eval(s, grid)
        assert int(np.argmax(np.abs(vals))) == 2000
        assert gw_d1(s, 1.0) == pytest.approx(s.gp1, rel=1e-12)
        assert gw_d2(s, 1.0) == pytest.approx(s.gpp1, rel=1e-12)


def test_gw_domain_error():
    s = make_kernel(2, 2)
    with pytest.raises(ValueError):
        gw_eval(s, 1.01)


def test_energy_antipodal_pair_is_exact_design():
    s = make_kernel(2, 1)
    c = Configuration(s, np.array([[0.0, 0, 1], [0.0, 0, -1]]))
    assert energy(c) == 0.0


def test_energy_single_point():
    s = make_kernel(2, 1)
    c = Configuration(s, np.array([[0.0, 0, 1]]))
    assert energy(c) == pytest.approx(1.5, rel=1e-15)
    assert design_residual(c) == pytest.approx(math.sqrt(1.5), rel=1e-15)


def test_energy_tetrahedron_is_2_design():
    s = make_kernel(2, 2)
    c = Configuration(s, TETRA)
    assert abs(_energy_raw(s, c.coords)) <= 1e-14
    assert design_residual(c) <= 1e-7


def test_energy_empty_rejected():
    s = make_kernel(2, 2)
    with pytest.raises(ValueError):
        Configuration(s, np.zeros((0, 3)))


def test_configuration_rejects_non_finite_and_off_tolerance_rows():
    s = make_kernel(2, 2)
    for bad in (np.full((4, 3), np.nan), TETRA * (1.0 + 1e-11)):
        with pytest.raises(ValueError):
            Configuration(s, bad)


def test_energy_by_degree_tetrahedron():
    s = make_kernel(2, 3)
    parts = energy_by_degree(Configuration(s, TETRA))
    assert abs(parts[0]) <= 1e-14
    assert abs(parts[1]) <= 1e-14
    assert parts[2] == pytest.approx(560.0 / 1728.0, rel=1e-12)


def test_energy_by_degree_antipodal():
    s = make_kernel(2, 2)
    c = Configuration(s, np.array([[0.0, 0, 1], [0.0, 0, -1]]))
    parts = energy_by_degree(c)
    assert abs(parts[0]) <= 1e-15
    assert parts[1] == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_energy_by_degree_single_point():
    from designforge.gegenbauer import gegenbauer_at_one

    for d, n in ((1, 4), (2, 4), (3, 3)):
        s = make_kernel(d, n)
        x = np.zeros((1, d + 1))
        x[0, -1] = 1.0
        parts = energy_by_degree(Configuration(s, x))
        alpha = (d - 1) / 2.0
        for k in range(1, n + 1):
            expected = s.lam[k - 1] * gegenbauer_at_one(alpha, k)
            assert parts[k - 1] == pytest.approx(expected, rel=1e-12)
            assert parts[k - 1] > 0.0


def test_energy_by_degree_properties_random():
    for seed in range(30):
        d = 1 + seed % 3
        n = 2 + seed % 5
        s = make_kernel(d, n)
        c = _random_config(s, 5 + seed % 20, seed)
        parts = energy_by_degree(c)
        assert np.all(parts >= -1e-12)
        total = energy(c)
        assert float(parts.sum()) == pytest.approx(total, rel=1e-12, abs=1e-13)


def test_energy_rotation_invariance():
    rng = np.random.default_rng(21)
    s = make_kernel(2, 4)
    c = _random_config(s, 15, 5)
    e0 = energy(c)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        e1 = energy(Configuration(s, c.coords @ q.T))
        assert abs(e1 - e0) <= 1e-10 * (1.0 + e0)


def test_gradient_two_point_example():
    s = make_kernel(2, 1)
    c = Configuration(s, np.array([[1.0, 0, 0], [0.0, 1, 0]]))
    grads = energy_gradient(c)
    assert np.allclose(grads[0].dir, [0.0, 0.75, 0.0], atol=1e-15)
    assert np.allclose(grads[1].dir, [0.75, 0.0, 0.0], atol=1e-15)


def test_gradient_vanishes_at_antipodal_design():
    s = make_kernel(2, 1)
    c = Configuration(s, np.array([[0.0, 0, 1], [0.0, 0, -1]]))
    for g in energy_gradient(c):
        assert np.allclose(g.dir, 0.0, atol=1e-15)


def test_gradient_rows_are_tangential():
    s = make_kernel(3, 4)
    c = _random_config(s, 12, 9)
    G = _gradient_raw(s, c.coords)
    resid = np.abs(np.einsum("ij,ij->i", G, c.coords))
    assert np.max(resid) <= 1e-15


@pytest.mark.parametrize("seed", range(8))
def test_gradient_matches_directional_finite_difference(seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 3
    n = 2 + seed % 6
    s = make_kernel(d, n)
    c = _random_config(s, 4 + seed, 100 + seed)
    grads = _gradient_raw(s, c.coords)
    i = int(rng.integers(c.N))
    u = tangent_project(c.points[i], rng.standard_normal(d + 1)).dir
    h = 1e-5

    def shifted(t):
        pts = np.array(c.coords)
        pts[i] = geodesic_step(c.points[i], tangent_project(c.points[i], u), t).coords
        return _energy_raw(s, pts)

    fd = (shifted(h) - shifted(-h)) / (2.0 * h)
    analytic = float(grads[i] @ u)
    assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_design_residual_cauchy_schwarz():
    rng = np.random.default_rng(31)
    s = make_kernel(2, 3)
    c = _random_config(s, 12, 77)
    resid = design_residual(c)
    for _ in range(100):
        Z = rng.standard_normal((6, 3))
        Z /= np.linalg.norm(Z, axis=1)[:, None]
        a = rng.standard_normal(6)
        avg = float(np.mean([kernel_poly_eval(s, Z, a, y) for y in c.coords]))
        norm = kernel_poly_norm(s, Z, a)
        assert abs(avg) <= resid * norm + 1e-12


def test_hessian_step_bound_values():
    assert hessian_step_bound(make_kernel(2, 2)) == pytest.approx(math.sqrt(11.5), rel=1e-14)
    assert hessian_step_bound(make_kernel(2, 1)) == pytest.approx(math.sqrt(1.5), rel=1e-14)


def test_hessian_bound_growth_is_stable():
    ratios = [
        hessian_step_bound(make_kernel(2, n)) / n**2 for n in range(4, 41)
    ]
    assert max(ratios) / min(ratios) <= 2.0


def test_kernel_poly_eval_zero_coeffs():
    s = make_kernel(2, 2)
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((4, 3))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    y = random_point(2, rng)
    assert kernel_poly_eval(s, Z, np.zeros(4), y) == 0.0


def test_kernel_poly_eval_diagonal():
    s = make_kernel(2, 3)
    z = np.array([[0.0, 0, 1]])
    assert kernel_poly_eval(s, z, [1.0], z[0]) == pytest.approx(s.g1, rel=1e-14)


def test_kernel_poly_reproducing_identity():
    rng = np.random.default_rng(55)
    s = make_kernel(2, 4)
    for _ in range(10):
        Z = rng.standard_normal((5, 3))
        Z /= np.linalg.norm(Z, axis=1)[:, None]
        a = rng.standard_normal(5)
        y = random_point(2, rng)
        # <G_y, P> via the Gram identity is the pointwise value at y
        gram_route = float(a @ gw_eval(s, np.clip(Z @ y.coords, -1, 1)))
        assert kernel_poly_eval(s, Z, a, y) == pytest.approx(gram_route, rel=1e-13)


def test_kernel_poly_length_mismatch():
    s = make_kernel(2, 2)
    with pytest.raises(ValueError):
        kernel_poly_eval(s, np.eye(3), [1.0, 2.0], np.array([0.0, 0, 1]))


def test_configuration_validation_and_cache():
    s = make_kernel(2, 2)
    with pytest.raises(ValueError):
        Configuration(s, np.array([[1.0, 1.0, 0.0]]))


def _explicit_gegenbauer(d, k, x):
    """C_k^alpha(x), alpha = (d-1)/2, from its power sum in 2x with exact
    rational coefficients, no recurrence; the renormalized (2/k) T_k at d = 1:
    sum_m (-1)^m (alpha)_(k-m) / (m! (k-2m)!) (2x)^(k-2m)."""
    total = mpmath.mpf(0)
    for m in range(k // 2 + 1):
        if d == 1:
            c = Fraction(math.factorial(k - m - 1), math.factorial(m) * math.factorial(k - 2 * m))
        else:
            rising = math.prod(Fraction(d - 1, 2) + j for j in range(k - m))
            c = rising / (math.factorial(m) * math.factorial(k - 2 * m))
        total += (-1) ** m * mpmath.mpf(c.numerator) / c.denominator * (2 * x) ** (k - 2 * m)
    return total


def _mpmath_gram_energy(spec, X):
    """(1/N^2) sum_ij g(<x_i, x_j>) in 200-bit arithmetic, rows renormalized."""
    with mpmath.workprec(200):
        P = [[mpmath.mpf(float(v)) for v in row] for row in X]
        P = [[v / mpmath.sqrt(mpmath.fsum(u * u for u in row)) for v in row] for row in P]
        lam = [mpmath.mpf(f.numerator) / f.denominator for f in spec._lam_exact]

        def g(t):
            return mpmath.fsum(lam_k * _explicit_gegenbauer(spec.d, k, t)
                               for k, lam_k in enumerate(lam, 1))

        N = len(P)
        off = mpmath.fsum(g(mpmath.fsum(a * b for a, b in zip(P[i], P[j])))
                          for i in range(N) for j in range(i + 1, N))
        return (N * g(mpmath.mpf(1)) + 2 * off) / N**2


# a float64 error dF in F_k enters E through 2 F_k dF, so beside the
# relative bound the energy may differ by about eps * sqrt(E)
def _assert_matches_oracle(got, exact):
    slack = 1e-13 * exact + 1e-15 * mpmath.sqrt(exact) + mpmath.mpf(1e-30)
    assert abs(mpmath.mpf(got) - exact) <= slack, (got, float(exact))


# d = 5 at n = 6 and d = 6 at n = 3, 6 run on the sampled rule
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_energy_matches_mpmath_gram_sum_on_random_configs(d, n):
    spec = make_kernel(d, n)
    for N in (1, 2, 13):
        c = _random_config(spec, N, 10 * d + n + N)
        _assert_matches_oracle(_energy_raw(spec, c.coords), _mpmath_gram_energy(spec, c.coords))


@pytest.mark.parametrize("design,n", [
    (lambda: polygon(12), 6),
    (icosahedron, 5),
    (twenty_four_cell, 5),
    (lambda: cross_polytope(4), 3),
    (lambda: cross_polytope(8), 3),
    (lambda: cross_polytope(12), 2),
])
def test_energy_matches_mpmath_gram_sum_near_designs(design, n):
    X = design()
    spec = make_kernel(X.shape[1] - 1, n)
    rng = np.random.default_rng(n)
    for scale in (1e-10, 1e-6):
        Y = unit_rows(X + scale * rng.standard_normal(X.shape))
        exact = _mpmath_gram_energy(spec, Y)
        assert 1e-24 < exact < 1e-8
        _assert_matches_oracle(_energy_raw(spec, Y), exact)


def test_energy_rule_size():
    # the product rule wherever d <= 3 and n <= 30, so those energies are exact sums
    for d in (1, 2, 3):
        for n in range(1, 31):
            assert energy_rule_size(d, n) == ("product", (n + 1) ** (d - 1) * (2 * n + 1))
    assert energy_rule_size(1, 200) == ("product", 401)
    # the product rule would need 4**11 * 7 = 29 360 128 nodes here
    assert energy_rule_size(12, 3) == ("sampled", 884)
    assert energy_rule_size(8, 3) == ("sampled", 312)
    for d, n in [(7, 7), (12, 5)]:
        with pytest.raises(ValueError, match="no energy rule"):
            energy_rule_size(d, n)


def test_e8_roots_have_zero_energy_on_the_sampled_rule():
    X = e8_roots()
    assert energy_rule_size(7, 5)[0] == "sampled"
    assert 0.0 <= _energy_raw(make_kernel(7, 5), X) <= 1e-28
    assert np.all(energy_by_degree(Configuration(make_kernel(7, 5), X)) <= 1e-28)


EXACT_DESIGNS = [
    (lambda: polygon(12), 11),
    (octahedron, 3),
    (icosahedron, 5),
    (six_hundred_cell, 11),
    (lambda: cross_polytope(4), 3),
    (lambda: cross_polytope(5), 3),
    (lambda: cross_polytope(8), 3),
]


@pytest.mark.parametrize("design,strength", EXACT_DESIGNS)
def test_exact_designs_have_zero_energy_and_are_solver_fixed_points(design, strength):
    X = design()
    d = X.shape[1] - 1
    spec = make_kernel(d, strength)
    assert 0.0 <= _energy_raw(spec, X) <= 1e-28
    assert _energy_raw(make_kernel(d, strength + 1), X) > 1e-6
    final, report = solve(spec, Configuration(spec, X))
    assert report.terminated == "converged" and report.iterations == 0
    assert np.array_equal(final.coords, Configuration(spec, X).coords)
