import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from designforge import kernel
from designforge.gegenbauer import gegenbauer_at_one_exact, gegenbauer_terms, harmonic_dim
from designforge.kernel import (
    Configuration,
    _energy_raw,
    _energy_rule,
    _eval_shifted,
    _fields,
    _gradient_raw,
    _jacobian_raw,
    _residual_raw,
    design_residual,
    energy_rule_size,
    gw_d1,
    gw_eval,
    hessian_step_bound,
    make_kernel,
)
from designforge.solver import solve
from designforge.sphere import _geodesic_rows, tangent_rows
from designforge.verifier import sphere_quadrature_grid
from exact_designs import (
    cross_polytope,
    cube,
    e8_roots,
    icosahedron,
    octahedron,
    polygon,
    six_hundred_cell,
    twenty_four_cell,
    unit_rows,
)
from oracles import fields_column_sums, gp1_closed_form, gradient_forward, kernel_lambda

TETRA = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / math.sqrt(3.0)


def _random_rows(spec, N, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, spec.d + 1))
    X /= np.linalg.norm(X, axis=1)[:, None]
    return X


def _degree_energies(spec, X):
    """E_1..E_n of the rows of X: the squared norms |r_k|^2 of their residual."""
    return np.array([r_k @ r_k for r_k in _residual_raw(spec, _fields(spec, X))])


def test_make_kernel_d2_n1_constants():
    s = make_kernel(2, 1)
    assert [c[0] for c in s.series] == [1.5, 1.5, 0.0]
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
            assert np.all(s.series[0] > 0.0) and np.all(s.series[1] > 0.0)
            assert s.series[2][0] == 0.0 and np.all(s.series[2][1:] > 0.0)
            assert s.g1 == pytest.approx(float(np.sum(s.dims / s.weights)), rel=1e-14)
            assert s.gpp1 < n**2 * s.gp1


def test_make_kernel_validation():
    with pytest.raises(ValueError):
        make_kernel(2, 0)
    with pytest.raises(ValueError):
        make_kernel(2, 201)
    with pytest.raises(ValueError):
        make_kernel(0, 3)
    # at n = 200, g''(1) fits a float64 up to d = 2536, but 3 g''(1) + g'(1)
    # under the Hessian bound only up to d = 2521
    assert math.isfinite(hessian_step_bound(make_kernel(2521, 200)))
    for d in (2522, 2537):
        with pytest.raises(ValueError, match="do not fit a float64"):
            make_kernel(d, 200)


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
    # an oracle outside the package: scipy's C_k^alpha, and the renormalized
    # limit (2/k) cos(k arccos t) at alpha = 0, where scipy gives 0
    from scipy.special import eval_gegenbauer

    for d, n in ((1, 6), (2, 5), (3, 4)):
        s = make_kernel(d, n)
        alpha = (d - 1) / 2.0
        for t in (-0.8, -0.1, 0.33, 0.9):
            direct = sum(
                float(kernel_lambda(d, k)) * (eval_gegenbauer(k, alpha, t) if alpha > 0
                                              else (2.0 / k) * math.cos(k * math.acos(t)))
                for k in range(1, n + 1)
            )
            assert gw_eval(s, t) == pytest.approx(direct, rel=1e-12)


def test_gw_mean_zero_over_sphere():
    pts, w = sphere_quadrature_grid(2, 40_000)
    s = make_kernel(2, 4)
    # fixed north pole: the zonal slice integrates to zero
    vals = gw_eval(s, pts[:, 2])
    assert abs(float(w @ vals)) <= 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_gw_derivative_extremal_at_one(d):
    grid = np.linspace(-1.0, 1.0, 2001)
    for n in (2, 7, 20, 60, 200):
        s = make_kernel(d, n)
        dv = gw_d1(s, grid)
        assert int(np.argmax(np.abs(dv))) == 2000
        vals = gw_eval(s, grid)
        assert int(np.argmax(np.abs(vals))) == 2000
        assert gw_d1(s, 1.0) == pytest.approx(s.gp1, rel=1e-12)
        assert _eval_shifted(s, 1.0, 2) == pytest.approx(s.gpp1, rel=1e-12)


def test_gw_domain_error():
    s = make_kernel(2, 2)
    with pytest.raises(ValueError):
        gw_eval(s, 1.01)


def test_energy_antipodal_pair_is_exact_design():
    s = make_kernel(2, 1)
    assert _energy_raw(s, np.array([[0.0, 0, 1], [0.0, 0, -1]])) == 0.0


def test_energy_single_point():
    s = make_kernel(2, 1)
    X = np.array([[0.0, 0, 1]])
    assert _energy_raw(s, X) == pytest.approx(1.5, rel=1e-15)
    assert design_residual(s, X) == pytest.approx(math.sqrt(1.5), rel=1e-15)


def test_energy_tetrahedron_is_2_design():
    s = make_kernel(2, 2)
    assert abs(_energy_raw(s, TETRA)) <= 1e-14
    assert design_residual(s, TETRA) <= 1e-7


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
    parts = _degree_energies(s, TETRA)
    assert abs(parts[0]) <= 1e-14
    assert abs(parts[1]) <= 1e-14
    assert parts[2] == pytest.approx(560.0 / 1728.0, rel=1e-12)


def test_energy_by_degree_antipodal():
    s = make_kernel(2, 2)
    X = np.array([[0.0, 0, 1], [0.0, 0, -1]])
    parts = _degree_energies(s, X)
    assert abs(parts[0]) <= 1e-15
    assert parts[1] == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_energy_by_degree_single_point():
    for d, n in ((1, 4), (2, 4), (3, 3)):
        s = make_kernel(d, n)
        x = np.zeros((1, d + 1))
        x[0, -1] = 1.0
        parts = _degree_energies(s, x)
        alpha = (d - 1) / 2.0
        for k in range(1, n + 1):
            expected = float(kernel_lambda(d, k) * gegenbauer_at_one_exact(d - 1, k))
            assert parts[k - 1] == pytest.approx(expected, rel=1e-12)
            assert parts[k - 1] > 0.0


def test_energy_by_degree_properties_random():
    for seed in range(30):
        d = 1 + seed % 3
        n = 2 + seed % 5
        s = make_kernel(d, n)
        X = _random_rows(s, 5 + seed % 20, seed)
        parts = _degree_energies(s, X)
        assert np.all(parts >= -1e-12)
        total = _energy_raw(s, X)
        assert float(parts.sum()) == pytest.approx(total, rel=1e-12, abs=1e-13)


def test_energy_rotation_invariance():
    rng = np.random.default_rng(21)
    s = make_kernel(2, 4)
    X = _random_rows(s, 15, 5)
    e0 = _energy_raw(s, X)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        e1 = _energy_raw(s, X @ q.T)
        assert abs(e1 - e0) <= 1e-10 * (1.0 + e0)


def test_gradient_two_point_example():
    s = make_kernel(2, 1)
    grads = _gradient_raw(s, np.array([[1.0, 0, 0], [0.0, 1, 0]]))
    assert grads.shape == (2, 3)
    assert np.allclose(grads[0], [0.0, 0.75, 0.0], atol=1e-15)
    assert np.allclose(grads[1], [0.75, 0.0, 0.0], atol=1e-15)


def test_gradient_vanishes_at_antipodal_design():
    s = make_kernel(2, 1)
    X = np.array([[0.0, 0, 1], [0.0, 0, -1]])
    assert np.allclose(_gradient_raw(s, X), 0.0, atol=1e-15)


def test_gradient_rows_are_tangential():
    s = make_kernel(3, 4)
    X = _random_rows(s, 12, 9)
    G = _gradient_raw(s, X)
    resid = np.abs(np.einsum("ij,ij->i", G, X))
    assert np.max(resid) <= 1e-15


@pytest.mark.parametrize("seed", range(8))
def test_gradient_matches_directional_finite_difference(seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 3
    n = 2 + seed % 6
    s = make_kernel(d, n)
    X = _random_rows(s, 4 + seed, 100 + seed)
    grads = _gradient_raw(s, X)
    i = int(rng.integers(X.shape[0]))
    x = X[i:i + 1]
    u = tangent_rows(x, rng.standard_normal((1, d + 1)))
    h = 1e-5

    def shifted(t):
        pts = np.array(X)
        pts[i] = _geodesic_rows(x, tangent_rows(x, u), t)[0]
        return _energy_raw(s, pts)

    fd = (shifted(h) - shifted(-h)) / (2.0 * h)
    analytic = float(grads[i] @ u[0])
    assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


def test_design_residual_cauchy_schwarz():
    rng = np.random.default_rng(31)
    s = make_kernel(2, 3)
    X = _random_rows(s, 12, 77)
    resid = design_residual(s, X)
    for _ in range(100):
        Z = rng.standard_normal((6, 3))
        Z /= np.linalg.norm(Z, axis=1)[:, None]
        a = rng.standard_normal(6)
        # P = sum_i a_i g(<z_i, .>): its mean over X, and its kernel-space
        # norm from the Gram matrix of the centers
        avg = float(np.mean(gw_eval(s, np.clip(X @ Z.T, -1.0, 1.0)) @ a))
        norm = math.sqrt(max(float(a @ gw_eval(s, np.clip(Z @ Z.T, -1.0, 1.0)) @ a), 0.0))
        assert abs(avg) <= resid * norm + 1e-12


def test_hessian_step_bound_values():
    assert hessian_step_bound(make_kernel(2, 2)) == pytest.approx(math.sqrt(11.5), rel=1e-14)
    assert hessian_step_bound(make_kernel(2, 1)) == pytest.approx(math.sqrt(1.5), rel=1e-14)


def test_hessian_bound_growth_is_stable():
    ratios = [
        hessian_step_bound(make_kernel(2, n)) / n**2 for n in range(4, 41)
    ]
    assert max(ratios) / min(ratios) <= 2.0


def test_configuration_validation_and_cache():
    s = make_kernel(2, 2)
    with pytest.raises(ValueError):
        Configuration(s, np.array([[1.0, 1.0, 0.0]]))


def test_configuration_keeps_its_rows_as_given():
    # rows within the unit tolerance are not renormalized, so the energy of
    # a configuration is the energy of the rows it was built from
    s = make_kernel(2, 3)
    X = _random_rows(s, 9, 4) * (1.0 + 4e-13)
    c = Configuration(s, X)
    assert np.array_equal(c.coords, X)
    assert _energy_raw(s, c.coords) == _energy_raw(s, X)
    assert design_residual(s, c.coords) == design_residual(s, X)
    # a read-only copy: neither a write through it nor one to X changes it
    with pytest.raises(ValueError):
        c.coords[0, 0] = 0.0
    X[0] = [0.0, 0.0, 1.0]
    assert not np.array_equal(c.coords[0], X[0])
    assert np.array_equal(c.with_coords(X).coords, X)


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
        lam = [mpmath.mpf(f.numerator) / f.denominator
               for f in map(kernel_lambda, [spec.d] * spec.n, range(1, spec.n + 1))]

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


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_energy_matches_mpmath_gram_sum_on_random_configs(d, n):
    spec = make_kernel(d, n)
    for N in (1, 2, 13):
        X = _random_rows(spec, N, 10 * d + n + N)
        _assert_matches_oracle(_energy_raw(spec, X), _mpmath_gram_energy(spec, X))


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
    # one zonal-span rule of 2 dim H_n nodes on every sphere
    for n in range(1, 201):
        assert energy_rule_size(1, n) == 4
        assert energy_rule_size(2, n) == 2 * (2 * n + 1)
    for n in range(1, 45):
        assert energy_rule_size(3, n) == 2 * (n + 1) ** 2
    assert energy_rule_size(8, 3) == 312
    assert energy_rule_size(12, 3) == 884
    for d, n in [(3, 45), (4, 17), (5, 11), (6, 8), (7, 7), (12, 5)]:
        with pytest.raises(ValueError, match="no energy rule"):
            energy_rule_size(d, n)


@pytest.mark.parametrize("d,n", [(1, 200), (2, 100), (3, 20), (8, 3), (12, 3)])
def test_zonal_span_rule_is_well_conditioned(d, n):
    # degree k <= n uses the first 2 dim H_k nodes of the (d, n) rule, so
    # these five rules cover every k <= n on their sphere
    Z, maps = _energy_rule(d, n)
    alpha = (d - 1) / 2.0
    terms = gegenbauer_terms(alpha, n, np.clip(Z @ Z.T, -1.0, 1.0))
    next(terms)
    for k, (P, B) in enumerate(zip(terms, maps), 1):
        h = harmonic_dim(d, k)
        G = P[:2 * h, :2 * h]
        lam = np.linalg.eigvalsh(G)
        kept, dropped = lam[-h:], lam[:-h]
        assert kept[-1] <= 50.0 * kept[0], (k, kept[-1] / kept[0])
        assert np.max(np.abs(dropped)) <= 1e-12 * kept[-1], k
        # B_k B_k^T is the pseudo-inverse of G on its range
        assert np.allclose(B.T @ G @ B, np.eye(h), atol=1e-10), k


def test_gradient_memory_is_linear_in_N():
    # a Gram-form gradient holds (N, N) arrays of 8 N^2 bytes each
    spec = make_kernel(2, 5)
    X = _random_rows(spec, 6000, 3)
    _energy_rule(2, 5)
    tracemalloc.start()
    try:
        _gradient_raw(spec, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 6000**2


def test_gradient_from_the_energy_fields_is_bitwise_the_same():
    # the solver hands each accepted point's residual from the energy call
    # to the next gradient instead of computing it again
    for d in range(1, 7):
        spec = make_kernel(d, 4)
        X = _random_rows(spec, 23, d)
        E, r = _energy_raw(spec, X, fields=True)
        assert E == _energy_raw(spec, X)
        assert np.array_equal(_gradient_raw(spec, X, r), _gradient_raw(spec, X)), d


def test_residual_has_one_coordinate_per_harmonic_and_squares_to_the_energy():
    for d in range(1, 7):
        spec = make_kernel(d, 4)
        X = _random_rows(spec, 23, d)
        r = _residual_raw(spec, _fields(spec, X))
        assert [len(r_k) for r_k in r] == [harmonic_dim(d, k) for k in range(1, 5)], d
        # below 8 degrees numpy's sum is the plain sum in degree order
        assert sum(r_k @ r_k for r_k in r) == _energy_raw(spec, X), d


@pytest.mark.parametrize("d, n, N", [(1, 9, 41), (2, 6, 50), (3, 4, 37)])
def test_node_blocks_do_not_change_energy_or_gradient(d, n, N, monkeypatch):
    spec = make_kernel(d, n)
    M = energy_rule_size(d, n)
    X = _random_rows(spec, N, 5)
    monkeypatch.setattr(kernel, "_BLOCK_DOUBLES", N * M)
    assert len(kernel._node_blocks(N, M)) == 1
    one = _energy_raw(spec, X), _gradient_raw(spec, X), _degree_energies(spec, X)
    # 3 nodes a block, with a shorter last block
    monkeypatch.setattr(kernel, "_BLOCK_DOUBLES", 3 * N)
    assert len(kernel._node_blocks(N, M)) > 1 and M % 3 != 0
    many = _energy_raw(spec, X), _gradient_raw(spec, X), _degree_energies(spec, X)
    assert many[0] == pytest.approx(one[0], rel=1e-14, abs=0.0)
    assert np.max(np.abs(many[1] - one[1])) <= 1e-14 * np.max(np.abs(one[1]))
    assert np.allclose(many[2], one[2], rtol=1e-14, atol=0.0)


# d = 1..6 at n in {1, 2, 6, 12}, leaving out (5, 12) and (6, 12), which
# have no energy rule within its node budget
FIELD_CASES = [
    (d, n) for d in range(1, 7) for n in (1, 2, 6, 12)
    if 2 * harmonic_dim(d, n) <= kernel._MAX_SAMPLED_NODES
]


def _one_and_several_node_blocks(d, n, N, monkeypatch):
    """Yield twice: with every rule node in one block, then with 3 a block."""
    M = energy_rule_size(d, n)
    monkeypatch.setattr(kernel, "_BLOCK_DOUBLES", N * M)
    assert len(kernel._node_blocks(N, M)) == 1
    yield
    monkeypatch.setattr(kernel, "_BLOCK_DOUBLES", 3 * N)
    assert len(kernel._node_blocks(N, M)) > 1
    yield


@pytest.mark.parametrize("d, n", FIELD_CASES)
def test_clenshaw_gradient_matches_the_forward_recurrence(d, n, monkeypatch):
    spec = make_kernel(d, n)
    X = _random_rows(spec, 29, d + n)
    for _ in _one_and_several_node_blocks(d, n, 29, monkeypatch):
        F = _fields(spec, X)
        G = _gradient_raw(spec, X, _residual_raw(spec, F))
        ref = gradient_forward(spec, X, F)
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref)), (d, n)


def _residual_vector(spec, X):
    return np.concatenate(_residual_raw(spec, _fields(spec, X)))


@pytest.mark.parametrize("d, n", [(1, 8), (2, 6), (3, 5), (4, 4), (5, 3), (6, 3)])
def test_jacobian_matches_central_differences_of_the_residual(d, n):
    # Richardson's combination of two central differences along geodesics,
    # off by O(h^4) + O(eps / h): about 1e-12 here, against 1e-9 to 6e-9
    # for one central difference at h = 1e-5
    spec = make_kernel(d, n)
    N = 20
    X = _random_rows(spec, N, 10 * d)
    J, basis = _jacobian_raw(spec, X)
    assert J.shape == (sum(harmonic_dim(d, k) for k in range(1, n + 1)), d * N)
    # a workspace handed in receives bitwise the same J
    out = np.full_like(J, np.nan)
    assert _jacobian_raw(spec, X, out)[0] is out and np.array_equal(out, J)
    rng = np.random.default_rng(d)
    for _ in range(3):
        u = rng.standard_normal((d, N))
        V = np.einsum("ji,jic->ic", u, basis)

        def central(h):
            plus = _residual_vector(spec, _geodesic_rows(X, V, h))
            return (plus - _residual_vector(spec, _geodesic_rows(X, V, -h))) / (2.0 * h)

        derivative = (4.0 * central(5e-5) - central(1e-4)) / 3.0
        Ju = J @ u.ravel()
        assert np.max(np.abs(derivative - Ju)) <= 1e-9 * np.max(np.abs(Ju)), d


def _check_transpose_products(d, n, N, monkeypatch):
    """2 J^T r is the gradient, and the gradient route given any w in place
    of r is the transpose product 2 J^T w, in one node block and in several."""
    spec = make_kernel(d, n)
    X = _random_rows(spec, N, d + n)
    J, basis = _jacobian_raw(spec, X)
    r = _residual_vector(spec, X)
    w = np.random.default_rng(d + n).standard_normal(r.shape)
    w_blocks = np.split(w, np.cumsum([harmonic_dim(d, k) for k in range(1, n)]))

    def ambient(tangent):
        return np.einsum("ji,jic->ic", (2.0 * tangent @ J).reshape(d, N), basis)

    G_jacobian, W_jacobian = ambient(r), ambient(w)
    for _ in _one_and_several_node_blocks(d, n, N, monkeypatch):
        G = _gradient_raw(spec, X)
        assert np.max(np.abs(G - G_jacobian)) <= 1e-12 * np.max(np.abs(G)), (d, n, N)
        W = _gradient_raw(spec, X, r=w_blocks)
        assert np.max(np.abs(W - W_jacobian)) <= 1e-12 * np.max(np.abs(W)), (d, n, N)


@pytest.mark.parametrize("d, n", FIELD_CASES)
def test_jacobian_transpose_residual_is_half_the_gradient(d, n, monkeypatch):
    _check_transpose_products(d, n, 29, monkeypatch)


@pytest.mark.parametrize("d, n, N", [(2, 3, 20), (2, 12, 338), (3, 4, 60)])
def test_gradient_route_is_the_transpose_product_at_solver_sizes(d, n, N, monkeypatch):
    # sizes the solver meets, where a gradient route that rebuilt r from X
    # instead of taking the w it is given was off by a relative 0.99 to 1.03
    _check_transpose_products(d, n, N, monkeypatch)


@pytest.mark.parametrize("d, n", FIELD_CASES)
def test_gemv_fields_match_the_column_sums(d, n, monkeypatch):
    spec = make_kernel(d, n)
    X = _random_rows(spec, 29, d + n)
    for _ in _one_and_several_node_blocks(d, n, 29, monkeypatch):
        F = _fields(spec, X)
        ref = fields_column_sums(spec, X)
        assert np.max(np.abs(F - ref)) <= 1e-14 * np.max(np.abs(ref)), (d, n)


def test_energy_rule_prefix_is_the_rule_built_alone():
    # the cached rule of the largest n serves every smaller n of its sphere
    for d, top in [(1, 40), (2, 14), (3, 7), (4, 5), (5, 4), (6, 3)]:
        Z_top, maps_top = kernel._build_energy_rule(d, top)
        for n in range(1, top + 1):
            Z, maps = kernel._build_energy_rule(d, n)
            assert np.array_equal(Z, Z_top[:energy_rule_size(d, n)]), (d, n)
            assert len(maps) == n
            for B, B_top in zip(maps, maps_top):
                assert np.array_equal(B, B_top), (d, n)


def test_energy_rule_is_built_once_per_sphere_as_n_grows(monkeypatch):
    built = []

    def build(d, n):
        built.append((d, n))
        return fresh(d, n)

    fresh = kernel._build_energy_rule
    monkeypatch.setattr(kernel, "_RULES", {})
    monkeypatch.setattr(kernel, "_build_energy_rule", build)
    for d, n in [(1, 12), (2, 5), (3, 11), (3, 11), (2, 5), (1, 12)]:
        Z, maps = _energy_rule(d, n)
        assert Z.shape == (energy_rule_size(d, n), d + 1) and len(maps) == n
    assert built == [(1, 12), (2, 5), (3, 11)]
    # a smaller n is a slice of the rule on hand; a larger one rebuilds it
    Z, maps = _energy_rule(2, 3)
    Z_fresh, maps_fresh = fresh(2, 3)
    assert np.array_equal(Z, Z_fresh)
    assert all(np.array_equal(B, C) for B, C in zip(maps, maps_fresh))
    _energy_rule(2, 6)
    assert built[3:] == [(2, 6)]


def test_energy_rule_cache_hit_computes_no_harmonic_dimension(monkeypatch):
    # a hit reads M off the cached B_n; only a build sizes the rule
    calls = []

    def counted(d, k):
        calls.append((d, k))
        return harmonic_dim(d, k)

    _energy_rule(2, 5)
    monkeypatch.setattr(kernel, "harmonic_dim", counted)
    for n in (5, 3, 1):
        Z, maps = _energy_rule(2, n)
        assert Z.shape == (2 * harmonic_dim(2, n), 3) and len(maps) == n
    assert calls == []


def test_e8_roots_have_zero_energy_on_the_sampled_rule():
    X = e8_roots()
    assert energy_rule_size(7, 5) == 2 * 672
    spec = make_kernel(7, 5)
    assert 0.0 <= _energy_raw(spec, X) <= 1e-28
    assert np.all(_degree_energies(spec, X) <= 1e-28)


EXACT_DESIGNS = [
    (lambda: polygon(12), 11),
    (octahedron, 3),
    (cube, 3),
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
    assert np.array_equal(final.coords, X)
