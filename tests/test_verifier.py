"""Tests of the independent certification routes: monomial averages,
exact designs, and the ring-resampled Marcinkiewicz-Zygmund check."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from designforge import cli, verifier
from designforge.kernel import _BLOCK_DOUBLES, make_kernel
from designforge.sphere import eq_partition
from designforge.verifier import (
    is_design,
    monomial_exponents,
    monomial_sphere_integral,
    mz_check,
    quadrature_rings,
    sphere_quadrature_grid,
    worst_monomial_deviation,
)
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
from oracles import ring_values, worst_monomial_deviation_loop


def _trial(d, m, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "kernel":
        return verifier._random_kernel_span(make_kernel(d, m), d, rng)
    pool = list(monomial_exponents(d, m, 0))
    return verifier._random_monomial_mixture(pool, d, rng)


# -- ring form of the reference grid ----

# (2, 441, 10) and (1, 25, 12) have L = 2m+1 longitudes, the fewest ring_values
# accepts; the prime L = 99 991 cuts S^1's ring into arcs with a short last one.
# The full and short last arcs of the S^1 and S^2 grids take every pair of
# parities, under the default block and under 2^8 doubles
# (test_grid_cases_cover_the_arc_parities)
GRID_CASES = [(1, 5_000, 12), (2, 10_000, 9), (3, 27_000, 6), (3, 30_000, 12), (2, 441, 10),
              (1, 25, 12), (1, 99_991, 12), (1, 3_859, 16), (1, 5_000, 16), (2, 625, 10),
              (1, 4_999, 9)]


@pytest.mark.parametrize("block", [_BLOCK_DOUBLES, 1 << 8])
def test_grid_cases_cover_the_arc_parities(block, monkeypatch):
    monkeypatch.setattr(verifier, "_BLOCK_DOUBLES", block)
    parities = set()
    for d, min_nodes, m in GRID_CASES:
        L = quadrature_rings(d, min_nodes).L
        B = verifier._arc_width(L, m)
        if d <= 2 and L % B:
            parities.add((B % 2, L % B % 2))
    assert parities == {(1, 1), (1, 0), (0, 0), (0, 1)}


@pytest.mark.parametrize("d,min_nodes,m", GRID_CASES)
@pytest.mark.parametrize("kind", ["kernel", "monomial"])
def test_ring_values_match_direct_evaluation(d, min_nodes, m, kind):
    evaluate = _trial(d, m, kind, [d, m])
    rings = quadrature_rings(d, min_nodes)
    pts, w = sphere_quadrature_grid(d, min_nodes)
    direct = evaluate(pts)
    resampled = ring_values(evaluate, rings, m)
    assert resampled.shape == (rings.weight.size, rings.L)
    assert resampled.size == pts.shape[0]
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(resampled.ravel() - direct)) <= 1e-12 * scale
    integral = verifier._ring_abs_integral(rings, m)(evaluate)
    assert integral == pytest.approx(float(w @ np.abs(direct)), rel=1e-12)


@pytest.mark.parametrize("d,min_nodes,m", GRID_CASES)
def test_short_arcs_match_direct_evaluation(d, min_nodes, m, monkeypatch):
    # 2^8 doubles cuts every ring of these grids into arcs, with a short last
    # arc wherever B does not divide L, and puts several rings in a block
    monkeypatch.setattr(verifier, "_BLOCK_DOUBLES", 1 << 8)
    evaluate = _trial(d, m, "kernel", [d, m, 1])
    rings = quadrature_rings(d, min_nodes)
    pts, w = sphere_quadrature_grid(d, min_nodes)
    direct = evaluate(pts)
    assert verifier._arc_width(rings.L, m) < rings.L
    resampled = ring_values(evaluate, rings, m)
    assert np.max(np.abs(resampled.ravel() - direct)) <= 1e-12 * np.max(np.abs(direct))
    integral = verifier._ring_abs_integral(rings, m)(evaluate)
    assert integral == pytest.approx(float(w @ np.abs(direct)), rel=1e-12)


@pytest.mark.parametrize("d,m", [(1, 16), (2, 10), (3, 6)])
def test_ring_abs_integral_holds_no_full_grid_array(d, m):
    # the degrees of the generate-mz jobs; one (R, L) array of these 10^6-node
    # grids is 7.6 MiB, so a peak under 5 MiB means none was formed
    rings = quadrature_rings(d, 1_000_000, 2 * m + 1)
    evaluate = _trial(d, m, "kernel", [d, m])
    tracemalloc.start()
    try:
        verifier._ring_abs_integral(rings, m)(evaluate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


@pytest.mark.parametrize("d,m", [(1, 16), (2, 10), (3, 6)])
def test_ring_abs_integral_peaks_under_2_mib(d, m):
    # one set of tables and block buffers, reused by the second trial, and the
    # trial polynomial's own temporaries on the torus; a per-trial (R, 2m+1)
    # sample array of the (3, 6) grid's 10^4 rings would take it past 2 MiB
    rings = quadrature_rings(d, 1_000_000, 2 * m + 1)
    evaluate = _trial(d, m, "kernel", [d, m])
    tracemalloc.start()
    try:
        integral = verifier._ring_abs_integral(rings, m)
        integral(evaluate)
        integral(evaluate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("d,min_nodes,m", [(1, 5_000, 8), (2, 10_000, 5), (3, 27_000, 3)])
def test_ring_abs_integral_keeps_to_the_numpy_1_fft_signature(d, min_nodes, m, monkeypatch):
    # numpy.fft takes no out= before numpy 2.0, and numpy >= 1.24 is supported
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, n=None, axis=-1, norm=None: rfft(a, n, axis, norm))
    evaluate = _trial(d, m, "kernel", [d, m])
    pts, w = sphere_quadrature_grid(d, min_nodes)
    integral = verifier._ring_abs_integral(quadrature_rings(d, min_nodes), m)(evaluate)
    assert integral == pytest.approx(float(w @ np.abs(evaluate(pts))), rel=1e-12)


def _mirror_trial(L, first, width, m, part):
    """sum_k a_k Re or Im (z e^(-i phi_c))^k, z = x0 + i x1: a degree-m
    polynomial even ("even") or odd ("odd") in phi about the center phi_c
    of the arc of `width` nodes from node `first` of every ring of L nodes."""
    phi_c = (first + width / 2) * 2.0 * np.pi / L
    a = np.random.default_rng([L, first, m]).standard_normal(m + 1)

    def evaluate(Y):
        powers = ((Y[:, 0] + 1j * Y[:, 1]) * np.exp(-1j * phi_c))[:, None] ** np.arange(m + 1)
        return (powers.real if part == "even" else powers.imag) @ a

    return evaluate


@pytest.mark.parametrize("d,min_nodes,m", [(1, 3_859, 16), (1, 5_000, 12), (2, 625, 10),
                                           (2, 10_000, 9)])
@pytest.mark.parametrize("block", [_BLOCK_DOUBLES, 1 << 8])
@pytest.mark.parametrize("arc", ["first", "last"])
@pytest.mark.parametrize("part", ["even", "odd"])
def test_mirror_parts_of_even_and_odd_polynomials(d, min_nodes, m, block, arc, part, monkeypatch):
    # a polynomial even about an arc's center has S = 0 on that arc, and an
    # odd one C = 0; either way P = C +- S at its nodes
    monkeypatch.setattr(verifier, "_BLOCK_DOUBLES", block)
    rings = quadrature_rings(d, min_nodes)
    L = rings.L
    B = verifier._arc_width(L, m)
    first = 0 if arc == "first" else (L - 1) // B * B
    width = min(B, L - first)
    evaluate = _mirror_trial(L, first, width, m, part)
    pts, w = sphere_quadrature_grid(d, min_nodes)
    direct = evaluate(pts)
    scale = np.max(np.abs(direct))
    seen = False
    for j0, _, w_arc, C, S in verifier._arc_blocks(rings, m)(evaluate):
        if w_arc == width and j0 <= first < j0 + C.shape[0] * width:
            a = (first - j0) // width
            kept, vanished = (C[a], S[a]) if part == "even" else (S[a], C[a])
            assert np.max(np.abs(kept)) > 1e-6 * scale
            assert np.max(np.abs(vanished)) <= 1e-13 * scale
            seen = True
    assert seen
    resampled = ring_values(evaluate, rings, m)
    assert np.max(np.abs(resampled.ravel() - direct)) <= 1e-12 * scale
    integral = verifier._ring_abs_integral(rings, m)(evaluate)
    assert integral == pytest.approx(float(w @ np.abs(direct)), rel=1e-12)


def test_quadrature_rings_are_cached_and_read_only():
    rings = quadrature_rings(2, 10_000, 21)
    assert quadrature_rings(2, 10_000, 21) is rings
    for a in (rings.weight, *rings.levels):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("d,min_nodes,m", GRID_CASES)
def test_ring_values_evaluate_only_the_torus(d, min_nodes, m):
    evaluate = _trial(d, m, "kernel", [d, m])
    rows = []

    def counted(Y):
        rows.append(Y.shape[0])
        return evaluate(Y)

    ring_values(counted, quadrature_rings(d, min_nodes), m)
    assert rows == [(2 * m + 1) ** d]


@pytest.mark.parametrize("d,min_nodes", [(1, 100), (2, 10_000), (3, 27_000), (4, 20_000)])
def test_levels_reproduce_the_rings(d, min_nodes):
    rings = quadrature_rings(d, min_nodes)
    assert len(rings.levels) == d - 1
    # ring (i_0, ..., i_(d-2)): x_(d-j) = t_j prod_(l<j) sqrt(1 - t_l^2),
    # and the ring's radius |(x0, x1)| is the product over every level
    T = np.array(list(itertools.product(*rings.levels))).reshape(rings.weight.size, d - 1)
    pts, _ = sphere_quadrature_grid(d, min_nodes)
    assert pts.shape[0] == T.shape[0] * rings.L
    first = pts[:: rings.L]  # each ring's first longitude
    scale = np.ones(T.shape[0])
    for j in range(d - 1):
        np.testing.assert_allclose(first[:, d - j], scale * T[:, j], rtol=0, atol=1e-15)
        scale = scale * np.sqrt(1.0 - T[:, j] ** 2)
    np.testing.assert_allclose(np.hypot(first[:, 0], first[:, 1]), scale, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d,min_nodes", [case[:2] for case in GRID_CASES] + [(4, 20_000)])
def test_grid_is_the_expansion_of_the_rings(d, min_nodes):
    rings = quadrature_rings(d, min_nodes)
    assert len(rings.levels) == d - 1
    pts, w = sphere_quadrature_grid(d, min_nodes)
    assert pts.shape == (rings.weight.size * rings.L, d + 1)
    np.testing.assert_array_equal(w, np.repeat(rings.weight, rings.L))
    assert abs(float(w.sum()) - 1.0) <= 1e-13
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-15
    # longitude innermost: node (ring, j) keeps its ring's axial coordinates,
    # and (x0, x1) is the ring's radius times (cos, sin) phi_j
    first = np.repeat(pts[:: rings.L], rings.L, 0)
    np.testing.assert_array_equal(pts[:, 2:], first[:, 2:])
    radius = np.hypot(first[:, 0], first[:, 1])
    phi = np.tile((np.arange(rings.L) + 0.5) * (2.0 * np.pi / rings.L), rings.weight.size)
    np.testing.assert_allclose(pts[:, 0], radius * np.cos(phi), rtol=0, atol=1e-15)
    np.testing.assert_allclose(pts[:, 1], radius * np.sin(phi), rtol=0, atol=1e-15)


def test_short_rings_are_raised_to_2m_plus_1_longitudes():
    for d, min_nodes in ((1, 10), (2, 64), (3, 64)):
        base = quadrature_rings(d, min_nodes)
        rings = quadrature_rings(d, min_nodes, min_longitudes=21)
        assert base.L < 21 and rings.L == 21
        # same rings, each ring's total weight spread over more longitudes
        assert len(rings.levels) == len(base.levels) == d - 1
        for t, base_t in zip(rings.levels, base.levels):
            np.testing.assert_array_equal(t, base_t)
        np.testing.assert_allclose(rings.weight * rings.L, base.weight * base.L, rtol=1e-15)
        with pytest.raises(ValueError):
            ring_values(lambda Y: Y[:, 0], rings, 11)


# -- the MZ check ----

def _full_grid_ratios(X, m, trials, seed, min_nodes):
    """The MZ ratios by direct evaluation on every node of the expanded grid."""
    d = X.shape[1] - 1
    pts, w = sphere_quadrature_grid(d, min_nodes)
    spec_m = make_kernel(d, m)
    pool = list(monomial_exponents(d, m, 0))
    ratios = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        if trial % 2 == 0:
            evaluate = verifier._random_kernel_span(spec_m, d, rng)
        else:
            evaluate = verifier._random_monomial_mixture(pool, d, rng)
        reference = float(w @ np.abs(evaluate(pts)))
        ratios.append(float(np.mean(np.abs(evaluate(X)))) / reference)
    return min(ratios), max(ratios)


@pytest.mark.parametrize("d,min_nodes,m", [(1, 20_000, 8), (2, 40_000, 6), (3, 64_000, 4)])
def test_mz_ratios_match_full_grid_reference(d, min_nodes, m):
    X = unit_rows(np.random.default_rng(5).standard_normal((30, d + 1)))
    report = mz_check(X, m, trials=6, seed=3, min_nodes=min_nodes)
    lo, hi = _full_grid_ratios(X, m, 6, 3, min_nodes)
    assert report.min_ratio == pytest.approx(lo, rel=1e-12)
    assert report.max_ratio == pytest.approx(hi, rel=1e-12)


@pytest.mark.parametrize("design,m", [(icosahedron, 4), (six_hundred_cell, 5), (lambda: polygon(12), 5)])
def test_exact_designs_pass_mz(design, m):
    report = mz_check(design(), m, trials=8, seed=0, min_nodes=200_000)
    assert report.passed
    assert 0.5 < report.min_ratio <= report.max_ratio < 1.5


def test_mz_rejects_non_finite_points():
    X = np.full((12, 3), np.nan)
    with pytest.raises(ValueError):
        mz_check(X, 2, trials=2, min_nodes=10_000)
    Y = icosahedron()
    Y[3, 1] = np.inf
    with pytest.raises(ValueError):
        mz_check(Y, 2, trials=2, min_nodes=10_000)


def test_mz_rejects_non_unit_rows():
    # scaled rows used to pass, with ratios of 1.47-2.22 reported
    with pytest.raises(ValueError):
        mz_check(2.0 * icosahedron(), 2, trials=2, min_nodes=10_000)
    X = icosahedron()
    X[5] *= 1.0 + 1e-10
    with pytest.raises(ValueError):
        mz_check(X, 2, trials=2, min_nodes=10_000)


@pytest.mark.parametrize("kwargs", [
    {"min_nodes": -5},
    {"min_nodes": 0},
    {"min_nodes": 1},
    {"min_nodes": 10.5},
    {"min_nodes": 4095},
    {"trials": 2.5},
    {"m": True},
    {"m": 2.0},
    {"trials": True},
    {"seed": 1.5},
    {"seed": -1},
    {"seed": True},
])
def test_mz_rejects_bad_counts_before_any_grid(kwargs, monkeypatch):
    # these used to raise TypeError or a misleading ArithmeticError from the
    # grid-consistency check, or built grids of fewer nodes than the coarse
    # one; a bool seed ran as seed 0 or 1
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(verifier, "quadrature_rings", no_grid)
    with pytest.raises(ValueError):
        mz_check(icosahedron(), **{"m": 2, "trials": 2, "min_nodes": 10_000, **kwargs})


def test_mz_non_finite_ratio_fails(monkeypatch):
    # the zero polynomial has reference 0 and ratio 0/0: a failure, not a pass
    def zero(*args, **kwargs):
        return lambda Y: np.zeros(Y.shape[0])

    monkeypatch.setattr(verifier, "_random_kernel_span", zero)
    monkeypatch.setattr(verifier, "_random_monomial_mixture", zero)
    report = mz_check(icosahedron(), 2, trials=2, min_nodes=10_000)
    assert not report.passed
    assert np.isnan(report.min_ratio)


# -- monomial certification ----

@pytest.mark.parametrize("exponents,value", [
    ((2, 0), 1 / 2),
    ((4, 0), 3 / 8),
    ((2, 2), 1 / 8),
    ((2, 0, 0), 1 / 3),
    ((4, 0, 0), 1 / 5),
    ((2, 2, 0), 1 / 15),
    ((2, 2, 2), 1 / 105),
    ((6, 0, 0), 1 / 7),
    ((2, 0, 0, 0), 1 / 4),
    ((4, 0, 0, 0), 1 / 8),
    ((2, 2, 0, 0), 1 / 24),
    ((1, 0, 0), 0.0),
    ((3, 1, 0), 0.0),
    ((0, 0), 1.0),
])
def test_monomial_sphere_integral_closed_forms(exponents, value):
    assert monomial_sphere_integral(exponents) == pytest.approx(value, rel=1e-15)


def _monomial_integrals(pts, w, max_degree):
    """(exponents, quadrature of x^a) for every a of degree 1..max_degree."""
    powers = [np.stack([pts[:, c] ** e for e in range(max_degree + 1)])
              for c in range(pts.shape[1])]
    for a in monomial_exponents(pts.shape[1] - 1, max_degree):
        vals = w.copy()
        for c, e in enumerate(a):
            if e:
                vals *= powers[c][e]
        yield a, float(np.sum(vals))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monomial_sphere_integral_against_quadrature(d):
    if d <= 3:
        pts, w = sphere_quadrature_grid(d, 20_000)
        for a in monomial_exponents(d, 6):
            numeric = float(w @ np.prod(pts ** np.array(a), axis=1))
            assert numeric == pytest.approx(monomial_sphere_integral(a), abs=1e-13)
    # the rule the kernel energy integrates on is exact to degree 2n
    for n in range(1, 7):
        pts, w = sphere_quadrature_grid(d, (n + 1) ** d, 2 * n + 1)
        for a, numeric in _monomial_integrals(pts, w, 2 * n):
            assert abs(numeric - monomial_sphere_integral(a)) <= 1e-14, (n, a)


def test_monomial_sphere_integral_rejects_bad_exponents():
    with pytest.raises(ValueError):
        monomial_sphere_integral((2, -1))
    with pytest.raises(ValueError):
        monomial_sphere_integral((2,))


@pytest.mark.parametrize("design,strength", [
    (lambda: polygon(7), 6),
    (octahedron, 3),
    (cube, 3),
    (icosahedron, 5),
    (six_hundred_cell, 11),
    (e8_roots, 7),
    (lambda: cross_polytope(5), 3),
])
def test_is_design_on_exact_designs(design, strength):
    X = design()
    passed, worst, _ = is_design(X, strength, 1e-12)
    assert passed and worst <= 1e-12
    passed, worst, witness = is_design(X, strength + 1, 1e-12)
    assert not passed and worst > 1e-6
    assert sum(witness) == strength + 1


def _with_row(X, i, row):
    X = X.copy()
    X[i] = row
    return X


def test_is_design_rejects_non_finite_and_non_unit_rows():
    # a garbage row must not come back as a deviation below every tolerance
    ico = icosahedron()
    for X in [
        np.full((12, 3), np.nan),
        _with_row(ico, 3, [np.nan, 0.0, 1.0]),
        np.full((12, 3), np.inf),
        _with_row(ico, 7, [np.inf, -np.inf, 0.0]),
        _with_row(ico, 5, ico[5] * (1.0 + 1e-10)),
        _with_row(ico, 0, 0.0),
        np.empty((0, 3)),
    ]:
        with pytest.raises(ValueError):
            worst_monomial_deviation(X, 2)
        with pytest.raises(ValueError):
            is_design(X, 2, 1e-9)


def _perturbed(X, seed):
    rng = np.random.default_rng(seed)
    return unit_rows(X + 1e-3 * rng.standard_normal(X.shape))


def _random_rows(N, d, seed):
    return unit_rows(np.random.default_rng(seed).standard_normal((N, d + 1)))


def _noisy_tetrahedron(seed):
    rng = np.random.default_rng(seed)
    tetrahedron = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    return unit_rows(tetrahedron + 0.05 * rng.standard_normal((4, 3)))


# exact designs at and above their strength (ties of rounding-sized
# deviations), perturbed copies, random rows (N = 1, N within one block, N
# over many blocks of monomials, and N > _BLOCK_DOUBLES, one monomial a
# block), and noisy tetrahedra, whose worst monomial x0 x1 x2 has three
# factors, so that the bits show the order in which they are multiplied
ORACLE_CASES = [
    ("12-gon", polygon(12), (11, 12)),
    ("icosahedron", icosahedron(), (5, 6)),
    ("24-cell", twenty_four_cell(), (5, 6)),
    ("600-cell", six_hundred_cell(), (11, 12)),
    ("cross-polytope S^4", cross_polytope(4), (3, 12)),
    ("perturbed 12-gon", _perturbed(polygon(12), 1), (11, 12)),
    ("perturbed icosahedron", _perturbed(icosahedron(), 2), (5, 12)),
    ("perturbed 24-cell", _perturbed(twenty_four_cell(), 3), (5, 12)),
    ("perturbed 600-cell", _perturbed(six_hundred_cell(), 4), (11, 12)),
    ("perturbed cross-polytope S^4", _perturbed(cross_polytope(4), 5), (3, 12)),
] + [
    (f"random N={N} S^{d}", _random_rows(N, d, 10 * d + N), (1, 12))
    for d in (1, 2, 3, 4) for N in (1, 37, 1000)
] + [
    (f"random N={_BLOCK_DOUBLES + 3} S^{d}", _random_rows(_BLOCK_DOUBLES + 3, d, d), (1, 2))
    for d in (1, 4)
] + [
    (f"noisy tetrahedron seed {seed}", _noisy_tetrahedron(seed), (3, 12)) for seed in range(8)
]


@pytest.mark.parametrize("X,strengths", [c[1:] for c in ORACLE_CASES],
                         ids=[c[0] for c in ORACLE_CASES])
def test_worst_monomial_deviation_is_the_per_monomial_loop_bit_for_bit(X, strengths):
    for n in strengths:
        worst, witness = worst_monomial_deviation(X, n)
        expected_worst, expected_witness = worst_monomial_deviation_loop(X, n)
        assert (worst.hex(), witness) == (expected_worst.hex(), expected_witness), n
        assert type(worst) is float and all(type(e) is int for e in witness)


def test_monomial_tables_are_built_once_and_read_only(monkeypatch):
    X = _random_rows(40, 3, 5)
    first = worst_monomial_deviation(X, 7)
    computed = []

    def counted_integral(exponents):
        computed.append(exponents)
        return monomial_sphere_integral(exponents)

    monkeypatch.setattr(verifier, "monomial_sphere_integral", counted_integral)
    assert worst_monomial_deviation(X, 7) == first
    assert mz_check(X, 7, trials=2, min_nodes=4096).trials == 2
    assert not computed
    exponents, table = verifier._exponent_table(3, 7)
    assert exponents == tuple(monomial_exponents(3, 7, 0))
    for cached in (table, verifier._monomial_integrals(3, 7)):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_witness_of_all_zero_deviations_is_the_first_exponent(d, tmp_path, capsys):
    # {+-e_d} averages every degree-1 monomial to 0 exactly, its integral
    X = np.vstack([np.eye(d + 1)[d], -np.eye(d + 1)[d]])
    passed, worst, witness = is_design(X, 1, 0.0)
    assert passed and worst == 0.0
    assert witness == (0,) * d + (1,)
    assert witness == next(monomial_exponents(d, 1))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"d": d, "N": 2, "points": X.tolist()}))
    capsys.readouterr()
    assert cli.main(["verify", str(path), "-n", "1"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["witness"] == [0] * d + [1]


# -- verify --mz end to end ----

def test_verify_with_mz_end_to_end(tmp_path, capsys):
    part = tmp_path / "partition.json"
    assert cli.main(["partition", "-d", "2", "-N", "12", "-o", str(part)]) == cli.EXIT_OK
    X = icosahedron()
    pts = tmp_path / "ico.json"
    pts.write_text(json.dumps({"d": 2, "N": 12, "points": X.tolist()}))
    capsys.readouterr()
    code = cli.main(["verify", str(pts), "-n", "5", "--mz", str(part), "--mz-trials", "4"])
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    mz = doc["mz"]
    assert mz["pass"] is True and mz["degree"] == 5 and mz["trials"] == 4
    expected = mz_check(X, 5, trials=4, seed=0)
    assert mz["min_ratio"] == expected.min_ratio
    assert mz["max_ratio"] == expected.max_ratio


def test_sampling_energy_check_holds_the_averaging_bound():
    spec = make_kernel(2, 4)
    partition = eq_partition(2, 50)
    report = verifier.sampling_energy_check(spec, partition, trials=50, seed=0)
    assert report.passed
    assert report.mean_energy <= report.bound
    # pinned, so that a change to the sampling path cannot move it unseen
    assert report.mean_energy == pytest.approx(0.009393556490854424, rel=1e-12)
    # two independent draws: the kernel's double integral is zero
    assert abs(report.cross_mean) <= 4.0 * report.cross_stderr
    with pytest.raises(ValueError):
        verifier.sampling_energy_check(spec, partition, trials=49, seed=0)
