"""Tests of the independent certification routes: monomial averages,
exact designs, and the ring-resampled Marcinkiewicz-Zygmund check."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from designforge import cli, verifier
from designforge.kernel import make_kernel
from designforge.sphere import eq_partition
from designforge.verifier import (
    is_design,
    monomial_exponents,
    monomial_sphere_integral,
    mz_check,
    quadrature_rings,
    sphere_quadrature_grid,
)
from exact_designs import cube, icosahedron, octahedron, polygon, six_hundred_cell, unit_rows
from oracles import ring_values


def _trial(d, m, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "kernel":
        return verifier._random_kernel_span(make_kernel(d, m), d, rng)
    pool = list(monomial_exponents(d, m, 0))
    return verifier._random_monomial_mixture(pool, d, rng)


# -- ring form of the reference grid ----

# (2, 441, 10) and (1, 25, 12) have L = 2m+1 longitudes, the fewest ring_values
# accepts; the prime L = 99 991 cuts S^1's ring into arcs with a short last one
GRID_CASES = [(1, 5_000, 12), (2, 10_000, 9), (3, 27_000, 6), (3, 30_000, 12), (2, 441, 10),
              (1, 25, 12), (1, 99_991, 12)]


@pytest.mark.parametrize("d,min_nodes,m", GRID_CASES)
@pytest.mark.parametrize("kind", ["kernel", "monomial"])
def test_ring_values_match_direct_evaluation(d, min_nodes, m, kind):
    evaluate = _trial(d, m, kind, [d, m])
    rings = quadrature_rings(d, min_nodes)
    pts, w = sphere_quadrature_grid(d, min_nodes)
    direct = evaluate(pts)
    resampled = ring_values(evaluate, rings, m)
    assert resampled.shape == (rings.radius.size, rings.L)
    assert resampled.size == pts.shape[0]
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(resampled.ravel() - direct)) <= 1e-12 * scale
    integral = verifier._ring_abs_integral(evaluate, rings, m)
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
    integral = verifier._ring_abs_integral(evaluate, rings, m)
    assert integral == pytest.approx(float(w @ np.abs(direct)), rel=1e-12)


@pytest.mark.parametrize("d,m", [(1, 16), (2, 10), (3, 6)])
def test_ring_abs_integral_holds_no_full_grid_array(d, m):
    # the degrees of the generate-mz jobs; one (R, L) array of these 10^6-node
    # grids is 7.6 MiB, so a peak under 5 MiB means none was formed
    rings = quadrature_rings(d, 1_000_000, 2 * m + 1)
    evaluate = _trial(d, m, "kernel", [d, m])
    tracemalloc.start()
    try:
        verifier._ring_abs_integral(evaluate, rings, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_quadrature_rings_are_cached_and_read_only():
    rings = quadrature_rings(2, 10_000, 21)
    assert quadrature_rings(2, 10_000, 21) is rings
    for a in (rings.axial, rings.radius, rings.weight, *rings.levels):
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
    # and the radius is the product over every level
    T = np.array(list(itertools.product(*rings.levels)))
    assert T.shape[0] == rings.radius.size
    scale = np.ones(T.shape[0])
    for j in range(d - 1):
        np.testing.assert_allclose(rings.axial[:, d - 2 - j], scale * T[:, j], rtol=0, atol=1e-15)
        scale = scale * np.sqrt(1.0 - T[:, j] ** 2)
    np.testing.assert_allclose(rings.radius, scale, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d,min_nodes", [case[:2] for case in GRID_CASES])
def test_grid_is_the_expansion_of_the_rings(d, min_nodes):
    rings = quadrature_rings(d, min_nodes)
    pts, w = sphere_quadrature_grid(d, min_nodes)
    assert pts.shape == (rings.radius.size * rings.L, d + 1)
    np.testing.assert_array_equal(w, np.repeat(rings.weight, rings.L))
    assert abs(float(w.sum()) - 1.0) <= 1e-13
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-15
    # longitude innermost: one ring's nodes share their axial coordinates
    np.testing.assert_array_equal(pts[: rings.L, 2:], np.repeat(rings.axial[:1], rings.L, 0))


def test_short_rings_are_raised_to_2m_plus_1_longitudes():
    for d, min_nodes in ((1, 10), (2, 64), (3, 64)):
        base = quadrature_rings(d, min_nodes)
        rings = quadrature_rings(d, min_nodes, min_longitudes=21)
        assert base.L < 21 and rings.L == 21
        # same rings, each ring's total weight spread over more longitudes
        np.testing.assert_array_equal(rings.radius, base.radius)
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
    report = mz_check(X, None, m, trials=6, seed=3, min_nodes=min_nodes)
    lo, hi = _full_grid_ratios(X, m, 6, 3, min_nodes)
    assert report.min_ratio == pytest.approx(lo, rel=1e-12)
    assert report.max_ratio == pytest.approx(hi, rel=1e-12)


@pytest.mark.parametrize("design,m", [(icosahedron, 4), (six_hundred_cell, 5), (lambda: polygon(12), 5)])
def test_exact_designs_pass_mz(design, m):
    report = mz_check(design(), None, m, trials=8, seed=0, min_nodes=200_000)
    assert report.passed
    assert 0.5 < report.min_ratio <= report.max_ratio < 1.5


def test_mz_rejects_non_finite_points():
    X = np.full((12, 3), np.nan)
    with pytest.raises(ValueError):
        mz_check(X, None, 2, trials=2, min_nodes=10_000)
    Y = icosahedron()
    Y[3, 1] = np.inf
    with pytest.raises(ValueError):
        mz_check(Y, None, 2, trials=2, min_nodes=10_000)


def test_mz_rejects_non_unit_rows():
    # scaled rows used to pass, with ratios of 1.47-2.22 reported
    with pytest.raises(ValueError):
        mz_check(2.0 * icosahedron(), None, 2, trials=2, min_nodes=10_000)
    X = icosahedron()
    X[5] *= 1.0 + 1e-10
    with pytest.raises(ValueError):
        mz_check(X, None, 2, trials=2, min_nodes=10_000)


def test_mz_rejects_a_partition_of_another_size():
    with pytest.raises(ValueError):
        mz_check(icosahedron(), eq_partition(2, 50), 2, trials=2, min_nodes=10_000)
    with pytest.raises(ValueError):
        mz_check(icosahedron(), eq_partition(3, 12), 2, trials=2, min_nodes=10_000)


def test_mz_non_finite_ratio_fails(monkeypatch):
    # the zero polynomial has reference 0 and ratio 0/0: a failure, not a pass
    def zero(*args, **kwargs):
        return lambda Y: np.zeros(Y.shape[0])

    monkeypatch.setattr(verifier, "_random_kernel_span", zero)
    monkeypatch.setattr(verifier, "_random_monomial_mixture", zero)
    report = mz_check(icosahedron(), None, 2, trials=2, min_nodes=10_000)
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
])
def test_is_design_on_exact_designs(design, strength):
    X = design()
    passed, worst, _ = is_design(X, strength, 1e-12)
    assert passed and worst <= 1e-12
    passed, worst, witness = is_design(X, strength + 1, 1e-12)
    assert not passed and worst > 1e-6
    assert sum(witness) == strength + 1


def test_is_design_rejects_non_finite_and_non_unit_rows():
    with pytest.raises(ValueError):
        is_design(np.full((12, 3), np.nan), 2, 1e-9)
    X = icosahedron()
    X[5] *= 1.0 + 1e-10
    with pytest.raises(ValueError):
        is_design(X, 2, 1e-9)


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
    expected = mz_check(X, eq_partition(2, 12), 5, trials=4, seed=0)
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
