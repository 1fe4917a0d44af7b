import json
import math

import numpy as np
import pytest
from scipy.stats import kstest

from designforge import sphere
from designforge.sphere import (
    Partition,
    _geodesic_rows,
    cap_area_fraction,
    cap_colatitude,
    eq_partition,
    off_sphere_rows,
    sphere_surface_area,
    tangent_basis,
    tangent_rows,
)
from oracles import (
    cap_area_mp,
    center_by_region,
    diameter_bound,
    region_contains,
    sample_by_region,
)


def _uniform_points(d, count, rng):
    """count uniform points on S^d, drawn by the one-region partition's sampler."""
    whole = eq_partition(d, 1)
    return np.concatenate([whole.sample(rng) for _ in range(count)])


def test_off_sphere_rows_flags_non_finite_and_off_tolerance_rows():
    X = np.tile([0.0, 0.6, 0.8], (6, 1))
    X[1, 0] = np.nan
    X[2, 2] = np.inf
    X[3] *= 1.0 + 1e-11
    X[4] *= 1.0 + 1e-14
    assert off_sphere_rows(X).tolist() == [1, 2, 3]


def test_tangent_rows_removes_radial_part():
    out = tangent_rows(np.array([[1.0, 0, 0]]), np.array([[1.0, 1.0, 0.0]]))
    assert np.allclose(out, [[0.0, 1.0, 0.0]])


def test_tangent_rows_purely_radial_gives_zero():
    out = tangent_rows(np.array([[0.0, 0, 1.0]]), np.array([[0.0, 0.0, 5.0]]))
    assert np.allclose(out, 0.0)


def test_tangent_rows_keeps_tangential():
    out = tangent_rows(np.array([[1.0, 0, 0]]), np.array([[0.0, 2.0, 3.0]]))
    assert np.allclose(out, [[0.0, 2.0, 3.0]])


def test_tangent_rows_projects_a_stack_as_each_array_alone():
    # the solver carries its L-BFGS memory to a new point in one call
    rng = np.random.default_rng(5)
    X = _uniform_points(2, 30, rng)
    stack = rng.standard_normal((4, 2, 30, 3))
    out = tangent_rows(X, stack)
    for i, j in np.ndindex(4, 2):
        assert np.array_equal(out[i, j], tangent_rows(X, stack[i, j]))


def test_tangent_rows_idempotent():
    rng = np.random.default_rng(3)
    X = _uniform_points(3, 40, rng)
    once = tangent_rows(X, rng.standard_normal((40, 4)))
    twice = tangent_rows(X, once)
    scale = np.maximum(1.0, np.linalg.norm(once, axis=1))
    assert np.all(np.max(np.abs(once - twice), axis=1) <= 1e-14 * scale)
    assert np.max(np.abs(np.einsum("ij,ij->i", once, X))) <= 1e-14


@pytest.mark.parametrize("d", range(1, 7))
def test_tangent_basis_is_orthonormal_and_tangent(d):
    # rows on and near the coordinate axes, where the Householder sign flips
    rng = np.random.default_rng(d)
    axes = np.concatenate([np.eye(d + 1), -np.eye(d + 1)])
    tilted = axes + 1e-9 * rng.standard_normal(axes.shape)
    X = np.concatenate([_uniform_points(d, 30, rng), axes, tilted / np.linalg.norm(
        tilted, axis=1)[:, None]])
    basis = tangent_basis(X)
    assert basis.shape == (d, X.shape[0], d + 1)
    # a few ulps: 9e-16 at most over 50 draws of 200 random rows
    assert np.max(np.abs(np.einsum("jic,ic->ij", basis, X))) <= 2e-15
    gram = np.einsum("jic,kic->ijk", basis, basis)
    assert np.max(np.abs(gram - np.eye(d))) <= 2e-15


def test_geodesic_quarter_circle():
    out = _geodesic_rows(np.array([[1.0, 0, 0]]), np.array([[0.0, 1.0, 0]]), math.pi / 2.0)
    assert np.allclose(out, [[0.0, 1.0, 0.0]], atol=1e-15)


def test_geodesic_zero_time_identity():
    rng = np.random.default_rng(5)
    X = _uniform_points(2, 1, rng)
    V = tangent_rows(X, rng.standard_normal((1, 3)))
    assert np.array_equal(_geodesic_rows(X, V, 0.0), X)
    # rows with zero velocity stay put at any time, as at a design
    Y = _uniform_points(2, 10, rng)
    assert np.array_equal(_geodesic_rows(Y, np.zeros_like(Y), 0.5), Y)


def test_geodesic_arc_length_scaling():
    # speed 2 for time pi/4 -> arc pi/2
    out = _geodesic_rows(np.array([[1.0, 0, 0]]), np.array([[0.0, 2.0, 0]]), math.pi / 4.0)
    assert np.allclose(out, [[0.0, 1.0, 0.0]], atol=1e-15)


def test_geodesic_preserves_unit_norm():
    rng = np.random.default_rng(11)
    X = _uniform_points(3, 50, rng)
    V = tangent_rows(X, rng.standard_normal((50, 4)))
    for t in rng.random(5) * 3.0:
        out = _geodesic_rows(X, V, t)
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) <= 1e-14


def test_geodesic_group_property():
    rng = np.random.default_rng(12)
    X = _uniform_points(2, 20, rng)
    V = tangent_rows(X, rng.standard_normal((20, 3)))
    w = np.linalg.norm(V, axis=1)[:, None]
    U = V / w
    t, s = 0.4, 0.9
    mid = _geodesic_rows(X, V, t)
    # velocity parallel-transported along each circle
    Vt = w * (-X * np.sin(w * t) + U * np.cos(w * t))
    two_leg = _geodesic_rows(mid, Vt, s)
    direct = X * np.cos(w * (t + s)) + U * np.sin(w * (t + s))
    assert np.max(np.abs(two_leg - direct)) <= 1e-12


def test_whole_sphere_sample_moment_bound():
    X = _uniform_points(2, 100_000, np.random.default_rng(123))
    sigma = (1.0 / math.sqrt(3.0)) / math.sqrt(100_000)
    assert np.max(np.abs(X.mean(axis=0))) <= 4.0 * sigma


def test_whole_sphere_sample_deterministic_under_seed():
    a = _uniform_points(2, 5, np.random.default_rng(7))
    b = _uniform_points(2, 5, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_whole_circle_sample_uniform_angle():
    X = _uniform_points(1, 10_000, np.random.default_rng(99))
    angles = np.mod(np.arctan2(X[:, 1], X[:, 0]), 2.0 * math.pi)
    assert kstest(angles / (2.0 * math.pi), "uniform").pvalue > 0.01


def test_cap_geometry_round_trip():
    for d in (1, 2, 3, 4):
        for f in (0.01, 0.25, 0.5, 0.75, 0.99):
            assert cap_area_fraction(d, cap_colatitude(d, f)) == pytest.approx(f, abs=1e-13)
    assert cap_colatitude(2, 0.25) == pytest.approx(math.pi / 3.0, rel=1e-12)


_HALF_PI = 0.5 * math.pi
_CAP_THETAS = [0.0, 1e-300, 1e-12, 1e-8, 1e-4, 0.3, 1.0, _HALF_PI - 1e-9, _HALF_PI,
               _HALF_PI + 1e-9, 2.2, 3.0, math.pi - 1e-8, math.pi - 1e-12, math.pi]


@pytest.mark.parametrize("d", [*range(1, 21), 50, 100])
def test_cap_area_fraction_matches_mpmath(d):
    got = cap_area_fraction(d, np.array(_CAP_THETAS))
    err = [abs(float(cap_area_mp(d, th)) - g) for th, g in zip(_CAP_THETAS, got)]
    assert max(err) <= 2e-15, err


def test_cap_area_fraction_out_of_range_and_nan():
    assert cap_area_fraction(3, -0.5) == 0.0
    assert cap_area_fraction(3, 4.0) == 1.0
    assert math.isnan(cap_area_fraction(3, math.nan))


@pytest.mark.parametrize("d", range(1, 13))
def test_cap_colatitude_round_trip(d):
    f = np.array([1e-12, 1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-12])
    assert np.max(np.abs(cap_area_fraction(d, cap_colatitude(d, f)) - f)) <= 1e-14
    assert cap_colatitude(d, 0.0) == 0.0
    assert cap_colatitude(d, 0.5) == _HALF_PI
    assert cap_colatitude(d, 1.0) == math.pi


def test_cap_colatitude_matches_closed_forms():
    # F = theta / pi on S^1, sin^2(theta / 2) on S^2, (theta - sin theta cos theta) / pi on S^3
    import mpmath

    f = np.concatenate([10.0 ** -np.arange(1, 16, 2), np.linspace(0.02, 0.98, 17)])
    exact = {
        1: lambda v: mpmath.pi * v,
        2: lambda v: 2 * mpmath.asin(mpmath.sqrt(v)),
        3: lambda v: mpmath.findroot(
            lambda th: (th - mpmath.sin(th) * mpmath.cos(th)) / mpmath.pi - v,
            mpmath.mpf(float(cap_colatitude(3, float(v))))),
    }
    for d, theta in exact.items():
        got = cap_colatitude(d, f)
        with mpmath.workdps(30):
            rel = [abs(g / float(theta(mpmath.mpf(v))) - 1.0) for v, g in zip(f, got)]
        assert max(rel) <= 4e-16, (d, max(rel))


def test_cap_functions_are_elementwise():
    # an array call gives each entry what a call on that entry alone gives
    rng = np.random.default_rng(6)
    theta = rng.uniform(0.0, math.pi, 41)
    f = rng.random(41)
    for d in (2, 3, 7):
        assert np.array_equal(cap_area_fraction(d, theta),
                              [cap_area_fraction(d, v) for v in theta])
        assert np.array_equal(cap_colatitude(d, f), [cap_colatitude(d, v) for v in f])
        assert cap_colatitude(d, f.reshape(41, 1)).shape == (41, 1)


def test_cap_colatitude_rejects_fractions_outside_the_unit_interval():
    for bad in (-1e-300, 1.0 + 1e-15, math.nan, [0.5, 2.0]):
        with pytest.raises(ValueError):
            cap_colatitude(2, bad)


def test_sphere_surface_area():
    assert sphere_surface_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_surface_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_surface_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


@pytest.mark.parametrize("d, N", [(1, 7), (2, 1), (2, 2), (2, 25), (2, 338), (3, 1),
                                  (3, 30), (3, 100), (4, 60)])
def test_sample_matches_the_region_by_region_oracle(d, N):
    p = eq_partition(d, N)
    for seed in (0, 5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        X = p.sample(rng)
        ref = sample_by_region(p, ref_rng)
        assert X.shape == ref.shape == (N, d + 1)
        assert np.max(np.abs(X - ref)) <= 1e-14
        # both drew the same stream: the next draw agrees
        assert rng.random() == ref_rng.random()


def test_geodesic_rows_do_not_depend_on_a_zero_velocity_row():
    # a zero-velocity row beside the moving rows stays put exactly, and the
    # moving rows come out bit for bit as they do without it
    rng = np.random.default_rng(14)
    X = _uniform_points(2, 60, rng)
    V = tangent_rows(X, rng.standard_normal((60, 3)))
    still = _uniform_points(2, 1, rng)
    for t in (0.0, 1e-7, 0.4, 2.5):
        fast = _geodesic_rows(X, V, t)
        masked = _geodesic_rows(np.vstack([X, still]), np.vstack([V, np.zeros((1, 3))]), t)
        assert np.array_equal(fast, masked[:-1])
        assert np.array_equal(masked[-1], still[0])


def test_eq_partition_circle():
    p = eq_partition(1, 8)
    assert p.N == 8
    widths = [hi - lo for (lo, hi), in p.bounds]
    assert np.allclose(widths, 2.0 * math.pi / 8.0)
    assert p.norm == pytest.approx(2.0 * math.sin(math.pi / 8.0), rel=1e-14)


def test_eq_partition_sphere_four_regions():
    p = eq_partition(2, 4)
    assert p.N == 4
    # polar caps of colatitude pi/3 plus two collar cells
    caps = [b for b in p.bounds if len(b) == 1]
    cells = [b for b in p.bounds if len(b) == 2]
    assert len(caps) == 2 and len(cells) == 2
    assert caps[0][0][1] == pytest.approx(math.pi / 3.0, rel=1e-12)
    assert caps[1][0][0] == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)


def test_eq_partition_single_region():
    for d in (1, 2, 3):
        p = eq_partition(d, 1)
        assert p.N == 1
        assert p.norm == 2.0
        assert p.areas[0] == pytest.approx(1.0, rel=1e-14)


def test_eq_partition_validation():
    with pytest.raises(ValueError):
        eq_partition(0, 5)
    with pytest.raises(ValueError):
        eq_partition(2, 0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [2, 7, 33, 180, 1024])
def test_eq_partition_area_invariants(d, N):
    p = eq_partition(d, N)
    assert p.N == N
    assert np.max(np.abs(p.areas * N - 1.0)) <= 1e-10
    assert abs(p.areas.sum() - 1.0) <= 1e-10


def test_collar_counts_are_nonnegative_and_sum_to_the_regions_off_the_caps(monkeypatch):
    # the running remainder alone keeps every count >= 0 and their sum at N - 2
    seen = []
    collar_counts = sphere._collar_counts

    def recorded(N, fractions):
        counts = collar_counts(N, fractions)
        seen.append((N, counts))
        return counts

    monkeypatch.setattr(sphere, "_collar_counts", recorded)
    for d, top in [(2, 1200), (3, 800), (4, 400), (5, 250), (6, 120)]:
        sphere._eq_regions(d, range(1, top + 1))
    assert len(seen) > 3000
    for N, counts in seen:
        assert min(counts) >= 0 and sum(counts) == N - 2, (N, counts)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_region_diameters_match_the_recursive_bound(d):
    for N in [*range(1, 80), 338, 1000]:
        p = eq_partition(d, N)
        ref = np.array([diameter_bound(b, d) for b in p.bounds])
        assert np.all(np.abs(p.region_diameters - ref) <= 2 * np.spacing(ref)), (d, N)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_region_centers_match_the_recursive_centers(d):
    for N in [*range(1, 80), 338, 1000]:
        p = eq_partition(d, N)
        ref = np.stack([center_by_region(b, d) for b in p.bounds])
        assert np.array_equal(p.centers, ref), (d, N)


@pytest.mark.parametrize("d", range(2, 11))
def test_two_regions_are_the_hemispheres(d):
    # the general construction: polar caps of half the area, no collar
    p = eq_partition(d, 2)
    assert p.bounds == (((0.0, 0.5 * math.pi),), ((0.5 * math.pi, math.pi),))
    assert np.array_equal(p.areas, [0.5, 0.5])


def test_partition_norm_hemispheres():
    assert eq_partition(2, 2).norm == pytest.approx(2.0)


def test_partition_norm_circle_quarters():
    assert eq_partition(1, 4).norm == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_partition_norm_decreases():
    assert eq_partition(2, 100).norm > eq_partition(2, 400).norm


@pytest.mark.parametrize("d", [1, 2, 3])
def test_partition_norm_scaling_band(d):
    values = [
        eq_partition(d, N).norm * N ** (1.0 / d)
        for N in (10, 32, 100, 316, 1000, 3162, 10000)
    ]
    assert max(values) / min(values) <= 4.0


def test_region_center_polar_cap_is_pole():
    p = eq_partition(2, 10)
    assert np.allclose(p.centers[0], [0.0, 0.0, 1.0])
    assert np.allclose(p.centers[p.N - 1], [0.0, 0.0, -1.0])


def test_region_center_arc_midpoint():
    p = eq_partition(1, 4)
    c = p.centers[0]
    assert np.allclose(c, [math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)])


def test_region_centers_are_members():
    for d, N in ((1, 9), (2, 33), (3, 57)):
        p = eq_partition(d, N)
        for i in range(p.N):
            assert region_contains(p, i, p.centers[i]), (d, N, i)


def test_region_sample_membership():
    rng = np.random.default_rng(17)
    p = eq_partition(2, 33)
    for _ in range(300):
        for i, x in enumerate(p.sample(rng)):
            assert region_contains(p, i, x)


def test_region_sample_membership_d3():
    rng = np.random.default_rng(18)
    p = eq_partition(3, 40)
    for _ in range(50):
        for i, x in enumerate(p.sample(rng)):
            assert region_contains(p, i, x)


def test_region_sample_deterministic():
    p = eq_partition(2, 12)
    a = p.sample(np.random.default_rng(4))
    b = p.sample(np.random.default_rng(4))
    assert a.shape == (12, 3)
    assert np.array_equal(a, b)


def test_regions_cover_without_overlap():
    rng = np.random.default_rng(8)
    for d, N in ((1, 8), (2, 25), (3, 30)):
        p = eq_partition(d, N)
        for x in _uniform_points(d, 400, rng):
            owners = [i for i in range(p.N) if region_contains(p, i, x)]
            assert len(owners) == 1, (d, N, owners)


@pytest.mark.parametrize("d, N", [(1, 7), (2, 23), (3, 41)])
def test_partition_json_round_trip(d, N):
    p = eq_partition(d, N)
    for doc in (p.to_dict(), json.loads(json.dumps(p.to_dict()))):
        q = Partition.from_dict(doc)
        assert q == p
        assert np.array_equal(q.centers, p.centers)
        assert np.array_equal(q.region_diameters, p.region_diameters)
        assert np.array_equal(q.areas, p.areas)
