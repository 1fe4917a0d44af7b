import math

import numpy as np
import pytest
from scipy.stats import kstest

from designforge.sphere import (
    Partition,
    _geodesic_rows,
    cap_area_fraction,
    cap_colatitude,
    eq_partition,
    off_sphere_rows,
    tangent_rows,
)
from oracles import region_contains


def _uniform_points(d, count, rng):
    """count uniform points on S^d, drawn by the one-region partition's sampler."""
    whole = eq_partition(d, 1).regions[0]
    return np.stack([whole.sample(rng) for _ in range(count)])


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


def test_tangent_rows_idempotent():
    rng = np.random.default_rng(3)
    X = _uniform_points(3, 40, rng)
    once = tangent_rows(X, rng.standard_normal((40, 4)))
    twice = tangent_rows(X, once)
    scale = np.maximum(1.0, np.linalg.norm(once, axis=1))
    assert np.all(np.max(np.abs(once - twice), axis=1) <= 1e-14 * scale)
    assert np.max(np.abs(np.einsum("ij,ij->i", once, X))) <= 1e-14


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


def test_eq_partition_circle():
    p = eq_partition(1, 8)
    assert p.N == 8
    widths = [hi - lo for (lo, hi), in (r.levels for r in p.regions)]
    assert np.allclose(widths, 2.0 * math.pi / 8.0)
    assert p.norm == pytest.approx(2.0 * math.sin(math.pi / 8.0), rel=1e-14)


def test_eq_partition_sphere_four_regions():
    p = eq_partition(2, 4)
    assert p.N == 4
    # polar caps of colatitude pi/3 plus two collar cells
    caps = [r for r in p.regions if len(r.levels) == 1]
    cells = [r for r in p.regions if len(r.levels) == 2]
    assert len(caps) == 2 and len(cells) == 2
    assert caps[0].levels[0][1] == pytest.approx(math.pi / 3.0, rel=1e-12)
    assert caps[1].levels[0][0] == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)


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
    assert np.allclose(p.regions[0].center(), [0.0, 0.0, 1.0])
    assert np.allclose(p.regions[p.N - 1].center(), [0.0, 0.0, -1.0])


def test_region_center_arc_midpoint():
    p = eq_partition(1, 4)
    c = p.regions[0].center()
    assert np.allclose(c, [math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)])


def test_region_centers_are_members():
    for d, N in ((1, 9), (2, 33), (3, 57)):
        p = eq_partition(d, N)
        for i, r in enumerate(p.regions):
            assert region_contains(r, p.centers[i]), (d, N, i)


def test_region_sample_membership():
    rng = np.random.default_rng(17)
    p = eq_partition(2, 33)
    for _ in range(10_000):
        i = int(rng.integers(p.N))
        x = p.regions[i].sample(rng)
        assert region_contains(p.regions[i], x)


def test_region_sample_membership_d3():
    rng = np.random.default_rng(18)
    p = eq_partition(3, 40)
    for _ in range(2000):
        i = int(rng.integers(p.N))
        assert region_contains(p.regions[i], p.regions[i].sample(rng))


def test_region_sample_deterministic():
    p = eq_partition(2, 12)
    a = p.regions[5].sample(np.random.default_rng(4))
    b = p.regions[5].sample(np.random.default_rng(4))
    assert np.array_equal(a, b)


def test_regions_cover_without_overlap():
    rng = np.random.default_rng(8)
    for d, N in ((1, 8), (2, 25), (3, 30)):
        p = eq_partition(d, N)
        for x in _uniform_points(d, 400, rng):
            owners = [i for i, r in enumerate(p.regions) if region_contains(r, x)]
            assert len(owners) == 1, (d, N, owners)


def test_partition_json_round_trip():
    p = eq_partition(2, 23)
    q = Partition.from_dict(p.to_dict())
    assert q.N == p.N and q.d == p.d
    assert np.allclose(q.centers, p.centers)
    assert np.allclose(q.region_diameters, p.region_diameters)
    assert np.allclose(q.areas, p.areas)
