import math

import numpy as np
import pytest
from scipy.stats import kstest

from designforge.sphere import (
    Partition,
    TangentVector,
    UnitPoint,
    cap_area_fraction,
    cap_colatitude,
    eq_partition,
    geodesic_step,
    normalize,
    random_point,
    off_sphere_rows,
    tangent_project,
)


def test_normalize_scaling():
    p = normalize([2.0, 0.0, 0.0])
    assert np.allclose(p.coords, [1.0, 0.0, 0.0])


def test_normalize_symmetry():
    p = normalize([1.0, 1.0, 0.0, 0.0])
    r = math.sqrt(2.0) / 2.0
    assert np.allclose(p.coords, [r, r, 0.0, 0.0])


def test_normalize_rejects_zero():
    with pytest.raises(ValueError, match="degenerate direction"):
        normalize([0.0, 0.0, 0.0])


def test_unit_point_validation():
    with pytest.raises(ValueError):
        UnitPoint(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        UnitPoint(np.array([np.nan, 0.0, 0.0]))


def test_off_sphere_rows_flags_non_finite_and_off_tolerance_rows():
    X = np.tile([0.0, 0.6, 0.8], (6, 1))
    X[1, 0] = np.nan
    X[2, 2] = np.inf
    X[3] *= 1.0 + 1e-11
    X[4] *= 1.0 + 1e-14
    assert off_sphere_rows(X).tolist() == [1, 2, 3]


def test_tangent_project_removes_radial_part():
    t = tangent_project(UnitPoint(np.array([1.0, 0, 0])), [1.0, 1.0, 0.0])
    assert np.allclose(t.dir, [0.0, 1.0, 0.0])


def test_tangent_project_purely_radial_gives_zero():
    t = tangent_project(UnitPoint(np.array([0.0, 0, 1.0])), [0.0, 0.0, 5.0])
    assert np.allclose(t.dir, 0.0)


def test_tangent_project_keeps_tangential():
    t = tangent_project(UnitPoint(np.array([1.0, 0, 0])), [0.0, 2.0, 3.0])
    assert np.allclose(t.dir, [0.0, 2.0, 3.0])


def test_tangent_project_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = random_point(3, rng)
        v = rng.standard_normal(4)
        once = tangent_project(x, v).dir
        twice = tangent_project(x, once).dir
        assert np.max(np.abs(once - twice)) <= 1e-14 * max(1.0, np.linalg.norm(once))


def test_geodesic_quarter_circle():
    x = UnitPoint(np.array([1.0, 0, 0]))
    v = TangentVector(x, np.array([0.0, 1.0, 0]))
    out = geodesic_step(x, v, math.pi / 2.0)
    assert np.allclose(out.coords, [0.0, 1.0, 0.0], atol=1e-15)


def test_geodesic_zero_time_identity():
    rng = np.random.default_rng(5)
    x = random_point(2, rng)
    v = tangent_project(x, rng.standard_normal(3))
    out = geodesic_step(x, v, 0.0)
    assert np.array_equal(out.coords, x.coords)


def test_geodesic_arc_length_scaling():
    # speed 2 for time pi/4 -> arc pi/2
    x = UnitPoint(np.array([1.0, 0, 0]))
    v = TangentVector(x, np.array([0.0, 2.0, 0]))
    out = geodesic_step(x, v, math.pi / 4.0)
    assert np.allclose(out.coords, [0.0, 1.0, 0.0], atol=1e-15)


def test_geodesic_preserves_unit_norm():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = random_point(3, rng)
        v = tangent_project(x, rng.standard_normal(4))
        out = geodesic_step(x, v, rng.random() * 3.0)
        assert abs(np.linalg.norm(out.coords) - 1.0) <= 1e-14


def test_geodesic_group_property():
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = random_point(2, rng)
        v = tangent_project(x, rng.standard_normal(3))
        w = v.norm
        if w == 0.0:
            continue
        u = v.dir / w
        t, s = 0.4, 0.9
        mid = geodesic_step(x, v, t)
        # velocity parallel-transported along the circle
        vt = w * (-x.coords * math.sin(w * t) + u * math.cos(w * t))
        two_leg = geodesic_step(mid, TangentVector(mid, vt), s)
        direct = x.coords * math.cos(w * (t + s)) + u * math.sin(w * (t + s))
        assert np.max(np.abs(two_leg.coords - direct)) <= 1e-12


def test_random_point_moment_bound():
    rng = np.random.default_rng(123)
    X = np.stack([random_point(2, rng).coords for _ in range(100_000)])
    sigma = (1.0 / math.sqrt(3.0)) / math.sqrt(100_000)
    assert np.max(np.abs(X.mean(axis=0))) <= 4.0 * sigma


def test_random_point_deterministic_under_seed():
    a = np.stack([random_point(2, np.random.default_rng(7)).coords for _ in range(5)])
    b = np.stack([random_point(2, np.random.default_rng(7)).coords for _ in range(5)])
    assert np.array_equal(a, b)


def test_random_point_circle_uniform_angle():
    rng = np.random.default_rng(99)
    X = np.stack([random_point(1, rng).coords for _ in range(10_000)])
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
    assert np.allclose(p.regions[0].center().coords, [0.0, 0.0, 1.0])
    assert np.allclose(p.regions[p.N - 1].center().coords, [0.0, 0.0, -1.0])


def test_region_center_arc_midpoint():
    p = eq_partition(1, 4)
    c = p.regions[0].center()
    assert np.allclose(c.coords, [math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)])


def test_region_centers_are_members():
    for d, N in ((1, 9), (2, 33), (3, 57)):
        p = eq_partition(d, N)
        for i, r in enumerate(p.regions):
            assert r.contains(p.centers[i]), (d, N, i)


def test_region_sample_membership():
    rng = np.random.default_rng(17)
    p = eq_partition(2, 33)
    for _ in range(10_000):
        i = int(rng.integers(p.N))
        x = p.regions[i].sample(rng)
        assert p.regions[i].contains(x.coords)


def test_region_sample_membership_d3():
    rng = np.random.default_rng(18)
    p = eq_partition(3, 40)
    for _ in range(2000):
        i = int(rng.integers(p.N))
        assert p.regions[i].contains(p.regions[i].sample(rng).coords)


def test_region_sample_deterministic():
    p = eq_partition(2, 12)
    a = p.regions[5].sample(np.random.default_rng(4)).coords
    b = p.regions[5].sample(np.random.default_rng(4)).coords
    assert np.array_equal(a, b)


def test_regions_cover_without_overlap():
    rng = np.random.default_rng(8)
    for d, N in ((1, 8), (2, 25), (3, 30)):
        p = eq_partition(d, N)
        for _ in range(400):
            x = random_point(d, rng).coords
            owners = [i for i, r in enumerate(p.regions) if r.contains(x)]
            assert len(owners) == 1, (d, N, owners)


def test_partition_json_round_trip():
    p = eq_partition(2, 23)
    q = Partition.from_dict(p.to_dict())
    assert q.N == p.N and q.d == p.d
    assert np.allclose(q.centers, p.centers)
    assert np.allclose(q.region_diameters, p.region_diameters)
    assert np.allclose(q.areas, p.areas)
