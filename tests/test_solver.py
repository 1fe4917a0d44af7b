import math

import numpy as np
import pytest

from designforge import kernel, solver
from designforge.kernel import (
    Configuration,
    _energy_raw,
    _gradient_raw,
    design_residual,
    make_kernel,
)
from designforge.solver import (
    SolveOptions,
    initial_configuration,
    initial_energy_bound,
    scaling_study,
    solve,
)
from designforge.sphere import _geodesic_rows, eq_partition
from oracles import descent_velocities, region_contains


def _steepest_velocities(spec, X):
    """The velocities -(N/2) G along which the solver's steepest-descent step moves."""
    return -(X.shape[0] / 2.0) * kernel._gradient_raw(spec, X)


def test_solve_options_validation():
    for tolerance in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolveOptions(tolerance=tolerance)
    with pytest.raises(ValueError):
        SolveOptions(max_iterations=-1)


def test_initial_configuration_centers():
    spec = make_kernel(2, 2)
    config, bound = initial_configuration(spec, 4, mode="centers")
    assert config.coords.shape == (4, 3)
    p = eq_partition(2, 4)
    for i in range(4):
        assert region_contains(p.regions[i], config.coords[i])
    assert math.isfinite(_energy_raw(spec, config.coords))
    assert bound == pytest.approx(initial_energy_bound(spec, p))


def test_initial_configuration_random_reproducible():
    spec = make_kernel(2, 3)
    a, _ = initial_configuration(spec, 16, mode="random-in-region", seed=9)
    b, _ = initial_configuration(spec, 16, mode="random-in-region", seed=9)
    assert np.array_equal(a.coords, b.coords)
    c, _ = initial_configuration(spec, 16, mode="random-in-region", seed=10)
    assert not np.array_equal(a.coords, c.coords)


def test_initial_configuration_random_starts_stay_in_regions():
    spec = make_kernel(2, 3)
    p = eq_partition(2, 25)
    config, _ = initial_configuration(spec, 25, mode="random-in-region", seed=3, partition=p)
    for i in range(25):
        assert region_contains(p.regions[i], config.coords[i])


def test_initial_configuration_unknown_mode():
    with pytest.raises(ValueError):
        initial_configuration(make_kernel(2, 2), 4, mode="grid")


def test_initial_energy_bound_hemispheres():
    # d=2, n=1, N=2: g'(1) * norm^2 / N = 1.5 * 4 / 2
    spec = make_kernel(2, 1)
    assert initial_energy_bound(spec, eq_partition(2, 2)) == pytest.approx(3.0)


def test_initial_energy_bound_decreases_with_N():
    spec = make_kernel(2, 4)
    bounds = [initial_energy_bound(spec, eq_partition(2, N)) for N in (100, 400, 1600)]
    assert bounds[0] > bounds[1] > bounds[2]
    # norm ~ N^(-1/2) on S^2 makes the bound scale like N^(-2)
    assert bounds[0] / bounds[2] == pytest.approx(16.0**2, rel=0.5)


def test_descent_velocities_match_energy_gradient():
    # independent derivations: the Gram-form field gradient against
    # -(N/2) times the energy gradient on the zonal-span rule
    rng = np.random.default_rng(44)
    for d in range(1, 7):
        spec = make_kernel(d, 4)
        X = rng.standard_normal((17, d + 1))
        X /= np.linalg.norm(X, axis=1)[:, None]
        velocities = descent_velocities(spec, X)
        grads = _gradient_raw(spec, X)
        assert velocities.shape == grads.shape == X.shape
        for v, g in zip(velocities, grads):
            expected = -(X.shape[0] / 2.0) * g
            scale = max(np.linalg.norm(expected), 1e-30)
            assert np.max(np.abs(v - expected)) <= 1e-12 * scale, d


def test_solve_two_points_reach_antipodal():
    spec = make_kernel(2, 1)
    config = Configuration(spec, np.array([[1.0, 0, 0], [0.0, 1, 0]]))
    final, report = solve(spec, config)
    assert report.terminated == "converged"
    assert report.final_residual <= 1e-12
    assert np.max(np.abs(final.coords.sum(axis=0))) <= 1e-9


def test_solve_partition_init_converges():
    spec = make_kernel(2, 3)
    config, bound = initial_configuration(spec, 32, mode="random-in-region", seed=7)
    final, report = solve(spec, config, SolveOptions(tolerance=1e-12), initial_bound=bound)
    assert report.terminated == "converged"
    assert report.iterations <= 100_000
    assert report.initial_bound == pytest.approx(bound)
    norms = np.linalg.norm(final.coords, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_solve_converged_input_is_noop():
    spec = make_kernel(2, 1)
    config = Configuration(spec, np.array([[0.0, 0, 1], [0.0, 0, -1]]))
    final, report = solve(spec, config)
    assert report.terminated == "converged"
    assert report.iterations <= 1
    assert report.final_residual <= 1e-12


def test_solve_trace_monotone_and_consistent():
    spec = make_kernel(2, 2)
    config, _ = initial_configuration(spec, 12, mode="random-in-region", seed=2)
    final, report = solve(spec, config)
    trace = np.array(report.energy_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert len(report.step_trace) == report.iterations
    assert report.terminated == "converged"
    assert report.final_residual == math.sqrt(max(trace[-1], 0.0))


@pytest.mark.parametrize("d, n, N, seed", [(1, 4, 10, 0), (2, 3, 32, 7), (2, 5, 42, 1)])
def test_converged_solve_reports_its_true_residual(d, n, N, seed):
    spec = make_kernel(d, n)
    config, bound = initial_configuration(spec, N, mode="random-in-region", seed=seed)
    final, report = solve(spec, config, SolveOptions(tolerance=1e-12), initial_bound=bound)
    assert report.terminated == "converged"
    assert 0.0 < report.final_residual <= 1e-12
    assert report.final_residual == math.sqrt(report.energy_trace[-1])
    assert report.final_residual == design_residual(spec, final.coords)


def test_solve_deterministic():
    spec = make_kernel(2, 3)
    config, _ = initial_configuration(spec, 20, mode="random-in-region", seed=5)
    _, r1 = solve(spec, config)
    _, r2 = solve(spec, config)
    assert r1.energy_trace == r2.energy_trace
    assert r1.step_trace == r2.step_trace
    assert r1.final_residual == r2.final_residual


def test_solve_respects_max_iterations():
    spec = make_kernel(2, 4)
    config, _ = initial_configuration(spec, 50, mode="random-in-region", seed=1)
    _, report = solve(spec, config, SolveOptions(max_iterations=3))
    assert report.iterations <= 3
    assert report.terminated in ("max_iterations", "converged")


def test_solve_underpopulated_does_not_converge():
    # N = 6 cannot host a strength-5 design; the solver must report, not loop
    spec = make_kernel(2, 5)
    config, _ = initial_configuration(spec, 6, mode="random-in-region", seed=0)
    _, report = solve(spec, config, SolveOptions(max_iterations=2000))
    assert report.terminated in ("stalled", "max_iterations")
    assert report.final_residual > 1e-3


def test_solve_auto_step_seed_value(monkeypatch):
    # with no memory the first direction is the steepest-descent step at the
    # curvature-certificate seed; step_trace holds its accepted multiplier
    spec = make_kernel(2, 2)
    config, _ = initial_configuration(spec, 8, mode="centers")
    X = config.coords
    trials = []
    energy_raw = solver._energy_raw

    def recorded_energy(spec, Y, fields=False):
        trials.append(np.array(Y))
        return energy_raw(spec, Y, fields=fields)

    monkeypatch.setattr(solver, "_energy_raw", recorded_energy)
    _, report = solve(spec, config)
    assert 0.0 < report.step_trace[0] <= 1.0
    step0 = 1.0 / (3.0 * spec.gpp1 + spec.gp1)
    expected = _geodesic_rows(X, _steepest_velocities(spec, X), step0)
    assert np.array_equal(trials[0], X)
    assert np.max(np.abs(trials[1] - expected)) <= 1e-15


def test_solve_report_serializes():
    spec = make_kernel(2, 1)
    config = Configuration(spec, np.array([[0.0, 0, 1], [0.0, 0, -1]]))
    _, report = solve(spec, config)
    doc = report.to_dict()
    assert set(doc) == {
        "iterations", "energy_trace", "step_trace", "final_residual",
        "terminated", "initial_bound",
    }


def test_scaling_study_rows():
    rows = scaling_study(2, [1, 2, 3], lambda n: 2 * (n + 1) ** 2, seed=0)
    assert [r["n"] for r in rows] == [1, 2, 3]
    for r in rows:
        assert r["converged"] is True
        assert r["residual"] <= 1e-12
        assert set(r) == {"d", "n", "N", "converged", "residual", "iterations", "seconds"}


def test_solver_iterates_stay_unit():
    spec = make_kernel(3, 3)
    config, _ = initial_configuration(spec, 60, mode="random-in-region", seed=11)
    final, report = solve(spec, config)
    assert report.terminated == "converged"
    assert np.max(np.abs(np.linalg.norm(final.coords, axis=1) - 1.0)) <= 1e-12


def test_energy_decrease_satisfies_armijo_condition():
    spec = make_kernel(2, 3)
    config, _ = initial_configuration(spec, 24, mode="random-in-region", seed=8)
    X = config.coords
    V = _steepest_velocities(spec, X)
    S = float(np.sum(V * V))
    e0 = _energy_raw(spec, X)
    # a property of the curvature-certificate step, so the constant is 0.5
    # and not the solver's line-search constant
    t = 1.0 / (3.0 * spec.gpp1 + spec.gp1)
    e1 = _energy_raw(spec, _geodesic_rows(X, V, t))
    assert e1 <= e0 - 0.5 * t * (2.0 / X.shape[0]) * S


def test_solve_makes_one_field_pass_per_energy_call(monkeypatch):
    # the gradient at an accepted point reuses the fields its energy call built
    calls = {"fields": 0, "energy": 0, "gradient": 0}
    fields, energy_raw, gradient_raw = kernel._fields, solver._energy_raw, solver._gradient_raw

    def counted_fields(spec, X):
        calls["fields"] += 1
        return fields(spec, X)

    def counted_energy(*args, **kwargs):
        calls["energy"] += 1
        return energy_raw(*args, **kwargs)

    def checked_gradient(spec, X, F=None):
        calls["gradient"] += 1
        assert F is not None and np.array_equal(F, fields(spec, X))
        return gradient_raw(spec, X, F)

    monkeypatch.setattr(kernel, "_fields", counted_fields)
    monkeypatch.setattr(solver, "_energy_raw", counted_energy)
    monkeypatch.setattr(solver, "_gradient_raw", checked_gradient)
    spec = make_kernel(2, 6)
    config, _ = initial_configuration(spec, 98, mode="random-in-region", seed=3)
    _, report = solve(spec, config)
    assert report.terminated == "converged" and report.iterations > 10
    # the start plus at least one trial per iteration; no line search failed
    assert calls["energy"] >= report.iterations + 1
    assert calls["gradient"] == report.iterations
    assert calls["fields"] == calls["energy"]


@pytest.mark.parametrize("N, seed", [(28, 0), (28, 1), (28, 2), (26, 0)])
def test_solve_converges_near_the_existence_threshold(N, seed):
    # N close to the smallest 6-designs on S^2; steepest descent ended these
    # solves at residuals 5.9e-6 to 5.1e-5 after 3000 iterations
    spec = make_kernel(2, 6)
    config, _ = initial_configuration(spec, N, mode="random-in-region", seed=seed)
    final, report = solve(spec, config, SolveOptions(max_iterations=3000))
    assert report.terminated == "converged"
    assert report.final_residual <= 1e-12
    assert report.final_residual == design_residual(spec, final.coords)


def test_solve_failed_line_search_restarts_from_steepest_descent(monkeypatch):
    # from the sixth energy call on the energy stops decreasing: the L-BFGS
    # search in progress fails, the memory is cleared, the next search starts
    # at the seeded steepest-descent step with the same gradient, and its
    # failure ends the solve
    spec = make_kernel(2, 3)
    config, _ = initial_configuration(spec, 24, mode="random-in-region", seed=4)
    energy_raw, gradient_raw = solver._energy_raw, solver._gradient_raw
    trials = []
    gradients = []

    def counted_gradient(spec, X, F=None):
        gradients.append(np.array(X))
        return gradient_raw(spec, X, F)

    def energy_that_stops_decreasing(spec, Y, fields=False):
        trials.append(np.array(Y))
        E, F = energy_raw(spec, Y, fields=True)
        if len(trials) > 5:
            E += 1.0
        return (E, F) if fields else E

    monkeypatch.setattr(solver, "_energy_raw", energy_that_stops_decreasing)
    monkeypatch.setattr(solver, "_gradient_raw", counted_gradient)
    final, report = solve(spec, config)
    assert report.terminated == "stalled"
    assert report.iterations >= 2
    assert len(gradients) == report.iterations + 1
    assert np.max(np.abs(gradients[-1] - final.coords)) <= 1e-15
    limit = solver._MAX_BACKTRACKS
    assert len(trials) == 1 + report.iterations + 2 * limit
    X = final.coords
    step0 = 1.0 / (3.0 * spec.gpp1 + spec.gp1)
    steepest = _geodesic_rows(X, _steepest_velocities(spec, X), step0)
    assert np.max(np.abs(trials[-limit] - steepest)) <= 1e-15
    assert np.max(np.abs(trials[-2 * limit] - steepest)) > 1e-3
