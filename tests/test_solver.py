import math

import numpy as np
import pytest

from designforge import kernel, solver
from designforge.kernel import (
    Configuration,
    _energy_raw,
    _fields,
    _gradient_raw,
    _jacobian_raw,
    _residual_raw,
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
        assert region_contains(p, i, config.coords[i])
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
    config, _ = initial_configuration(spec, 25, mode="random-in-region", seed=3)
    for i in range(25):
        assert region_contains(p, i, config.coords[i])


# rows 0, N // 2 and N - 1 of the seed-3 starts, as float.hex, recorded
# before the partition became its bounds: the sampling order and every
# start must stay bit for bit the same.  Re-recorded when the cap area and
# its inverse moved from scipy.special to numpy, which moved these entries
# by at most 3.3e-16 (the S^2 center now sits on the equator exactly)
_PINNED_STARTS = {
    (2, 25, "random-in-region"): [
        ["-0x1.d863ec1412451p-4", "0x1.3520583c7344ep-6", "0x1.fc7de7448299dp-1"],
        ["-0x1.feef1f7fcab7bp-1", "0x1.4786adfd08cb5p-6", "-0x1.f64fbbbfe8642p-5"],
        ["0x1.35bcf57a061a6p-2", "-0x1.ca1fe9d11affap-5", "-0x1.e72cde1258536p-1"],
    ],
    (3, 30, "random-in-region"): [
        ["-0x1.d2df3e036f04bp-3", "0x1.3183e78d70d32p-5", "-0x1.9ee2270145344p-5",
         "0x1.f17a415bea303p-1"],
        ["0x1.e8939a60f051dp-3", "-0x1.6951d8b6bc646p-5", "0x1.6270142a215c1p-1",
         "-0x1.5bfa5d6cda95ap-1"],
        ["-0x1.5171773826547p-2", "-0x1.6b89cf21e3c6ap-3", "0x1.fc6248f5493fap-4",
         "-0x1.d68249f4d4f3ep-1"],
    ],
    (2, 25, "centers"): [
        ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
        ["-0x1.0000000000000p+0", "0x1.1a62633145c07p-53", "0x1.1a62633145c07p-54"],
        ["0x0.0p+0", "0x1.1a62633145c07p-53", "-0x1.0000000000000p+0"],
    ],
    (3, 30, "centers"): [
        ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
        ["0x0.0p+0", "0x0.0p+0", "0x1.bed1cf61a4372p-1", "-0x1.f3fc2e870780ap-2"],
        ["0x0.0p+0", "0x0.0p+0", "0x1.1a62633145c07p-53", "-0x1.0000000000000p+0"],
    ],
}


@pytest.mark.parametrize("d, N, mode", list(_PINNED_STARTS))
def test_initial_configuration_starts_are_pinned(d, N, mode):
    config, _ = initial_configuration(make_kernel(d, 3), N, mode=mode, seed=3)
    rows = [[float(v).hex() for v in config.coords[i]] for i in (0, N // 2, N - 1)]
    assert rows == _PINNED_STARTS[d, N, mode]


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


def test_solve_stalls_where_no_design_is_known():
    # no 22-point 6-design on S^2 is known; this start stalls near residual
    # 0.0118
    spec = make_kernel(2, 6)
    config, _ = initial_configuration(spec, 22, mode="random-in-region", seed=0)
    _, report = solve(spec, config, SolveOptions(max_iterations=3000))
    assert report.terminated in ("stalled", "max_iterations")
    assert report.final_residual > 1e-3


def test_solve_underpopulated_does_not_converge():
    # N = 6 cannot host a strength-5 design; the solver must report, not loop
    spec = make_kernel(2, 5)
    config, _ = initial_configuration(spec, 6, mode="random-in-region", seed=0)
    _, report = solve(spec, config, SolveOptions(max_iterations=2000))
    assert report.terminated in ("stalled", "max_iterations")
    assert report.final_residual > 1e-3


def test_solve_auto_step_seed_value(monkeypatch):
    # with no memory the first L-BFGS direction is the steepest-descent step
    # at the curvature-certificate seed; step_trace holds its accepted
    # multiplier.  A zero J budget keeps the solve on L-BFGS.
    monkeypatch.setattr(solver, "_JACOBIAN_DOUBLES", 0)
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
    # schema: kind_trace and lm_steps joined the report with the LM finish
    assert set(doc) == {
        "iterations", "energy_trace", "step_trace", "final_residual",
        "terminated", "initial_bound", "kind_trace", "lm_steps",
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


def _solve_counting_calls(monkeypatch):
    """Solve (2, 6, 98) seed 3, counting field passes, energy calls and
    gradients; each gradient must receive the residual of its rows."""
    calls = {"fields": 0, "energy": 0, "gradient": 0}
    fields, energy_raw, gradient_raw = kernel._fields, solver._energy_raw, solver._gradient_raw

    def counted_fields(spec, X):
        calls["fields"] += 1
        return fields(spec, X)

    def counted_energy(*args, **kwargs):
        calls["energy"] += 1
        return energy_raw(*args, **kwargs)

    def checked_gradient(spec, X, r=None):
        calls["gradient"] += 1
        assert r is not None
        assert all(map(np.array_equal, r, kernel._residual_raw(spec, fields(spec, X))))
        return gradient_raw(spec, X, r)

    monkeypatch.setattr(kernel, "_fields", counted_fields)
    monkeypatch.setattr(solver, "_energy_raw", counted_energy)
    monkeypatch.setattr(solver, "_gradient_raw", checked_gradient)
    spec = make_kernel(2, 6)
    config, _ = initial_configuration(spec, 98, mode="random-in-region", seed=3)
    _, report = solve(spec, config)
    return report, calls


def test_solve_makes_one_field_pass_per_energy_call(monkeypatch):
    # the gradient at an accepted point reuses the residual its energy call
    # built; a zero J budget keeps the solve on L-BFGS
    monkeypatch.setattr(solver, "_JACOBIAN_DOUBLES", 0)
    report, calls = _solve_counting_calls(monkeypatch)
    assert report.terminated == "converged" and report.iterations > 10
    # the start plus at least one trial per iteration; no line search failed
    assert calls["energy"] >= report.iterations + 1
    assert calls["gradient"] == report.iterations
    assert calls["fields"] == calls["energy"]


def test_lm_finish_takes_no_gradient_and_no_field_pass_of_its_own(monkeypatch):
    # the same solve by LM steps: one field pass per energy call still,
    # and no gradient
    report, calls = _solve_counting_calls(monkeypatch)
    assert report.terminated == "converged" and report.lm_steps == report.iterations > 0
    assert calls["energy"] >= report.iterations + 1
    assert calls["gradient"] == 0
    assert calls["fields"] == calls["energy"]


@pytest.mark.parametrize("N, seed", [(28, 0), (28, 1), (28, 2), (26, 0), (24, 0), (24, 1), (24, 2)])
def test_solve_converges_near_the_existence_threshold(N, seed):
    # N close to the smallest 6-designs on S^2 (McLaren's 24-point
    # 7-design); steepest descent ended the N = 26, 28 solves at residuals
    # 5.9e-6 to 5.1e-5 after 3000 iterations, and L-BFGS alone the N = 24
    # ones at 1.3e-8 (seed 0) and 1.1e-8 (seed 2).  N = 24 seed 1 stalled
    # at 3.56e-3 when L-BFGS ran before the LM steps; LM steps from the
    # start converge it
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
    # failure ends the solve.  A zero J budget keeps the solve on L-BFGS.
    monkeypatch.setattr(solver, "_JACOBIAN_DOUBLES", 0)
    spec = make_kernel(2, 3)
    config, _ = initial_configuration(spec, 24, mode="random-in-region", seed=4)
    energy_raw, gradient_raw = solver._energy_raw, solver._gradient_raw
    trials = []
    gradients = []

    def counted_gradient(spec, X, r=None):
        gradients.append(np.array(X))
        return gradient_raw(spec, X, r)

    def energy_that_stops_decreasing(spec, Y, fields=False):
        trials.append(np.array(Y))
        E, r = energy_raw(spec, Y, fields=True)
        if len(trials) > 5:
            E += 1.0
        return (E, r) if fields else E

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


def test_solve_kind_trace_names_every_iteration(monkeypatch):
    # where J fits its budget, LM steps from the start, each taken whole;
    # past it, L-BFGS from a steepest-descent first step, with no LM step
    spec = make_kernel(2, 6)
    config, _ = initial_configuration(spec, 98, mode="random-in-region", seed=3)
    _, report = solve(spec, config)
    assert report.terminated == "converged" and report.iterations > 0
    assert report.kind_trace == ["lm"] * report.iterations == ["lm"] * report.lm_steps
    assert report.step_trace == [1.0] * report.iterations
    monkeypatch.setattr(solver, "_JACOBIAN_DOUBLES", 0)
    _, report = solve(spec, config)
    kinds = report.kind_trace
    assert report.terminated == "converged" and report.lm_steps == 0
    assert len(kinds) == len(report.step_trace) == report.iterations > 1
    assert kinds[0] == "steepest" and set(kinds[1:]) <= {"steepest", "lbfgs"}
    assert "lbfgs" in kinds


def _residual_vector(spec, X):
    return np.concatenate(_residual_raw(spec, _fields(spec, X)))


def test_lm_step_tends_to_the_minimum_norm_least_squares_step():
    # (2, 3, 20): J is 15 x 40 of full row rank, so as mu -> 0 the LM step
    # tends to the minimum-norm solution of J delta = -r, and the model's
    # predicted decrease |r|^2 - |r + J delta|^2 to all of |r|^2
    spec = make_kernel(2, 3)
    config, _ = initial_configuration(spec, 20, mode="random-in-region", seed=1)
    J, _ = _jacobian_raw(spec, config.coords)
    r = _residual_vector(spec, config.coords)
    A = J @ J.T
    assert J.shape == (15, 40) and np.linalg.matrix_rank(J) == 15
    expected = np.linalg.lstsq(J, -r, rcond=None)[0]
    scale = float(np.max(np.diagonal(A)))
    errors = []
    for mu in (1e-3 * scale, 1e-6 * scale, 1e-9 * scale, 1e-12 * scale, 0.0):
        delta, predicted = solver._lm_step(J, A, r, mu)
        errors.append(np.max(np.abs(delta - expected)) / np.max(np.abs(expected)))
        linear = r @ r - np.sum((r + J @ delta) ** 2)
        assert predicted == pytest.approx(linear, rel=1e-12, abs=1e-16 * (r @ r))
    assert errors == sorted(errors, reverse=True)
    assert errors[-2] <= 1e-10 and errors[-1] <= 1e-13
    assert predicted == pytest.approx(r @ r, rel=1e-13)


def test_lm_finish_stalls_when_no_trial_decreases(monkeypatch):
    # once the first Jacobian is built every energy comes back raised, so
    # every LM trial is rejected and the damping grows until the solve
    # stalls at the start point, with no LM step taken
    spec = make_kernel(2, 6)
    config, _ = initial_configuration(spec, 98, mode="random-in-region", seed=3)
    energy_raw, jacobian_raw = solver._energy_raw, solver._jacobian_raw
    jacobians = []

    def counted_jacobian(spec, X, out=None):
        jacobians.append(np.array(X))
        return jacobian_raw(spec, X, out)

    def energy_raised_after_the_first_jacobian(spec, Y, fields=False):
        E, r = energy_raw(spec, Y, fields=True)
        if jacobians:
            E += 1.0
        return (E, r) if fields else E

    monkeypatch.setattr(solver, "_energy_raw", energy_raised_after_the_first_jacobian)
    monkeypatch.setattr(solver, "_jacobian_raw", counted_jacobian)
    final, report = solve(spec, config)
    assert report.terminated == "stalled"
    assert report.iterations == report.lm_steps == 0 and report.kind_trace == []
    assert np.array_equal(final.coords, config.coords)
    assert len(jacobians) == 1 and np.array_equal(jacobians[0], final.coords)
    assert report.energy_trace == [_energy_raw(spec, config.coords)]
    assert report.final_residual == design_residual(spec, final.coords)


def test_lm_finish_needs_j_and_its_gram_within_the_budget(monkeypatch):
    # J (48 x 196) and J J^T (48 x 48) at (2, 6, 98): at the budget the
    # solve is LM steps to the end, one double past it L-BFGS to the end
    spec = make_kernel(2, 6)
    config, _ = initial_configuration(spec, 98, mode="random-in-region", seed=3)
    need = 48 * (2 * 98 + 48)
    monkeypatch.setattr(solver, "_JACOBIAN_DOUBLES", need)
    _, at = solve(spec, config)
    monkeypatch.setattr(solver, "_JACOBIAN_DOUBLES", need - 1)
    _, past = solve(spec, config)
    assert at.terminated == past.terminated == "converged"
    assert at.kind_trace == ["lm"] * at.iterations and at.lm_steps == at.iterations > 0
    assert past.lm_steps == 0 and past.kind_trace[0] == "steepest" and "lm" not in past.kind_trace
