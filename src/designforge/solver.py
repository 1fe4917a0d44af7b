"""Geodesic descent on the design energy, with area-regular initialization.

Each iteration moves every point along the great circle generated by the
negative field gradient -grad Phi(x_i) = -(N/2) * grad energy, with an
Armijo backtracking line search on the energy.  The step seed comes from
the curvature certificate (3 g''(1) + g'(1)); the line search adapts it.
The energy is the kernel's sum of squares, free of cancellation, so the
line-search comparisons stay meaningful down to the 1e-24 achieved-zero
scale on one float64 path.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    Configuration,
    _energy_raw,
    _gradient_raw,
    gw_d1,
    make_kernel,
)
from .sphere import TangentVector, UnitPoint, _geodesic_rows, eq_partition

# perfbench/tracing.py wraps this name; solve calls _energy_raw only
_energy_dd_raw = _energy_raw
_STALL_LIMIT = 50
_STALL_RELATIVE = 1e-16
_MAX_BACKTRACKS = 80
# Armijo line search: step shrink factor and sufficient-decrease constant
_BACKTRACKING = 0.5
_ARMIJO = 0.5


@dataclass
class SolveOptions:
    max_iterations: int = 100_000
    tolerance: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


@dataclass
class SolveReport:
    iterations: int
    energy_trace: list
    step_trace: list
    final_residual: float
    terminated: str
    initial_bound: float = None

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "energy_trace": list(self.energy_trace),
            "step_trace": list(self.step_trace),
            "final_residual": self.final_residual,
            "terminated": self.terminated,
            "initial_bound": self.initial_bound,
        }


def initial_energy_bound(spec, partition):
    """Upper bound g'(1) * |R|^2 / N on the mean energy of one-point-per-region
    sampling.

    The cross-region expectation vanishes (every zonal kernel slice is
    mean-zero), and each diagonal term is bounded through the kernel's
    Lipschitz constant at 1, so independent uniform sampling inside an
    area-regular partition starts the descent at energy O(|R|^2 / N).
    """
    return spec.gp1 * partition.norm**2 / partition.N


def initial_configuration(spec, N, mode="centers", seed=0, partition=None):
    """Area-regular starting configuration plus its predicted energy bound.

    mode "centers" places one point at each region center; mode
    "random-in-region" samples each region uniformly (seeded).
    Returns (Configuration, predicted_bound); pass a prebuilt partition to
    avoid constructing it twice.
    """
    if partition is None:
        partition = eq_partition(spec.d, N)
    if partition.d != spec.d or partition.N != N:
        raise ValueError("partition does not match requested (d, N)")
    if mode == "centers":
        X = np.array(partition.centers, dtype=float)
    elif mode == "random-in-region":
        rng = np.random.default_rng(seed)
        X = np.stack([partition.regions[i].sample(rng).coords for i in range(N)])
    else:
        raise ValueError(f"unknown initialization mode {mode!r}")
    return Configuration(spec, X), initial_energy_bound(spec, partition)


def descent_velocities(config):
    """Per-point descent velocities -grad Phi(x_i), derived from the Gram
    form of the field Phi(y) = (1/N) sum_j g(<x_j, y>) directly: O(N^2), the
    independent reference the tests hold the energy gradient to."""
    spec = config.spec
    X = config.coords
    N = X.shape[0]
    out = []
    for i in range(N):
        t = np.clip(X @ X[i], -1.0, 1.0)
        w = gw_d1(spec, t)
        proj = X - t[:, None] * X[i]
        v = -(w[:, None] * proj).sum(axis=0) / N
        v -= (v @ X[i]) * X[i]
        out.append(TangentVector(UnitPoint(X[i]), v))
    return out


def _velocity_rows(spec, X, F=None):
    """Hot-path velocities -(N/2) * energy gradient, row-stacked; F is the
    fields of X when the energy call that accepted X already built them."""
    return -(X.shape[0] / 2.0) * _gradient_raw(spec, X, F)


def descent_step(config, t):
    """One geodesic step of size t along the descent velocities."""
    if t < 0.0:
        raise ValueError("step size must be nonnegative")
    V = _velocity_rows(config.spec, config.coords)
    return config.with_coords(_geodesic_rows(config.coords, V, t))


def solve(spec, init, opts=None, initial_bound=None):
    """Drive a configuration to a spherical design by monotone geodesic descent.

    Returns (Configuration, SolveReport); terminated is "converged" exactly
    when the final residual sqrt(energy) is at or below opts.tolerance.
    The energy trace and final residual hold the energies as computed, not
    clamped to 0 below the achieved-zero threshold.
    """
    opts = opts or SolveOptions()
    if init.spec is not spec and (init.spec.d != spec.d or init.spec.n != spec.n):
        raise ValueError("configuration was built for a different kernel")
    X = np.array(init.coords, dtype=float)
    N = X.shape[0]
    tol2 = opts.tolerance**2

    # every energy call keeps its fields F, so the gradient at the accepted
    # point reuses them: one field pass per trial point
    E, F = _energy_raw(spec, X, fields=True)
    if not np.isfinite(E):
        raise ArithmeticError("numerical blowup: non-finite energy")

    step = 1.0 / (3.0 * spec.gpp1 + spec.gp1)

    energy_trace = [E]
    step_trace = []
    iterations = 0
    stall = 0
    terminated = "max_iterations"
    for _ in range(opts.max_iterations + 1):
        if E <= tol2:
            terminated = "converged"
            break
        if iterations >= opts.max_iterations:
            break

        V = _velocity_rows(spec, X, F)
        S = float(np.einsum("ij,ij->", V, V))
        if S == 0.0:
            terminated = "stalled"
            break
        deriv = -(2.0 / N) * S

        t = step
        accepted = False
        first_try = True
        for _bt in range(_MAX_BACKTRACKS):
            Xt = _geodesic_rows(X, V, t)
            Et, Ft = _energy_raw(spec, Xt, fields=True)
            if not np.isfinite(Et):
                raise ArithmeticError("numerical blowup: non-finite energy")
            if Et <= E + _ARMIJO * t * deriv:
                accepted = True
                break
            t *= _BACKTRACKING
            first_try = False
        if not accepted:
            stall += 1
            if stall >= _STALL_LIMIT:
                terminated = "stalled"
                break
            step *= _BACKTRACKING
            continue

        X, F = Xt, Ft
        iterations += 1
        previous = E
        E = Et
        step_trace.append(t)
        energy_trace.append(E)
        relative_drop = (previous - E) / max(abs(previous), 1e-300)
        stall = 0 if relative_drop >= _STALL_RELATIVE else stall + 1
        if stall >= _STALL_LIMIT:
            terminated = "stalled"
            break
        step = t / _BACKTRACKING if first_try else t

    final_residual = float(np.sqrt(E))
    report = SolveReport(
        iterations=iterations,
        energy_trace=energy_trace,
        step_trace=step_trace,
        final_residual=final_residual,
        terminated=terminated,
        initial_bound=initial_bound,
    )
    return Configuration(spec, X), report


def scaling_study(d, n_values, N_rule, opts=None, mode="random-in-region", seed=0):
    """Solve across a strength range with N = N_rule(n); returns result rows.

    Observational only: reports where the solver certifies a design at desk
    scale, with no claim about the asymptotic existence threshold.
    """
    rows = []
    for n in n_values:
        N = int(N_rule(n))
        spec = make_kernel(d, n)
        start = time.perf_counter()
        config, bound = initial_configuration(spec, N, mode=mode, seed=seed)
        final, report = solve(spec, config, opts, initial_bound=bound)
        elapsed = time.perf_counter() - start
        rows.append({
            "d": d,
            "n": n,
            "N": N,
            "converged": report.terminated == "converged",
            "residual": report.final_residual,
            "iterations": report.iterations,
            "seconds": elapsed,
        })
    return rows
