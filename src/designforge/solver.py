"""Riemannian L-BFGS on the design energy, with area-regular initialization.

The unknowns are N points on S^d, a product of spheres.  Each iteration
takes the energy gradient G at X (tangent, row by row) and the direction
P = -H G of the limited-memory BFGS two-loop recursion over the last
_MEMORY pairs (s, y), started from (s.y / y.y) times the identity and
projected onto the tangent space at X.  The points move along great
circles, X(t) = exp_X(t P), with Armijo backtracking from t = 1.  Pairs are
carried to each new point by tangent projection (row i of s or y loses its
component along x_i), and a pair with s.y <= 0 is not stored.  With no
memory, or when the two-loop direction is not a descent direction, P is
steepest descent at the curvature-certificate step 1 / (3 g''(1) + g'(1))
along the velocities -(N/2) G, the step a plain descent would take.  A
failed line search clears the memory and restarts from that step.

The Armijo constant is the usual quasi-Newton 1e-4, not 0.5: a unit L-BFGS
step is close to the minimizer along P, so its decrease is about half the
linear prediction and a constant of 0.5 would reject it about as often as
not.  The energy is the kernel's sum of squares, free of cancellation, so
the line-search comparisons stay meaningful on one float64 path at the
smallest energies a solve reaches.  See Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds (2008), and Graf & Potts,
Numer. Math. 2011.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    Configuration,
    _energy_raw,
    _gradient_raw,
    gw_d1,  # perfbench/tracing.py wraps this name; solve never calls it
    make_kernel,
)
from .sphere import _geodesic_rows, eq_partition, tangent_rows

# perfbench/tracing.py wraps this name; solve calls _energy_raw only
_energy_dd_raw = _energy_raw
_STALL_LIMIT = 50
_STALL_RELATIVE = 1e-16
_MAX_BACKTRACKS = 80
# Armijo line search: step shrink factor and sufficient-decrease constant
_BACKTRACKING = 0.5
_ARMIJO = 1e-4
# L-BFGS: number of (s, y) pairs kept
_MEMORY = 8


@dataclass
class SolveOptions:
    max_iterations: int = 100_000
    tolerance: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


@dataclass
class SolveReport:
    """step_trace holds, per iteration, the accepted multiplier t in (0, 1]
    of that iteration's direction: 1.0 is a full quasi-Newton step (or the
    full curvature-certificate step when the direction is steepest descent).
    """

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
        X = np.stack([partition.regions[i].sample(rng) for i in range(N)])
    else:
        raise ValueError(f"unknown initialization mode {mode!r}")
    return Configuration(spec, X), initial_energy_bound(spec, partition)


def _two_loop(G, memory, gamma):
    """-H G for the L-BFGS inverse-Hessian estimate H of the (s, y, 1/s.y)
    pairs in memory (oldest first), started from gamma * identity."""
    q = G.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(np.vdot(s, q))
        q -= a * y
        alphas.append(a)
    q *= gamma
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * float(np.vdot(y, q))) * s
    return -q


def solve(spec, init, opts=None, initial_bound=None):
    """Drive a configuration to a spherical design by Riemannian L-BFGS.

    Returns (Configuration, SolveReport); terminated is "converged" exactly
    when the final residual sqrt(energy) is at or below opts.tolerance.
    The energy trace holds the energies as computed, and final_residual is
    `design_residual` of the returned points, bit for bit.
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

    # steepest descent moves along the velocities -(N/2) G at the
    # curvature-certificate step, so its direction is `steepest` times G
    steepest = -(N / 2.0) / (3.0 * spec.gpp1 + spec.gp1)

    energy_trace = [E]
    step_trace = []
    memory = []
    gamma = G = None
    last = None  # (step, gradient) of the previous accepted move
    iterations = 0
    stall = 0
    terminated = "max_iterations"
    while True:
        if E <= tol2:
            terminated = "converged"
            break
        if iterations >= opts.max_iterations:
            break

        if G is None:  # a retry after a failed search keeps the gradient
            G = _gradient_raw(spec, X, F)
        if not np.any(G):
            terminated = "stalled"
            break
        # carry the pairs and the last move to the tangent space at X
        memory = [(tangent_rows(X, s), tangent_rows(X, y), rho) for s, y, rho in memory]
        if last is not None:
            s = tangent_rows(X, last[0])
            y = G - tangent_rows(X, last[1])
            sy = float(np.vdot(s, y))
            if sy > 0.0:
                memory = (memory + [(s, y, 1.0 / sy)])[-_MEMORY:]
                gamma = sy / float(np.vdot(y, y))

        P = tangent_rows(X, _two_loop(G, memory, gamma)) if memory else None
        if P is None or not np.vdot(G, P) < 0.0:
            memory, P = [], steepest * G
        deriv = float(np.vdot(G, P))

        t = 1.0
        for _bt in range(_MAX_BACKTRACKS):
            Xt = _geodesic_rows(X, P, t)
            Et, Ft = _energy_raw(spec, Xt, fields=True)
            if not np.isfinite(Et):
                raise ArithmeticError("numerical blowup: non-finite energy")
            if Et <= E + _ARMIJO * t * deriv:
                break
            t *= _BACKTRACKING
        else:
            # a failed search restarts from steepest descent; if it already
            # was steepest descent, a retry would repeat it exactly
            stall += 1
            if not memory or stall >= _STALL_LIMIT:
                terminated = "stalled"
                break
            memory, last = [], None
            continue

        last = (t * P, G)
        X, F, G = Xt, Ft, None
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
