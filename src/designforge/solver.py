"""Levenberg-Marquardt steps on the design residual, or Riemannian L-BFGS
on the design energy where its Jacobian is too large, with area-regular
initialization.

The unknowns are N points on S^d, a product of spheres.  The energy is the
squared norm of the residual r(X) = (B_k^T F_k)_k, the point set's
weighted harmonic moments, D = dim P_n - 1 numbers whose zero is a design.
`solve` takes one method per solve, chosen by the size of the Jacobian J
of r (`kernel._jacobian_raw`, D x d N in tangent coordinates).  Where J
and J J^T have at most _JACOBIAN_DOUBLES entries together, it takes
Levenberg-Marquardt (LM) steps on r from the start point; past that
budget it runs L-BFGS on the energy.  Either runs until it converges,
stalls or runs out of iterations.

An LM step is

    delta = -J^T (J J^T + mu I)^(-1) r,

the usual (J^T J + mu I)^(-1) J^T r by the push-through identity, solved
as a D x D system.  It lies in J's row space, so it is the minimum-norm
damped step and the directions that barely move r (the rotations of the
whole point set, d(d+1)/2 of them, near a design) need no special case.
The points move along the geodesics exp_X(delta), and mu follows
Nielsen's gain-ratio rule from 1e-6 times the largest diagonal entry of
J J^T at the start (`_lm_move`).  Near a design that is a Gauss-Newton
step, and the residual falls quadratically, where L-BFGS drives |r|^2 down
only linearly, by about 15x an iteration on the study rows.

Against L-BFGS down to E <= 1e-4 followed by LM steps (one BLAS thread,
pinned, 2-vCPU Xeon):

  - the 42 study rows of starts 3-8 (n = 6..12, N = 2(n+1)^2) each take
    4 LM steps against 5-6 iterations, 3 of them LM.  The rows n = 6..8
    got faster and n = 11, 12 slower, where an LM step costs more than
    the two L-BFGS iterations it replaces; the study-solve benchmark
    reads wall_ref 3.27 against 3.08 ref (medians of 10 pairs);
  - (d, n, N) = (2, 6, 24) converges from seeds 0, 1 and 2 in 52, 58 and
    59 steps, where seed 1 stalled at residual 3.56e-3 after 374
    iterations.  The finding that LM from the start stalls seed 0 in
    another basin was made with mu0 = 1e-3 max diag, not 1e-6;
  - (2, 30, 2000) seed 1 takes 4 LM steps in 0.57-0.63 s against 2
    L-BFGS and 3 LM steps in 0.53-0.55 s, and (2, 40, 880) seed 0 takes
    21 LM steps in 4.7-4.9 s against 6 and 18 in 4.2 s: at that size an
    LM step costs several L-BFGS iterations;
  - (2, 6, 22) seed 0, where no design is known, stalls at residual
    0.0118 after 685 LM steps (0.18 s) against 302 L-BFGS iterations
    (0.20 s).

J (D x d N) and J J^T (D x D) are budgeted together at
_JACOBIAN_DOUBLES = 2^23 doubles (64 MiB); np.linalg.solve holds one more
copy of J J^T.  The budget admits (2, 40, 880) (D = 1680, 5.8M doubles)
and (2, 30, 2000) (D = 960, 4.8M doubles).

L-BFGS, past the budget, takes at each iteration the energy gradient G at
X (tangent, row by row) and the direction P = -H G of the limited-memory
BFGS two-loop recursion over the last _MEMORY pairs (s, y), started from
(s.y / y.y) times the identity and projected onto the tangent space at X.
The points move along great circles, X(t) = exp_X(t P), with Armijo
backtracking from t = 1.  Pairs are carried to each new point by tangent
projection (row i of s or y loses its component along x_i), all of them
and the last move in one call on the one array that holds them, and a
pair with s.y <= 0 is not stored.  With no memory, or when the two-loop
direction is not a descent direction, P is steepest descent at the
curvature-certificate step 1 / (3 g''(1) + g'(1)) along the velocities
-(N/2) G, the step a plain descent would take.  A failed line search
clears the memory and restarts from that step.

The Armijo constant is the usual quasi-Newton 1e-4, not 0.5: a unit L-BFGS
step is close to the minimizer along P, so its decrease is about half the
linear prediction and a constant of 0.5 would reject it about as often as
not.  The energy is the kernel's sum of squares, free of cancellation, so
the line-search comparisons stay meaningful on one float64 path at the
smallest energies a solve reaches.

See Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
Manifolds (2008); Chen & Womersley, SIAM J. Numer. Anal. 2006, for
Newton-type steps on this underdetermined system; Graf & Potts, Numer.
Math. 2011; and Nielsen, Damping parameter in Marquardt's method (1999).
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .kernel import (
    Configuration,
    _energy_raw,
    _gradient_raw,
    _jacobian_raw,
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
# Levenberg-Marquardt (see the module docstring for the measurements behind
# each): a solve takes it where J and J J^T have at most _JACOBIAN_DOUBLES
# entries together, with the damping _LM_DAMPING times the largest diagonal
# entry of J J^T at the start
_JACOBIAN_DOUBLES = 1 << 23
_LM_DAMPING = 1e-6


@dataclass
class SolveOptions:
    max_iterations: int = 100_000
    tolerance: float = 1e-12
    # solve is deterministic and reads no seed; perfbench/workloads.py passes one
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
    An LM step is taken whole, so its entry is always 1.0.  kind_trace
    holds, per iteration, the kind of its direction: "lbfgs", "steepest"
    or "lm".  A solve takes LM steps only or none (see `solve`), so
    lm_steps, the count of "lm" iterations, is 0 or all of them.
    """

    iterations: int
    energy_trace: list
    step_trace: list
    kind_trace: list
    final_residual: float
    terminated: str
    lm_steps: int
    initial_bound: float = None

    def to_dict(self):
        return asdict(self)


def initial_energy_bound(spec, partition):
    """Upper bound g'(1) * |R|^2 / N on the mean energy of one-point-per-region
    sampling.

    The cross-region expectation vanishes (every zonal kernel slice is
    mean-zero), and each diagonal term is bounded through the kernel's
    Lipschitz constant at 1, so independent uniform sampling inside an
    area-regular partition starts the descent at energy O(|R|^2 / N).
    """
    return spec.gp1 * partition.norm**2 / partition.N


def initial_configuration(spec, N, mode="centers", seed=0):
    """Area-regular starting configuration plus its predicted energy bound.

    mode "centers" places one point at each region center; mode
    "random-in-region" samples each region uniformly (seeded).
    Returns (Configuration, predicted_bound).
    """
    partition = eq_partition(spec.d, N)
    if mode == "centers":
        X = np.array(partition.centers, dtype=float)
    elif mode == "random-in-region":
        X = partition.sample(np.random.default_rng(seed))
    else:
        raise ValueError(f"unknown initialization mode {mode!r}")
    return Configuration(spec, X), initial_energy_bound(spec, partition)


def _two_loop(G, pairs, rhos, gamma):
    """-H G for the L-BFGS inverse-Hessian estimate H of the (s, y) pairs
    (oldest first) with their 1/s.y in rhos, started from gamma * identity."""
    q = G.copy()
    alphas = []
    for (s, y), rho in zip(pairs[::-1], rhos[::-1]):
        a = rho * float(np.vdot(s, q))
        q -= a * y
        alphas.append(a)
    q *= gamma
    for (s, y), rho, a in zip(pairs, rhos, reversed(alphas)):
        q += (a - rho * float(np.vdot(y, q))) * s
    return -q


def _lm_step(J, A, r, mu):
    """The Levenberg-Marquardt step delta = -J^T (A + mu I)^(-1) r for
    A = J J^T, and the decrease |r|^2 - |r + J delta|^2 that its linear
    model predicts.

    With y = (A + mu I)^(-1) r, r + J delta = mu y, so the predicted
    decrease is |A y|^2 + 2 mu |delta|^2, a sum of squares with nothing
    to cancel.  delta lies in the row space of J: it is the minimum-norm
    step of the damped problem.
    """
    # A itself is damped and restored, bitwise: at the budget a copy of
    # A would be 16 MiB or more
    diagonal = A.diagonal().copy()
    np.fill_diagonal(A, diagonal + mu)
    y = np.linalg.solve(A, r)
    np.fill_diagonal(A, diagonal)
    delta = -(y @ J)
    Ay = A @ y
    return delta, float(Ay @ Ay + 2.0 * mu * (delta @ delta))


def _lm_move(spec, X, E, r, mu, J, A):
    """One accepted Levenberg-Marquardt step from X, whose residual is r
    and energy E = |r|^2, at damping mu: (X', E', r', mu'), or None when
    no trial decreases the energy.

    J, of shape (D, d N), and A, (D, D), are workspaces that receive the
    Jacobian (`_jacobian_raw`) and J J^T; each trial takes `_lm_step`
    along the geodesics X(1) = exp_X(delta).  A trial is accepted when the
    energy falls, and the damping follows Nielsen's rule on the gain ratio
    rho of actual to predicted decrease: mu *= max(1/3, 1 - (2 rho - 1)^3)
    on acceptance, and mu *= nu, nu *= 2 (from nu = 2) on each rejection.
    None after _MAX_BACKTRACKS rejections, or once a step predicts no
    decrease (mu has grown past the point where the step moves anything).
    """
    J, basis = _jacobian_raw(spec, X, out=J)
    np.matmul(J, J.T, out=A)
    r = np.concatenate(r)
    if mu is None:
        mu = _LM_DAMPING * float(np.max(np.diagonal(A)))
    nu = 2.0
    for _trial in range(_MAX_BACKTRACKS):
        delta, predicted = _lm_step(J, A, r, mu)
        if not predicted > 0.0:
            return None
        V = np.einsum("ji,jic->ic", delta.reshape(spec.d, -1), basis)
        Xt = _geodesic_rows(X, V, 1.0)
        Et, rt = _energy_raw(spec, Xt, fields=True)
        if not np.isfinite(Et):
            raise ArithmeticError("numerical blowup: non-finite energy")
        gain = (E - Et) / predicted
        if gain > 0.0:
            return Xt, Et, rt, mu * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        mu *= nu
        nu *= 2.0
    return None


def _lm_finish(spec, X, E, r, tol2, budget, energy_trace):
    """`_lm_move` steps from X, whose residual is r and energy E, until
    E <= tol2, at most budget of them; the first one starts at damping
    _LM_DAMPING times the largest diagonal entry of J J^T.

    Appends each accepted energy to energy_trace.  Returns
    (X, E, steps, terminated), terminated being "converged",
    "max_iterations" or "stalled": a move found no decrease, or
    _STALL_LIMIT steps in a row dropped the energy by less than
    _STALL_RELATIVE of itself.  J and J J^T are written into the same two
    arrays at every step, which spares a fresh J its page faults: at
    d = 2, n = 12, N = 338 that halves the time to build J.
    """
    D = sum(len(r_k) for r_k in r)
    J, A = np.empty((D, spec.d * X.shape[0])), np.empty((D, D))
    mu = None
    steps = stall = 0
    while E > tol2:
        if steps >= budget:
            return X, E, steps, "max_iterations"
        move = _lm_move(spec, X, E, r, mu, J, A)
        if move is None:
            return X, E, steps, "stalled"
        previous = E
        X, E, r, mu = move
        steps += 1
        energy_trace.append(E)
        stall = 0 if (previous - E) / previous >= _STALL_RELATIVE else stall + 1
        if stall >= _STALL_LIMIT:
            return X, E, steps, "stalled"
    return X, E, steps, "converged"


def _lbfgs(spec, X, E, r, tol2, budget, energy_trace):
    """Riemannian L-BFGS iterations from X, whose residual is r and energy
    E, until E <= tol2, at most budget of them (see the module docstring).

    Appends each accepted energy to energy_trace.  Returns
    (X, E, step_trace, kind_trace, terminated), terminated being
    "converged", "max_iterations" or "stalled": the gradient vanished, a
    steepest-descent search failed, or _STALL_LIMIT failed searches and
    iterations that dropped the energy by less than _STALL_RELATIVE of
    itself came in a row.  Every energy call keeps its residual, so the
    gradient at the accepted point reuses it: one field pass per trial
    point.
    """
    N = X.shape[0]
    # steepest descent moves along the velocities -(N/2) G at the
    # curvature-certificate step, so its direction is `steepest` times G
    steepest = -(N / 2.0) / spec.curvature
    step_trace = []
    kind_trace = []
    # slot 0: the previous accepted move (step, gradient); slots 1..len(rhos):
    # the (s, y) pairs, oldest first, with their 1/s.y in rhos
    stack = np.zeros((_MEMORY + 1, 2, N, spec.d + 1))
    rhos = []
    moved = False
    gamma = G = None
    stall = 0
    while E > tol2:
        if len(step_trace) >= budget:
            return X, E, step_trace, kind_trace, "max_iterations"
        if G is None:  # a retry after a failed search keeps the gradient
            G = _gradient_raw(spec, X, r)
        if not np.any(G):
            return X, E, step_trace, kind_trace, "stalled"
        # carry the last move and the pairs to the tangent space at X
        used = stack[:len(rhos) + 1]
        used[...] = tangent_rows(X, used)
        if moved:
            s = stack[0, 0]
            y = G - stack[0, 1]
            sy = float(np.vdot(s, y))
            if sy > 0.0:
                if len(rhos) == _MEMORY:
                    stack[1:-1] = stack[2:]
                    del rhos[0]
                stack[len(rhos) + 1] = s, y
                rhos.append(1.0 / sy)
                gamma = sy / float(np.vdot(y, y))

        pairs = stack[1:len(rhos) + 1]
        P = tangent_rows(X, _two_loop(G, pairs, rhos, gamma)) if rhos else None
        if P is None or not np.vdot(G, P) < 0.0:
            rhos, P = [], steepest * G
        kind = "lbfgs" if rhos else "steepest"
        deriv = float(np.vdot(G, P))

        t = 1.0
        for _bt in range(_MAX_BACKTRACKS):
            Xt = _geodesic_rows(X, P, t)
            Et, rt = _energy_raw(spec, Xt, fields=True)
            if not np.isfinite(Et):
                raise ArithmeticError("numerical blowup: non-finite energy")
            if Et <= E + _ARMIJO * t * deriv:
                break
            t *= _BACKTRACKING
        else:
            # a failed search restarts from steepest descent; if it already
            # was steepest descent, a retry would repeat it exactly
            stall += 1
            if not rhos or stall >= _STALL_LIMIT:
                return X, E, step_trace, kind_trace, "stalled"
            rhos, moved = [], False
            continue

        stack[0] = t * P, G
        moved = True
        X, r, G = Xt, rt, None
        previous = E
        E = Et
        step_trace.append(t)
        kind_trace.append(kind)
        energy_trace.append(E)
        relative_drop = (previous - E) / max(abs(previous), 1e-300)
        stall = 0 if relative_drop >= _STALL_RELATIVE else stall + 1
        if stall >= _STALL_LIMIT:
            return X, E, step_trace, kind_trace, "stalled"
    return X, E, step_trace, kind_trace, "converged"


def solve(spec, init, opts=None, initial_bound=None):
    """Drive a configuration to a spherical design by Levenberg-Marquardt
    steps where J fits _JACOBIAN_DOUBLES, else by Riemannian L-BFGS (see
    the module docstring).

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
    E, r = _energy_raw(spec, X, fields=True)
    if not np.isfinite(E):
        raise ArithmeticError("numerical blowup: non-finite energy")
    energy_trace = [E]
    D = int(spec.dims.sum())
    if D * (spec.d * N + D) <= _JACOBIAN_DOUBLES:
        X, E, lm_steps, terminated = _lm_finish(
            spec, X, E, r, tol2, opts.max_iterations, energy_trace)
        step_trace, kind_trace = [1.0] * lm_steps, ["lm"] * lm_steps
    else:
        lm_steps = 0
        X, E, step_trace, kind_trace, terminated = _lbfgs(
            spec, X, E, r, tol2, opts.max_iterations, energy_trace)

    report = SolveReport(
        iterations=len(step_trace),
        energy_trace=energy_trace,
        step_trace=step_trace,
        kind_trace=kind_trace,
        final_residual=float(np.sqrt(E)),
        terminated=terminated,
        lm_steps=lm_steps,
        initial_bound=initial_bound,
    )
    return Configuration(spec, X), report


def scaling_study(d, n_values, N_rule, opts=None, seed=0):
    """Solve across a strength range with N = N_rule(n); returns result rows.

    Observational only: reports where the solver certifies a design at desk
    scale, with no claim about the asymptotic existence threshold.
    """
    rows = []
    for n in n_values:
        N = int(N_rule(n))
        spec = make_kernel(d, n)
        start = time.perf_counter()
        config, bound = initial_configuration(spec, N, mode="random-in-region", seed=seed)
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
