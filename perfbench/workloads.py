"""The benchmark's workloads: fixed job lists built from a seed.

A job is a timed call into designforge plus an untimed check of what it
returned, made by a route independent of the timed path.  The seed picks
the program's random inputs (solver starts, design rotations and
perturbations); the job sizes are fixed, so the work per run is the same
for every seed up to the solver's iteration counts.

Why each workload:
  generate-mz     `generate -N auto` at low strength on S^1, S^2, S^3.  The
                  MZ check on its 1M-node reference grid is nearly all of
                  each job and the solve about 1%: verifier and series
                  gains show here, solver gains do not.
  study-solve     the rows of `study -d 2 --N-rule '2*(n+1)^2'`, n = 6..12,
                  from STUDY_STARTS seeded starts.  Energy and gradient calls
                  are nearly all of each row, the dd energy most of it; no MZ
                  or monomial work.
  verify-certify  `verify` on exact designs and perturbed copies.  One large
                  dd energy call per job (design_residual) and no solve: the
                  kernel energy layer used once per job with large N,
                  against many small line-search calls in study-solve.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import designs
from designforge import cli, kernel, solver, verifier

MONOMIAL_TOL = 1e-9  # generate's default --tol-monomial

GENERATE_CASES = ((1, 8), (2, 5), (3, 3))

STUDY_D = 2
STUDY_RULE = "2*(n+1)^2"
STUDY_STRENGTHS = range(6, 13)
# each row is solved from this many seeded starts, so that the run's cost
# and its median job depend less on one start's iteration count
STUDY_STARTS = 3


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    # returns None when the output is right, else the reason it is wrong
    check: Callable[[object], Optional[str]]


def _quiet_cli(argv):
    """cli.main(argv) with its stdout report captured; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _certify_points(X, d, n, N):
    if X.shape != (N, d + 1):
        return f"expected {N} x {d + 1} points, got {X.shape}"
    passed, worst, _ = verifier.is_design(X, n, MONOMIAL_TOL)
    if not passed:
        return f"not a {n}-design: worst monomial error {worst:.3e}"
    return None


def _check_generate(path, d, n, code):
    """Re-read the written point file and certify it by monomials."""
    try:
        if code != cli.EXIT_OK:
            return f"exit code {code}, expected {cli.EXIT_OK}"
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["d"] != d or doc["n"] != n:
            return f"file says d={doc['d']} n={doc['n']}"
        return _certify_points(np.array(doc["points"], dtype=float), d, n, doc["N"])
    finally:
        # a later pass must not be certified against this pass's files
        for stale in (path, path[: -len(".json")] + ".report.json"):
            if os.path.exists(stale):
                os.remove(stale)


def generate_mz(seed, workdir):
    jobs = []
    for d, n in GENERATE_CASES:
        path = os.path.join(workdir, f"generate-d{d}-n{n}.json")
        argv = ["generate", "-d", str(d), "-n", str(n), "-N", "auto",
                "--seed", str(seed), "--no-timestamp", "-o", path]
        jobs.append(Job(
            name=f"generate d={d} n={n}",
            run=lambda argv=argv: _quiet_cli(argv),
            check=lambda code, path=path, d=d, n=n: _check_generate(path, d, n, code),
        ))
    return jobs


def _study_row(n, N, seed):
    """One row of `study`, made by the library calls scaling_study makes."""
    opts = solver.SolveOptions(max_iterations=100_000, tolerance=1e-12, seed=seed)
    spec = kernel.make_kernel(STUDY_D, n)
    config, bound = solver.initial_configuration(spec, N, mode="random-in-region", seed=seed)
    return solver.solve(spec, config, opts, initial_bound=bound)


def _check_row(n, N, output):
    final, report = output
    if report.terminated != "converged":
        return f"solve ended {report.terminated!r}"
    return _certify_points(np.asarray(final.coords), STUDY_D, n, N)


def study_solve(seed, workdir):
    jobs = []
    for start in range(seed * STUDY_STARTS, (seed + 1) * STUDY_STARTS):
        for n in STUDY_STRENGTHS:
            N = cli.eval_count_rule(STUDY_RULE, n)
            jobs.append(Job(
                name=f"study d={STUDY_D} n={n} N={N} --seed {start}",
                run=lambda n=n, N=N, start=start: _study_row(n, N, start),
                check=lambda out, n=n, N=N: _check_row(n, N, out),
            ))
    return jobs


def _write_points(path, d, X):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"d": d, "N": int(X.shape[0]), "points": X.tolist()}, fh)


def _check_exit(expected, code):
    return None if code == expected else f"exit code {code}, expected {expected}"


def verify_certify(seed, workdir):
    rng = np.random.default_rng([seed, 7])
    icosahedron = designs.icosahedron()
    cell600 = designs.six_hundred_cell()
    # (label, exact design, strength to certify)
    cases = [
        ("polygon", designs.polygon(120, rng.uniform(0.0, 2.0 * np.pi)), 12),
        ("polygon", designs.polygon(480, rng.uniform(0.0, 2.0 * np.pi)), 12),
        ("icosahedra x10", designs.rotated_union(icosahedron, 10, rng), 5),
        ("icosahedra x40", designs.rotated_union(icosahedron, 40, rng), 5),
        ("600-cells x2", designs.rotated_union(cell600, 2, rng), 11),
        ("600-cells x4", designs.rotated_union(cell600, 4, rng), 11),
        ("600-cells x8", designs.rotated_union(cell600, 8, rng), 11),
    ]
    jobs = []
    for i, (label, X, n) in enumerate(cases):
        d = X.shape[1] - 1
        variants = (("exact", X, cli.EXIT_OK),
                    ("perturbed", designs.perturbed(X, rng), cli.EXIT_FAIL))
        for kind, points, expected in variants:
            path = os.path.join(workdir, f"verify-{i}-{kind}.json")
            _write_points(path, d, points)
            argv = ["verify", path, "-n", str(n)]
            jobs.append(Job(
                name=f"verify {label} N={points.shape[0]} n={n} {kind}",
                run=lambda argv=argv: _quiet_cli(argv),
                check=lambda code, expected=expected: _check_exit(expected, code),
            ))
    return jobs


WORKLOADS = {
    "generate-mz": generate_mz,
    "study-solve": study_solve,
    "verify-certify": verify_certify,
}
