"""Self-test of the benchmark's ground truth and of its correctness gate.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  1. each exact-design builder gives a design at its strength and not at
     strength + 1 (the worst monomial error is printed for both);
  2. on every workload, a job whose output is corrupted fails its
     certification, while the same job left alone passes;
  3. a whole run with one corrupted job per pass reports correct=false and
     a nonzero failed count, and exits non-zero.
Exits 0 when every check holds, 1 otherwise.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run

DESIGN_TOL = 1e-12
NOT_DESIGN = 1e-6


def _replace_run(jobs, index, transform):
    """Jobs with jobs[index]'s output passed through transform(output)."""
    job = jobs[index]
    original = job.run
    broken = type(job)(job.name, lambda: transform(original()), job.check)
    return jobs[:index] + [broken] + jobs[index + 1:]


def check_designs(failures):
    import numpy as np

    import designs
    from designforge.verifier import worst_monomial_deviation

    rng = np.random.default_rng(0)
    icosahedron = designs.icosahedron()
    cell600 = designs.six_hundred_cell()
    # (label, points, strength)
    cases = [
        ("12-gon", designs.polygon(12, 0.7), 11),
        ("icosahedron", icosahedron, 5),
        ("3 rotated icosahedra", designs.rotated_union(icosahedron, 3, rng), 5),
        ("600-cell", cell600, 11),
        ("2 rotated 600-cells", designs.rotated_union(cell600, 2, rng), 11),
    ]
    for label, X, n in cases:
        at, _ = worst_monomial_deviation(X, n)
        above, _ = worst_monomial_deviation(X, n + 1)
        ok = at <= DESIGN_TOL and above > NOT_DESIGN
        print(f"{'ok  ' if ok else 'FAIL'} {label:<22} N={X.shape[0]:<4} "
              f"n={n}: {at:.2e}   n={n + 1}: {above:.2e}")
        if not ok:
            failures.append(f"design builder {label}")
    X = designs.perturbed(cell600, rng)
    off, _ = worst_monomial_deviation(X, 11)
    ok = off > NOT_DESIGN
    print(f"{'ok  ' if ok else 'FAIL'} perturbed 600-cell     N=120  n=11: {off:.2e}")
    if not ok:
        failures.append("perturbed copy is still a design")


def _corrupt_generate(workdir):
    import numpy as np

    import designs

    def transform(code):
        path = os.path.join(workdir, "generate-d1-n8.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rng = np.random.default_rng(1)
        doc["points"] = designs.perturbed(np.array(doc["points"]), rng).tolist()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return code

    return 0, transform


def _corrupt_study(workdir):
    import numpy as np

    import designs

    def transform(output):
        final, report = output
        rng = np.random.default_rng(1)
        return final.with_coords(designs.perturbed(np.asarray(final.coords), rng)), report

    return 0, transform


def _corrupt_verify(workdir):
    from designforge import cli

    # job 1 verifies a perturbed polygon; claim that it passed
    return 1, lambda code: cli.EXIT_OK


CORRUPTIONS = {
    "generate-mz": _corrupt_generate,
    "study-solve": _corrupt_study,
    "verify-certify": _corrupt_verify,
}


def check_jobs(failures):
    import workloads

    for name, corruption in CORRUPTIONS.items():
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        try:
            jobs = workloads.WORKLOADS[name](1, workdir)
            index, transform = corruption(workdir)
            clean = jobs[index]
            clean_reason = clean.check(clean.run())
            broken = _replace_run(jobs, index, transform)[index]
            broken_reason = broken.check(broken.run())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ok = clean_reason is None and broken_reason is not None
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {clean.name}: clean -> {clean_reason}, "
              f"corrupted -> {broken_reason}")
        if not ok:
            failures.append(f"certification of {name}")


def check_whole_run(failures):
    def corrupt(jobs):
        index, transform = _corrupt_verify(None)
        return _replace_run(jobs, index, transform)

    argv = ["--workload", "verify-certify", "--seed", "1", "--seconds", "0", "--trace", "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv, corrupt=corrupt)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    ok = code != 0 and result["correct"] is False and result["failed"] >= 1
    print(f"{'ok  ' if ok else 'FAIL'} whole run with a corrupted verify job: exit {code}, "
          f"correct={result['correct']}, fail_ratio={result['failed']}/{result['attempted']}")
    if not ok:
        failures.append("whole run with a corrupted job")


def main():
    if not os.path.isfile(os.path.join(run.SRC, "designforge", "__init__.py")):
        sys.stderr.write(f"selftest: no designforge sources under {run.SRC}\n")
        return 2
    sys.path.insert(0, run.SRC)
    os.makedirs(run.OUT, exist_ok=True)
    failures = []
    check_designs(failures)
    check_jobs(failures)
    check_whole_run(failures)
    print("selftest: " + ("FAILED: " + "; ".join(failures) if failures else "all checks hold"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
