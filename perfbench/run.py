"""designforge benchmark: fixed job lists driven from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is generate-mz, study-solve or verify-certify (see workloads.py for
why each exists), or `all`, which runs each workload in its own process in
turn.  One client runs the jobs one after another (a closed loop) in this
process, with BLAS held to one thread.  The client cycles through
the workload's job list for --seconds, every job at least once, starting
no job that its last time says would end late.  Every job's output is
certified outside the timed region; a job that raises, exits with an
unexpected code or fails certification counts as failed, and any failure
fails the run.

--trace 0 reports the end-to-end metrics:
  wall_ref     wall time of the whole job list as a multiple of ref: the
               sum over its jobs of each job's median time in ref
  job_p50_ref  median over the jobs of each job's median time in ref
  peak_rss_mb  peak resident memory of this process (MiB)
  setup_s      designforge import (in a fresh interpreter) plus building the
               workload's inputs; median of SETUP_REPEATS set-ups
ref is the time of the reference computation (reference.py), fixed work
outside designforge, timed right before and right after every job: a job's
time in ref is its time divided by the mean of those two.  The reference
runs in a helper process, held with this one to a single processor while
the jobs cycle.  On a shared host the processor's speed swings by 10-50%
within seconds; the ratios cancel most of the swing, so the gated metrics
are the ratios.  The same figures in seconds (wall_s, job_p50_s) are
reported beside them.
--trace 1 first makes one traced pass over the job list, then cycles
untraced as above, and reports the per-layer metrics of
tracing.PER_LAYER_UNITS from the traced pass, with trace.overhead_s the
traced pass's time minus the untraced wall_s.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; lines before it, each starting with '#',
form a readable report that also gives fail_ratio, the run's environment
and, when traced, the per-job MZ and dd-energy shares.  The report and the
spans are also written under .perfbench-out/ in the repository root.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("generate-mz", "study-solve", "verify-certify")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
SETUP_REPEATS = 7
END_TO_END_UNITS = {"wall_ref": "ref", "job_p50_ref": "ref", "peak_rss_mb": "MiB",
                    "setup_s": "s"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import designforge.cli\n"
    "print(time.perf_counter() - start)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="designforge benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seconds():
    """Time `import designforge.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


@contextlib.contextmanager
def reference_process():
    """Yield a callable that times one run of the reference computation.

    The reference runs in a helper process, so that its arrays stay out of
    this process's peak memory, and works only while this process waits for
    it.  Both processes are held to one processor for the helper's life, so
    that a job and the reference times around it run on the same core.
    """
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    proc = subprocess.Popen([sys.executable, REFERENCE], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)

    def reference():
        proc.stdin.write("\n")
        proc.stdin.flush()
        return float(proc.stdout.readline())

    try:
        for _ in range(3):  # warm-up
            reference()
        yield reference
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        os.sched_setaffinity(0, affinity)


def run_job(job, tracer, failures):
    """Run one job (timed), then certify its output (untimed)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            output = job.run()
        else:
            with tracer.job(job.name):
                output = job.run()
    except Exception:  # a job that raises is a failed job, not a crashed run
        elapsed = time.perf_counter() - start
        failures.append(f"{job.name}: raised\n{traceback.format_exc()}")
        return elapsed
    elapsed = time.perf_counter() - start
    reason = job.check(output)
    if reason is not None:
        failures.append(f"{job.name}: {reason}")
    return elapsed


def cycle_jobs(jobs, started, seconds, failures, reference):
    """Run the jobs round-robin, untraced, timing the reference computation
    before the first job and after each one.

    Returns each job's times, the same times in ref (each divided by the
    mean of the reference times just before and after it), and the
    reference's times.  Every job runs at least once.  After that the next
    job starts only if its last time says it ends within `seconds` of
    `started`, so a run with jobs of several seconds each does not overrun
    by a job.
    """
    times = [[] for _ in jobs]
    in_ref = [[] for _ in jobs]
    reference_times = [reference()]
    runs = 0
    while True:
        index = runs % len(jobs)
        if runs >= len(jobs) and (time.perf_counter() - started + times[index][-1]
                                  > seconds):
            return times, in_ref, reference_times
        elapsed = run_job(jobs[index], None, failures)
        reference_times.append(reference())
        times[index].append(elapsed)
        in_ref[index].append(2.0 * elapsed / (reference_times[-2] + reference_times[-1]))
        runs += 1


def run_workload(args, corrupt=None):
    """Set up, run and report one workload; returns the process exit code.

    `corrupt`, used by the self-test, maps the job list to one whose outputs
    are wrong, to show that certification catches them.
    """
    # one BLAS thread: on a shared host a second thread mostly measures
    # the scheduler, and the dd energy, the dominant layer, uses no BLAS
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    import_start = time.perf_counter()
    import numpy
    import scipy

    import tracing
    import workloads
    from designforge import cli, kernel, solver, verifier
    import_s = time.perf_counter() - import_start

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        build = workloads.WORKLOADS[args.workload]
        setups = []
        for _ in range(SETUP_REPEATS):
            probe = _import_seconds()
            start = time.perf_counter()
            jobs = build(args.seed, workdir)
            setups.append(probe + time.perf_counter() - start)
        if corrupt is not None:
            jobs = corrupt(jobs)

        failures = []
        started = time.perf_counter()
        if args.trace:
            # the traced pass goes first: a first pass tends to run slower,
            # so the overhead estimate errs high rather than low
            tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}")
            tracer.install(cli, kernel, solver, verifier)
            try:
                traced_wall = sum(run_job(job, tracer, failures) for job in jobs)
            finally:
                tracer.uninstall()
        with reference_process() as reference:
            times, in_ref, reference_times = cycle_jobs(jobs, started, args.seconds,
                                                        failures, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    job_medians = [statistics.median(t) for t in times]
    job_medians_ref = [statistics.median(r) for r in in_ref]
    runs = sum(len(t) for t in times)
    attempted = runs + (len(jobs) if args.trace else 0)
    wall_s = sum(job_medians)
    job_p50_s = statistics.median(job_medians)
    reference_s = statistics.median(reference_times)
    end_to_end = {
        "wall_ref": sum(job_medians_ref),
        "job_p50_ref": statistics.median(job_medians_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "in_process_import_s": import_s,
        "jobs": len(jobs),
        "wall_s": wall_s,
        "job_p50_s": job_p50_s,
        "reference_s": reference_s,
        "reference_runs": len(reference_times),
        "untraced_job_runs": runs,
        "runs_per_job": [min(map(len, times)), max(map(len, times))],
        "job_median_s": {job.name: m for job, m in zip(jobs, job_medians)},
        "setup_s_samples": len(setups),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
    }
    for failure in failures:
        sys.stderr.write(f"perfbench: FAILED {failure}\n")

    lines = [f"# perfbench {args.workload} seed={args.seed} trace={args.trace}",
             "# meta " + json.dumps(meta),
             f"# end-to-end (untraced: {runs} runs of {len(jobs)} jobs, "
             f"{meta['runs_per_job'][0]}-{meta['runs_per_job'][1]} runs per job)"]
    for name, value in end_to_end.items():
        lines.append(f"#   {name:<24} {value:>14.6g} {END_TO_END_UNITS[name]}")
    lines.append(f"#   {'fail_ratio':<24} {meta['fail_ratio']:>14.6g} ratio"
                 f"  ({len(failures)} of {attempted} jobs)")
    lines.append(f"# in seconds (reference_s: the reference's median, {len(reference_times)} runs)")
    for name in ("wall_s", "job_p50_s", "reference_s"):
        lines.append(f"#   {name:<24} {meta[name]:>14.6g} s")
    report = {"meta": meta, "end_to_end": end_to_end,
              "job_times_s": {job.name: t for job, t in zip(jobs, times)},
              "reference_times_s": reference_times}
    if args.trace:
        per_layer = tracing.layer_metrics(tracer.spans)
        per_layer["trace.overhead_s"] = traced_wall - wall_s
        shares = tracing.job_shares(tracer.spans)
        lines.append("# per-layer (one traced pass)")
        for name in tracing.PER_LAYER_UNITS:
            lines.append(f"#   {name:<24} {per_layer[name]:>14.6g} "
                         f"{tracing.PER_LAYER_UNITS[name]}")
        lines.append("# jobs of the traced pass: wall and MZ share of the job; "
                     "each solve's N, time and dd-energy share")
        for rec in shares:
            lines.append(f"#   {rec['job']:<44} {rec['wall_s']:8.3f} s"
                         f"  mz {rec['mz_s'] / rec['wall_s']:6.1%}")
            for solve in rec["solves"]:
                lines.append(f"#     solve N={solve['N']:<5} {solve['solve_s']:8.3f} s"
                             f"  dd/solve {solve['energy_dd_s'] / solve['solve_s']:6.1%}")
        report["per_layer"] = per_layer
        report["jobs"] = shares
        with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"), "w",
                  encoding="utf-8") as fh:
            tracer.write(fh)
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
                                f".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        code = max(code, done.returncode)
    return code


def main(argv=None, corrupt=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "designforge", "__init__.py")):
        sys.stderr.write(f"perfbench: no designforge sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, corrupt)


if __name__ == "__main__":
    sys.exit(main())
