"""Span tracing of designforge's layer boundaries, installed from outside.

The tracer replaces module attributes (the names one designforge module
calls in another, and a few that a module calls in itself) with wrappers
that record a span per call: name, start, end, parent span, run id and a
count.  Spans are kept in memory; `write` dumps them as JSON lines.  A
wrapper records nothing unless a job span is open, so the benchmark's own
certification, which runs outside the job spans, is never traced.
"""

import contextlib
import functools
import json
import math
import time
from collections import defaultdict

# span record layout: [name, start, end, parent, root, count]
NAME, START, END, PARENT, ROOT, COUNT = range(6)


def _rows(args, result):
    return args[1].shape[0]


def _solve_iterations(args, result):
    return result[1].iterations


def _grid_nodes(args, result):
    return result[0].shape[0]


def _monomial_terms(args, result):
    X = args[0]
    n = args[1]
    variables = X.shape[1]
    return (math.comb(n + variables, variables) - 1) * X.shape[0]


def _text_bytes(args, result):
    return len(args[1])


def targets(cli, kernel, solver, verifier):
    """(module, attribute, span name, counter) for every traced boundary."""
    return [
        (cli, "make_kernel", "kernel.make", None),
        (cli, "eq_partition", "sphere.partition", None),
        (cli, "initial_configuration", "solver.init", None),
        (cli, "solve", "solver.solve", _solve_iterations),
        (cli, "design_residual", "kernel.residual", None),
        (cli, "is_design", "verifier.monomial", _monomial_terms),
        (cli, "mz_check", "verifier.mz", None),
        (cli, "read_pointset", "cli.read", None),
        (cli, "write_pointset", "cli.write", None),
        (cli, "_write_text", "cli.write", _text_bytes),
        (kernel, "make_kernel", "kernel.make", None),
        (kernel, "_energy_raw", "kernel.energy", _rows),
        (kernel, "_energy_dd_raw", "kernel.energy_dd", _rows),
        (kernel, "_gradient_raw", "kernel.gradient", _rows),
        (kernel, "gw_eval", "kernel.series", None),
        (kernel, "gw_d1", "kernel.series", None),
        (solver, "make_kernel", "kernel.make", None),
        (solver, "eq_partition", "sphere.partition", None),
        (solver, "initial_configuration", "solver.init", None),
        (solver, "solve", "solver.solve", _solve_iterations),
        (solver, "_energy_raw", "kernel.energy", _rows),
        (solver, "_energy_dd_raw", "kernel.energy_dd", _rows),
        (solver, "_gradient_raw", "kernel.gradient", _rows),
        (solver, "_geodesic_rows", "sphere.geodesic", None),
        (solver, "gw_d1", "kernel.series", None),
        (verifier, "make_kernel", "kernel.make", None),
        (verifier, "gw_eval", "kernel.series", None),
        (verifier, "sphere_quadrature_grid", "verifier.mz_grid", _grid_nodes),
    ]


# verifier builds each MZ trial polynomial as a closure; these factories are
# wrapped so that the closures they return are traced as "verifier.mz_eval"
MZ_FACTORIES = ("_random_kernel_span", "_random_monomial_mixture")


class Tracer:
    """Records spans for calls made while a job span is open."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, counter=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], stack[0], 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, result)
            return result

        return traced

    def _wrap_factory(self, name, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return traced_factory

    def install(self, cli, kernel, solver, verifier):
        for module, attr, name, counter in targets(cli, kernel, solver, verifier):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))
        for attr in MZ_FACTORIES:
            original = getattr(verifier, attr)
            self._saved.append((verifier, attr, original))
            setattr(verifier, attr, self._wrap_factory("verifier.mz_eval", original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def job(self, name):
        """Open a root span; only calls made inside it are recorded."""
        span = [f"job:{name}", 0.0, 0.0, -1, len(self.spans), 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def write(self, fh):
        """Write the spans to an open text file, one JSON object a line."""
        keys = ("name", "start", "end", "parent", "root", "count")
        for span in self.spans:
            fh.write(json.dumps(dict(zip(keys, span), run=self.run_id)) + "\n")


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


PER_LAYER_UNITS = {
    "kernel.energy_dd_s": "s",
    "kernel.energy_dd_calls": "count",
    "kernel.energy_s": "s",
    "kernel.energy_calls": "count",
    "kernel.gradient_s": "s",
    "kernel.gradient_calls": "count",
    "kernel.pair_terms": "count",
    "kernel.gram_mb": "MB",
    "kernel.series_s": "s",
    "solver.solve_s": "s",
    "solver.init_s": "s",
    "solver.iterations": "count",
    "solver.trial_energies": "count",
    "solver.accept_ratio": "ratio",
    "solver.dd_share": "ratio",
    "verifier.mz_s": "s",
    "verifier.mz_grid_s": "s",
    "verifier.mz_grid_nodes": "count",
    "verifier.mz_eval_s": "s",
    "verifier.monomial_s": "s",
    "verifier.monomial_terms": "count",
    "sphere.partition_s": "s",
    "sphere.partition_calls": "count",
    "sphere.geodesic_s": "s",
    "cli.read_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# metric -> span name whose self time it sums
_SELF_TIME = {
    "kernel.energy_dd_s": "kernel.energy_dd",
    "kernel.energy_s": "kernel.energy",
    "kernel.gradient_s": "kernel.gradient",
    "kernel.series_s": "kernel.series",
    "solver.init_s": "solver.init",
    "verifier.mz_grid_s": "verifier.mz_grid",
    "verifier.mz_eval_s": "verifier.mz_eval",
    "verifier.monomial_s": "verifier.monomial",
    "sphere.partition_s": "sphere.partition",
    "sphere.geodesic_s": "sphere.geodesic",
    "cli.read_s": "cli.read",
    "cli.write_s": "cli.write",
}

_CALLS = {
    "kernel.energy_dd_calls": "kernel.energy_dd",
    "kernel.energy_calls": "kernel.energy",
    "kernel.gradient_calls": "kernel.gradient",
    "sphere.partition_calls": "sphere.partition",
}


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (every metric in PER_LAYER_UNITS
    except trace.overhead_s, which needs the untraced runs too).

    Times ending in _s are self times, except solver.solve_s and
    verifier.mz_s, which are whole calls with their children included.
    kernel.pair_terms and kernel.gram_mb are computed from the point count
    N of each kernel call, not measured: N(N-1)/2 pair terms per energy
    call, N^2 per gradient call, and 8 N^2 bytes for one dense N x N Gram.
    solver.trial_energies counts the energy calls solve makes itself: the
    line-search trials plus the start and the switch to the dd energy.
    """
    own = self_times(spans)
    self_by = defaultdict(float)
    total_by = defaultdict(float)
    calls_by = defaultdict(int)
    out = dict.fromkeys(PER_LAYER_UNITS, 0)
    pair_terms = 0
    largest_n = 0
    trial_energies = 0
    dd_in_solve = 0.0
    roots_total = 0.0
    roots_self = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        self_by[name] += own[i]
        total_by[name] += s[END] - s[START]
        calls_by[name] += 1
        if parent is None:
            roots_total += s[END] - s[START]
            roots_self += own[i]
        elif name in ("kernel.energy", "kernel.energy_dd"):
            pair_terms += s[COUNT] * (s[COUNT] - 1) // 2
            largest_n = max(largest_n, s[COUNT])
            if parent == "solver.solve":
                trial_energies += 1
                if name == "kernel.energy_dd":
                    dd_in_solve += own[i]
        elif name == "kernel.gradient":
            pair_terms += s[COUNT] * s[COUNT]
            largest_n = max(largest_n, s[COUNT])
        elif name == "verifier.mz_grid" and parent != "verifier.mz_grid":
            out["verifier.mz_grid_nodes"] += s[COUNT]
        elif name == "solver.solve":
            out["solver.iterations"] += s[COUNT]
        elif name == "verifier.monomial":
            out["verifier.monomial_terms"] += s[COUNT]
        elif name == "cli.write":
            out["cli.bytes_written"] += s[COUNT]
    for metric, name in _SELF_TIME.items():
        out[metric] = self_by[name]
    for metric, name in _CALLS.items():
        out[metric] = calls_by[name]
    out["solver.solve_s"] = total_by["solver.solve"]
    out["verifier.mz_s"] = total_by["verifier.mz"]
    out["kernel.pair_terms"] = pair_terms
    out["kernel.gram_mb"] = 8.0 * largest_n * largest_n / 1e6
    out["solver.trial_energies"] = trial_energies
    if trial_energies:
        out["solver.accept_ratio"] = out["solver.iterations"] / trial_energies
    if out["solver.solve_s"] > 0.0:
        out["solver.dd_share"] = dd_in_solve / out["solver.solve_s"]
    if roots_total > 0.0:
        out["trace.coverage"] = 1.0 - roots_self / roots_total
    del out["trace.overhead_s"]
    return out


def job_shares(spans):
    """Per job: wall time, MZ share of the job, and for each solve its point
    count N, its time and the self time of its dd energy calls."""
    own = self_times(spans)
    jobs = {}
    solves = {}
    for i, s in enumerate(spans):
        if s[PARENT] < 0:
            jobs[i] = {"job": s[NAME][len("job:"):], "wall_s": s[END] - s[START],
                       "mz_s": 0.0, "solves": []}
        elif s[NAME] == "solver.solve":
            solves[i] = {"N": 0, "solve_s": s[END] - s[START], "energy_dd_s": 0.0}
            jobs[s[ROOT]]["solves"].append(solves[i])
    for i, s in enumerate(spans):
        if s[PARENT] < 0:
            continue
        if s[NAME] == "verifier.mz":
            jobs[s[ROOT]]["mz_s"] += s[END] - s[START]
        solve = solves.get(s[PARENT])
        if solve is not None and s[NAME] in ("kernel.energy", "kernel.energy_dd"):
            solve["N"] = s[COUNT]
            if s[NAME] == "kernel.energy_dd":
                solve["energy_dd_s"] += own[i]
    return list(jobs.values())
