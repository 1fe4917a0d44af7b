"""Batch front door: generate, verify, and inspect spherical design data.

Subcommands: generate, verify, kernel-info, partition, study.  Reports go
to stdout as JSON; progress logging goes to stderr.  All randomness flows
from --seed, and with --no-timestamp two identical invocations produce
byte-identical output files.

Exit codes: 0 success/pass, 1 verification fail, 2 nonconvergence,
64 usage error, 65 malformed data, 74 I/O failure.
"""

import argparse
import ast
import datetime
import json
import math
import sys

import numpy as np

from . import __version__
from .gegenbauer import MAX_DEGREE
from .kernel import (
    design_residual,
    energy_rule_size,
    gw_d1,
    hessian_step_bound,
    make_kernel,
)
from .solver import SolveOptions, initial_configuration, scaling_study, solve
from .sphere import UNIT_TOL, Partition, eq_partition, off_sphere_rows
from .verifier import (
    MAX_MONOMIAL_DEGREE,
    MAX_MONOMIAL_DIM,
    MAX_MZ_DIM,
    is_design,
    mz_check,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOCONVERGENCE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74

_MZ_PIPELINE_TRIALS = 8
# bound on an --N-rule's result, on a `**` base and on a `binom` argument: no
# solve reaches 10^9 points, whose coordinates alone take 16 GB even on S^1
_MAX_RULE_VALUE = 10**9
# bound on a `**` exponent and on the smaller side of a `binom`: a base of size
# >= 2 to a larger power, or binom(m, j) with j <= m - j this large (it is
# >= 2^j), exceeds 2^30 > _MAX_RULE_VALUE
_MAX_RULE_EXPONENT = _MAX_RULE_VALUE.bit_length()


class DataFormatError(Exception):
    """Malformed input data (exit 65)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# -- deterministic JSON with 17-significant-digit floats ----

def _fmt_float(x):
    if not math.isfinite(x):
        raise ValueError("non-finite value in JSON output")
    return f"{x:.17g}"


def _json_text(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in seq):
            return "[" + ", ".join(_json_text(v) for v in seq) + "]"
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(doc):
    sys.stdout.write(_json_text(doc) + "\n")


# -- point-set files ----

def write_pointset(path, d, N, points, n=None, metadata=None):
    if str(path).endswith(".csv"):
        rows = [",".join(_fmt_float(float(v)) for v in row) for row in points]
        _write_text(path, "\n".join(rows) + "\n")
        return
    doc = {"d": d}
    if n is not None:
        doc["n"] = n
    doc["N"] = N
    doc["points"] = [[float(v) for v in row] for row in points]
    doc["metadata"] = metadata or {}
    _write_text(path, _json_text(doc) + "\n")


def read_pointset(path):
    """Load a point-set file (JSON or CSV); returns (d, n_or_None, points)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".csv"):
        points = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                raise DataFormatError(f"{path}: line {lineno}: not a numeric row")
            points.append(row)
        if not points:
            raise DataFormatError(f"{path}: no points")
        widths = {len(r) for r in points}
        if len(widths) != 1:
            raise DataFormatError(f"{path}: inconsistent row lengths {sorted(widths)}")
        X = np.array(points)
        if X.shape[1] < 2:
            raise DataFormatError(f"{path}: rows need at least 2 coordinates")
        d = X.shape[1] - 1
        n = None
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: line {exc.lineno}: invalid JSON ({exc.msg})")
        if not isinstance(doc, dict):
            raise DataFormatError(f"{path}: top level is not a JSON object")
        for key in ("d", "N", "points"):
            if key not in doc:
                raise DataFormatError(f"{path}: missing field {key!r}")
        d = _int_field(doc, "d", path)
        try:
            X = np.asarray(doc["points"], dtype=float)
        except (TypeError, ValueError):
            raise DataFormatError(f"{path}: points are not numeric")
        if X.ndim != 2 or X.shape[1] != d + 1:
            raise DataFormatError(f"{path}: points must be an N x {d + 1} matrix")
        if X.shape[0] != _int_field(doc, "N", path):
            raise DataFormatError(f"{path}: N={doc['N']} does not match {X.shape[0]} rows")
        n = _int_field(doc, "n", path) if doc.get("n") is not None else None
    bad = off_sphere_rows(X)
    if bad.size:
        row = int(bad[0])
        if not np.all(np.isfinite(X[row])):
            raise DataFormatError(f"{path}: row {row + 1} has a non-finite entry")
        raise DataFormatError(
            f"{path}: row {row + 1} is not a unit vector (|norm - 1| > {UNIT_TOL:g})"
        )
    return d, n, X


def _int_field(doc, key, path):
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DataFormatError(f"{path}: field {key!r} is not a positive integer")
    return value


def _report_path(out_path):
    base = str(out_path)
    for ext in (".json", ".csv"):
        if base.endswith(ext):
            base = base[: -len(ext)]
            break
    return base + ".report.json"


# -- N rule parsing ----

def eval_count_rule(expr, n):
    """Safely evaluate an N rule such as '2*(n+1)^2' or '4*binom(n+3,3)'.

    Raises ValueError when the result, a `**` base or exponent or a `binom`
    argument exceeds its bound, before any unbounded integer is computed.
    """
    tree = ast.parse(expr.replace("^", "**"), mode="eval")

    def bounded(value, limit, what):
        if not abs(value) <= limit:
            raise ValueError(f"N rule {expr!r}: {what} above {limit}")
        return value

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name) and node.id == "n":
            return n
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            v = walk(node.operand)
            return v if isinstance(node.op, ast.UAdd) else -v
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.Pow):
                return (bounded(left, _MAX_RULE_VALUE, "base")
                        ** bounded(right, _MAX_RULE_EXPONENT, "exponent"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "binom"
            and len(node.args) == 2
        ):
            m, j = (bounded(int(walk(a)), _MAX_RULE_VALUE, "binom argument")
                    for a in node.args)
            bounded(min(j, m - j), _MAX_RULE_EXPONENT, "binom's smaller side")
            return math.comb(m, j)
        raise ValueError(f"unsupported N rule expression: {expr!r}")

    value = walk(tree)
    count = int(round(value))
    if count < 1:
        raise ValueError(f"N rule {expr!r} produced {value}, need >= 1")
    return bounded(count, _MAX_RULE_VALUE, "point count")


def _parse_n_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return [int(v) for v in text.split(",") if v.strip()]


# -- subcommands ----

def _check_strength(args, parser):
    if not 1 <= args.n <= MAX_DEGREE:
        parser.error(f"-n must be in 1..{MAX_DEGREE}")


def _check_count(value, flag, parser):
    if value < 0:
        parser.error(f"{flag} must be >= 0")


def _check_tolerance(value, flag, parser, positive):
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        parser.error(f"{flag} must be finite and {'> 0' if positive else '>= 0'}")


def _check_energy_rule(d, n_values, parser):
    for n in n_values:
        try:
            energy_rule_size(d, n)
        except ValueError as exc:
            parser.error(str(exc))


def cmd_generate(args, parser):
    if args.d < 1:
        parser.error("-d must be >= 1")
    _check_strength(args, parser)
    _check_count(args.seed, "--seed", parser)
    _check_count(args.max_iter, "--max-iter", parser)
    _check_tolerance(args.tol, "--tol", parser, positive=True)
    _check_tolerance(args.tol_monomial, "--tol-monomial", parser, positive=False)
    _check_energy_rule(args.d, [args.n], parser)
    spec = make_kernel(args.d, args.n)
    opts = SolveOptions(max_iterations=args.max_iter, tolerance=args.tol, seed=args.seed)

    if args.N == "auto":
        base = math.comb(args.n + args.d, args.d)
        candidates = [base * 2**j for j in range(1, 5)]
    else:
        try:
            candidates = [int(args.N)]
        except ValueError:
            parser.error("-N must be an integer or 'auto'")
        if candidates[0] < 1:
            parser.error("-N must be >= 1")

    final = report = partition = None
    chosen_N = None
    for N in candidates:
        partition = eq_partition(args.d, N)
        config, bound = initial_configuration(
            spec, N, mode=args.init_mode, seed=args.seed, partition=partition
        )
        final, report = solve(spec, config, opts, initial_bound=bound)
        chosen_N = N
        if report.terminated == "converged":
            break

    if args.verbose:
        for i, (e, s) in enumerate(zip(report.energy_trace[1:], report.step_trace), 1):
            sys.stderr.write(f"iteration={i} energy={e:.6e} step={s:.6e}\n")

    verification = None
    if report.terminated == "converged":
        mz = None
        if args.d <= MAX_MZ_DIM and 2 * args.n <= MAX_DEGREE:
            mz = mz_check(final.coords, partition, 2 * args.n,
                          trials=_MZ_PIPELINE_TRIALS, seed=args.seed)
        residual = design_residual(spec, final.coords)
        verification = {"n": args.n, "N": chosen_N, "d": args.d, "residual": residual}
        if args.d <= MAX_MONOMIAL_DIM and args.n <= MAX_MONOMIAL_DEGREE:
            passed, worst, witness = is_design(final.coords, args.n, args.tol_monomial)
            verification.update(
                {"worst_error": worst, "witness": list(witness), "pass": passed}
            )
        else:
            verification["pass"] = residual <= args.tol
        if mz is not None:
            verification["mz"] = mz.to_dict()

    metadata = {"seed": args.seed, "tool-version": __version__}
    if report.terminated == "converged":
        metadata["residual"] = report.final_residual
    if not args.no_timestamp:
        metadata["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()

    doc = {
        "d": args.d,
        "n": args.n,
        "N": chosen_N,
        "solve": report.to_dict(),
    }
    if verification is not None:
        doc["verification"] = verification

    if report.terminated == "converged":
        write_pointset(args.out, args.d, chosen_N, final.coords, n=args.n, metadata=metadata)
        _write_text(_report_path(args.out), _json_text(report.to_dict()) + "\n")
        _emit(doc)
        # the MZ result is reported but does not gate: it tests the sampling,
        # not the design claim
        return EXIT_OK if verification["pass"] else EXIT_FAIL
    _write_text(_report_path(args.out), _json_text(report.to_dict()) + "\n")
    _emit(doc)
    return EXIT_NOCONVERGENCE


def cmd_verify(args, parser):
    if args.n < 1:
        parser.error("-n must be >= 1")
    _check_count(args.seed, "--seed", parser)
    _check_tolerance(args.tol, "--tol", parser, positive=False)
    if args.mz is not None and args.mz_trials < 1:
        parser.error("--mz-trials must be >= 1")
    d, _, X = read_pointset(args.input)
    if d > MAX_MONOMIAL_DIM or args.n > MAX_MONOMIAL_DEGREE:
        parser.error(
            f"monomial certification supports d <= {MAX_MONOMIAL_DIM}, "
            f"n <= {MAX_MONOMIAL_DEGREE}"
        )
    partition = None
    if args.mz is not None:
        if d > MAX_MZ_DIM:
            parser.error(f"--mz supports d <= {MAX_MZ_DIM}")
        partition = _read_partition(args.mz)
        if partition.d != d:
            raise DataFormatError(f"{args.mz}: partition is on S^{partition.d}, points on S^{d}")
        if partition.N != X.shape[0]:
            raise DataFormatError(
                f"{args.mz}: partition has {partition.N} regions, points {X.shape[0]}"
            )
    passed, worst, witness = is_design(X, args.n, args.tol)
    spec = make_kernel(d, args.n)
    residual = design_residual(spec, X)
    doc = {
        "n": args.n,
        "N": X.shape[0],
        "d": d,
        "worst_error": worst,
        "witness": list(witness),
        "pass": passed,
        "residual": residual,
    }
    if partition is not None:
        mz = mz_check(X, partition, args.n, trials=args.mz_trials, seed=args.seed)
        doc["mz"] = mz.to_dict()
    _emit(doc)
    return EXIT_OK if passed else EXIT_FAIL


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: line {exc.lineno}: invalid JSON ({exc.msg})")


def _read_partition(path):
    try:
        return Partition.from_dict(_read_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: not a partition ({type(exc).__name__}: {exc})")


def cmd_kernel_info(args, parser):
    if args.d < 1:
        parser.error("-d must be >= 1")
    _check_strength(args, parser)
    spec = make_kernel(args.d, args.n)
    print(f"kernel d={args.d} n={args.n} alpha={spec.alpha}")
    print(f"{'k':>4} {'w_k':>10} {'dim_k':>10} {'lambda_k':>24}")
    for k in range(1, args.n + 1):
        print(f"{k:>4} {spec.weights[k-1]:>10.1f} {spec.dims[k-1]:>10d} "
              f"{spec.lam[k-1]:>24.16g}")
    direct_gp1 = float(gw_d1(spec, 1.0))
    print(f"g(1)   = {spec.g1:.16g}")
    print(f"g'(1)  = {spec.gp1:.16g} (coefficient sum)")
    print(f"g'(1)  = {direct_gp1:.16g} (direct evaluation)")
    print(f"g''(1) = {spec.gpp1:.16g}")
    print(f"hessian bound (3g''(1)+g'(1))^1/2 = {hessian_step_bound(spec):.16g}")
    return EXIT_OK


def cmd_partition(args, parser):
    if args.d < 1:
        parser.error("-d must be >= 1")
    if args.N < 1:
        parser.error("-N must be >= 1")
    partition = eq_partition(args.d, args.N)
    doc = partition.to_dict()
    if args.out:
        _write_text(args.out, _json_text(doc) + "\n")
        _emit({"d": args.d, "N": args.N, "norm": partition.norm, "out": str(args.out)})
    else:
        _emit(doc)
    return EXIT_OK


def cmd_study(args, parser):
    if args.d < 1:
        parser.error("-d must be >= 1")
    _check_count(args.seed, "--seed", parser)
    _check_count(args.max_iter, "--max-iter", parser)
    _check_tolerance(args.tol, "--tol", parser, positive=True)
    try:
        n_values = _parse_n_range(args.n_range)
    except ValueError:
        parser.error(f"cannot parse n range {args.n_range!r}")
    if not n_values:
        parser.error("empty n range")
    if not all(1 <= n <= MAX_DEGREE for n in n_values):
        parser.error(f"--n values must be in 1..{MAX_DEGREE}")
    _check_energy_rule(args.d, n_values, parser)
    counts = {}
    for n in n_values:
        try:
            counts[n] = eval_count_rule(args.N_rule, n)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            parser.error(f"--N-rule at n={n}: {exc}")
    opts = SolveOptions(max_iterations=args.max_iter, tolerance=args.tol, seed=args.seed)
    rows = scaling_study(args.d, n_values, lambda n: counts[n], opts, seed=args.seed)
    header = "d,n,N,converged,residual,iterations,seconds"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['d']},{r['n']},{r['N']},{str(r['converged']).lower()},"
            f"{_fmt_float(r['residual'])},{r['iterations']},{_fmt_float(r['seconds'])}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    series = [f"# n N residual"]
    for r in rows:
        series.append(f"{r['n']} {r['N']} {_fmt_float(r['residual'])}")
    base = str(args.out)
    if base.endswith(".csv"):
        base = base[:-4]
    _write_text(base + ".residuals.dat", "\n".join(series) + "\n")
    for r in rows:
        sys.stderr.write(
            f"n={r['n']} N={r['N']} converged={r['converged']} "
            f"residual={r['residual']:.3e} iterations={r['iterations']}\n"
        )
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="design-forge",
                     description="Construct and certify spherical n-designs on S^d.")
    parser.add_argument("--version", action="version", version=f"design-forge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="construct a design and verify it")
    g.add_argument("-d", type=int, required=True, help="sphere dimension")
    g.add_argument("-n", type=int, required=True, help="design strength")
    g.add_argument("-N", default="auto", help="point count, or 'auto'")
    g.add_argument("--tol", type=float, default=1e-12, help="kernel residual tolerance")
    g.add_argument("--tol-monomial", type=float, default=1e-9,
                   help="independent monomial verification tolerance")
    g.add_argument("--max-iter", type=int, default=100_000)
    g.add_argument("--init-mode", choices=("centers", "random-in-region"),
                   default="random-in-region")
    g.add_argument("-o", "--out", required=True, help="output point-set path (.json/.csv)")
    g.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp for byte-identical reruns")
    g.add_argument("--verbose", action="store_true", help="log progress to stderr")
    g.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    g.set_defaults(handler=cmd_generate)

    v = sub.add_parser("verify", help="certify a point-set file")
    v.add_argument("input", help="point-set file (.json or .csv)")
    v.add_argument("-n", type=int, required=True, help="design strength to certify")
    v.add_argument("--tol", type=float, default=1e-9, help="monomial deviation tolerance")
    v.add_argument("--mz", default=None, help="partition JSON for the sampling-ratio check")
    v.add_argument("--mz-trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    v.set_defaults(handler=cmd_verify)

    k = sub.add_parser("kernel-info", help="print kernel coefficients and constants")
    k.add_argument("-d", type=int, required=True)
    k.add_argument("-n", type=int, required=True)
    k.set_defaults(handler=cmd_kernel_info)

    p = sub.add_parser("partition", help="build an equal-area partition")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-o", "--out", default=None, help="partition JSON path")
    p.set_defaults(handler=cmd_partition)

    s = sub.add_parser("study", help="scaling study over a strength range")
    s.add_argument("-d", type=int, required=True)
    s.add_argument("--n", dest="n_range", required=True, help="range like 1..4 or list 1,2,3")
    s.add_argument("--N-rule", dest="N_rule", required=True,
                   help="point count rule, e.g. '2*(n+1)^2' or '4*binom(n+3,3)'")
    s.add_argument("-o", "--out", required=True, help="study CSV path")
    s.add_argument("--tol", type=float, default=1e-12)
    s.add_argument("--max-iter", type=int, default=100_000)
    s.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    s.set_defaults(handler=cmd_study)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.handler(args, parser)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except DataFormatError as exc:
        sys.stderr.write(f"design-forge: data error: {exc}\n")
        return EXIT_DATA
    except OSError as exc:
        sys.stderr.write(f"design-forge: i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
