"""CLI regression tests: hostile input maps to its documented exit code."""

import json
import math
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

from designforge import cli
from designforge.gegenbauer import MAX_DEGREE
from exact_designs import cross_polytope, e8_roots


def _polygon(N):
    phi = 2.0 * np.pi * np.arange(N) / N
    return np.column_stack([np.cos(phi), np.sin(phi)])


def _write_json(path, X):
    # json.dumps writes NaN and Infinity tokens, which json.loads reads back
    path.write_text(json.dumps({"d": X.shape[1] - 1, "N": X.shape[0], "points": X.tolist()}))
    return str(path)


def _write_csv(path, X):
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["generate", "-d", "2", "-n", str(MAX_DEGREE + 1), "-o", "unused.json"],
    ["kernel-info", "-d", "2", "-n", str(MAX_DEGREE + 1)],
    ["kernel-info", "-d", "2", "-n", "0"],
])
def test_out_of_range_strength_is_a_usage_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"-n must be in 1..{MAX_DEGREE}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "unused.json").exists()


def test_verify_exact_polygon_passes(tmp_path, capsys):
    path = _write_json(tmp_path / "poly.json", _polygon(9))
    assert cli.main(["verify", path, "-n", "8"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"] is True


@pytest.mark.parametrize("writer", [_write_json, _write_csv])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_verify_non_finite_rows_are_data_errors(writer, bad, tmp_path, capsys):
    X = _polygon(9)
    X[4, 0] = bad
    path = writer(tmp_path / ("bad.json" if writer is _write_json else "bad.csv"), X)
    assert cli.main(["verify", path, "-n", "3"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "row 5 has a non-finite entry" in err


def test_verify_all_nan_is_a_data_error(tmp_path, capsys):
    path = _write_json(tmp_path / "nan.json", np.full((6, 3), np.nan))
    assert cli.main(["verify", path, "-n", "2"]) == cli.EXIT_DATA
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("norm_error", [1e-11, 1e-10, 1e-9])
def test_verify_rows_off_the_unit_tolerance_are_data_errors(norm_error, tmp_path, capsys):
    # the reader and is_design share one unit-norm tolerance, so rows the
    # reader accepts can no longer fail later inside is_design
    X = _polygon(9)
    X[2] *= 1.0 + norm_error
    path = _write_json(tmp_path / "off.json", X)
    assert cli.main(["verify", path, "-n", "3"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "row 3 is not a unit vector" in err
    assert "Traceback" not in err


def _write_partition(path, d, N):
    assert cli.main(["partition", "-d", str(d), "-N", str(N), "-o", str(path)]) == cli.EXIT_OK
    return str(path)


def _verify_rejected(argv, capsys, code):
    capsys.readouterr()
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""  # rejected before any report is built
    assert "Traceback" not in err
    return err


def test_verify_mz_partition_on_another_sphere_is_a_data_error(tmp_path, capsys):
    points = _write_json(tmp_path / "oct.json", cross_polytope(2))
    part = _write_partition(tmp_path / "p3.json", 3, 8)
    err = _verify_rejected(["verify", points, "-n", "3", "--mz", part], capsys, cli.EXIT_DATA)
    assert "partition is on S^3, points on S^2" in err


def test_verify_mz_above_the_quadrature_dimension_is_a_usage_error(tmp_path, capsys):
    points = _write_json(tmp_path / "cross4.json", cross_polytope(4))
    part = _write_partition(tmp_path / "p4.json", 4, 10)
    err = _verify_rejected(["verify", points, "-n", "3", "--mz", part], capsys, cli.EXIT_USAGE)
    assert "--mz supports d <= 3" in err


@pytest.mark.parametrize("design, n, code", [
    (lambda: cross_polytope(5), 3, cli.EXIT_OK),
    (lambda: cross_polytope(5), 4, cli.EXIT_FAIL),
    (lambda: cross_polytope(8), 3, cli.EXIT_OK),
    (lambda: cross_polytope(8), 4, cli.EXIT_FAIL),
    (e8_roots, 5, cli.EXIT_OK),
    (e8_roots, 6, cli.EXIT_OK),
], ids=["cross5-3", "cross5-4", "cross8-3", "cross8-4", "e8-5", "e8-6"])
def test_verify_certifies_past_four_dimensions(design, n, code, tmp_path, capsys):
    X = design()
    points = _write_json(tmp_path / "design.json", X)
    assert cli.main(["verify", points, "-n", str(n)]) == code
    doc = json.loads(capsys.readouterr().out)
    assert (doc["d"], doc["N"], doc["pass"]) == (X.shape[1] - 1, X.shape[0], code == cli.EXIT_OK)


@pytest.mark.parametrize("design, n", [(e8_roots, 7), (lambda: cross_polytope(12), 5)],
                         ids=["e8-7", "cross12-5"])
def test_verify_without_an_energy_rule_is_a_usage_error(design, n, tmp_path, capsys):
    X = design()
    points = _write_json(tmp_path / "design.json", X)
    err = _verify_rejected(["verify", points, "-n", str(n)], capsys, cli.EXIT_USAGE)
    assert f"no energy rule for d={X.shape[1] - 1}, n={n}" in err


@pytest.mark.parametrize("missing", ["d", "bounds"])
def test_verify_mz_partition_missing_a_field_is_a_data_error(missing, tmp_path, capsys):
    points = _write_json(tmp_path / "poly.json", _polygon(9))
    part = tmp_path / "bad.json"
    _write_partition(tmp_path / "p1.json", 1, 9)
    doc = json.loads((tmp_path / "p1.json").read_text())
    del doc[missing]
    part.write_text(json.dumps(doc))
    err = _verify_rejected(["verify", points, "-n", "3", "--mz", str(part)], capsys, cli.EXIT_DATA)
    assert "not a partition" in err


def _set_level(region, level, value):
    def change(doc):
        doc["bounds"][region][level] = value
    return change


def _set_field(key, value):
    def change(doc):
        doc[key] = value
    return change


@pytest.mark.parametrize("change", [
    _set_level(1, 0, [math.nan, 1.0]),
    lambda doc: doc["bounds"][1].append([0.0, 1.0]),
    _set_level(0, 0, [1.0, 1.0]),
    _set_level(0, 0, [0.0, 9.0]),
    _set_level(0, 0, ["a", 1.0]),
    _set_field("bounds", []),
    _set_field("d", "2"),
], ids=["nan", "extra-level", "lo-not-below-hi", "out-of-range", "non-numeric", "empty-bounds",
        "d-text"])
def test_verify_mz_hostile_partition_bounds_are_a_data_error(change, tmp_path, capsys):
    # nothing in verify derives from the bounds, so the file is checked as it is read
    points = _write_json(tmp_path / "oct.json", cross_polytope(2))
    _write_partition(tmp_path / "p.json", 2, 6)
    doc = json.loads((tmp_path / "p.json").read_text())
    assert len(doc["bounds"][1]) == 2  # region 1 is a collar cell: 2 levels on S^2
    change(doc)
    part = tmp_path / "bad.json"
    part.write_text(json.dumps(doc))
    err = _verify_rejected(["verify", points, "-n", "3", "--mz", str(part)], capsys, cli.EXIT_DATA)
    assert f"{part}: not a partition" in err


def test_verify_mz_zero_trials_is_a_usage_error(tmp_path, capsys):
    points = _write_json(tmp_path / "poly.json", _polygon(9))
    part = _write_partition(tmp_path / "p2.json", 1, 9)
    argv = ["verify", points, "-n", "3", "--mz", part, "--mz-trials", "0"]
    err = _verify_rejected(argv, capsys, cli.EXIT_USAGE)
    assert "--mz-trials must be >= 1" in err


def test_study_out_of_range_strength_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "study.csv"
    argv = ["study", "-d", "2", "--n", "0..1", "--N-rule", "2*(n+1)^2", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--n values must be in 1..{MAX_DEGREE}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "verify", "kernel-info", "partition", "study"])
def test_no_subcommand_offers_threads(command, capsys):
    assert cli.main([command, "--help"]) == cli.EXIT_OK
    assert "--threads" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["kernel-info", "-d", "2", "-n", "2", "--seed", "1"],
    ["kernel-info", "-d", "2", "-n", "2", "--verbose"],
    ["partition", "-d", "2", "-N", "4", "--seed", "1"],
    ["partition", "-d", "2", "-N", "4", "--verbose"],
    ["verify", "points.json", "-n", "2", "--verbose"],
    ["study", "-d", "1", "--n", "1", "--N-rule", "2", "-o", "study.csv", "--verbose"],
], ids=["kernel-info-seed", "kernel-info-verbose", "partition-seed", "partition-verbose",
        "verify-verbose", "study-verbose"])
def test_flags_that_nothing_reads_are_not_offered(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("rule,message", [
    ("3-n", "--N-rule at n=3: N rule '3-n' produced 0"),
    ("n/0", "--N-rule at n=1: division by zero"),
    ("1e308*10", "--N-rule at n=1: cannot convert float infinity"),
    ("(n-5)**0.5",
     "--N-rule at n=1: N rule '(n-5)**0.5': a power of the negative base -4 is not real"),
])
def test_study_n_rule_is_checked_at_every_n_before_any_solve(rule, message, capsys, tmp_path):
    out = tmp_path / "study.csv"
    argv = ["study", "-d", "1", "--n", "1,3", "--N-rule", rule, "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("rule,message", [
    ("10**10**10", "exponent above 30"),
    ("binom(10**9, 5*10**8)", "binom's smaller side above 30"),
    ("(n+1)**30", "point count above 1000000000"),
])
def test_study_n_rule_beyond_any_solvable_count_is_a_quick_usage_error(rule, message, tmp_path):
    # a subprocess, so that an unbounded integer computation is killed by the
    # timeout; a signal cannot interrupt it inside one interpreter
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = tmp_path / "study.csv"
    argv = ["study", "-d", "1", "--n", "1", "--N-rule", rule, "-o", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "designforge.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == cli.EXIT_USAGE
    assert f"--N-rule at n=1: N rule {rule!r}: {message}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_study_huge_n_range_is_a_quick_usage_error(tmp_path):
    # the range is checked lazily and stops at n = MAX_DEGREE + 1; a list of
    # its 10^12 values would take terabytes, so the child process runs under
    # a 2 GiB address-space cap and a timeout
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = tmp_path / "study.csv"
    argv = ["study", "-d", "2", "--n", "1..1000000000000", "--N-rule", "n", "-o", str(out)]

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    done = subprocess.run(
        [sys.executable, "-m", "designforge.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=20, preexec_fn=cap_memory,
    )
    assert done.returncode == cli.EXIT_USAGE
    assert f"--n values must be in 1..{MAX_DEGREE}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_verify_one_column_csv_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "line.csv"
    path.write_text("1\n-1\n")
    err = _verify_rejected(["verify", str(path), "-n", "1"], capsys, cli.EXIT_DATA)
    assert "rows need at least 2 coordinates" in err


@pytest.mark.parametrize("text", [
    "5",
    '{"d": 1, "N": 1, "points": "ab"}',
    '{"d": 2, "N": 1, "points": [["a", 0, 1]]}',
    '{"d": "x", "N": 1, "points": [[0, 0, 1]]}',
    '{"d": 2, "N": "z", "points": [[0, 0, 1]]}',
    '{"d": 2, "N": 1, "n": "q", "points": [[0, 0, 1]]}',
    '{"d": 0, "N": 1, "points": [[1]]}',
    '{"d": 1.5, "N": 1, "points": [[0, 1]]}',
], ids=["top-level-number", "points-text", "points-entry", "d", "N", "n", "d-zero", "d-fraction"])
def test_verify_malformed_point_file_is_a_data_error(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    err = _verify_rejected(["verify", str(path), "-n", "2"], capsys, cli.EXIT_DATA)
    assert "data error" in err


@pytest.mark.parametrize("name, text", [
    ("square.json", '{"d": 1, "N": 4, "points": [[1, 0], [0, 1], [-1, 0], [0, "-1"]]}'),
    ("square.json", '{"d": 1, "N": 4, "points": [[1, 0], [0, true], [-1, 0], [0, -1]]}'),
    ("square.csv", "1,0\n0,1\n-1,0\n0,-0_1\n"),
], ids=["json-string", "json-bool", "csv-digit-group"])
def test_verify_coordinates_must_be_numbers(name, text, tmp_path, capsys):
    # read as numbers, each file is the square, a 3-design
    path = tmp_path / name
    path.write_text(text)
    err = _verify_rejected(["verify", str(path), "-n", "3"], capsys, cli.EXIT_DATA)
    assert "data error" in err


def test_verify_mz_partition_with_another_region_count_is_a_data_error(tmp_path, capsys):
    # the sampling inequality is about one point per region of that partition
    points = _write_json(tmp_path / "poly12.json", _polygon(12))
    part = _write_partition(tmp_path / "p3.json", 1, 3)
    err = _verify_rejected(["verify", points, "-n", "5", "--mz", part], capsys, cli.EXIT_DATA)
    assert "partition has 3 regions, points 12" in err


def test_generate_that_used_to_stall_converges(tmp_path, capsys):
    # with the Gram energy this solve stalled at residual 1.5e-7 (exit 2)
    out = tmp_path / "d2n6N30.json"
    argv = ["generate", "-d", "2", "-n", "6", "-N", "30", "--seed", "2", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["solve"]["terminated"] == "converged"
    assert doc["verification"]["pass"] is True
    assert doc["verification"]["mz"]["pass"] is True


def test_generate_near_the_existence_threshold_converges(tmp_path, capsys):
    # steepest descent left this solve at residual 5.9e-6 after 3000 iterations (exit 2)
    out = tmp_path / "d2n6N28.json"
    argv = ["generate", "-d", "2", "-n", "6", "-N", "28", "--seed", "1",
            "--max-iter", "3000", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["solve"]["terminated"] == "converged"
    assert doc["verification"]["pass"] is True
    assert doc["verification"]["mz"]["pass"] is True


def test_generate_verbose_tags_each_iteration_with_its_kind(tmp_path, capsys):
    out = tmp_path / "d1n4N10.json"
    argv = ["generate", "-d", "1", "-n", "4", "-N", "10", "--init-mode", "random-in-region",
            "--seed", "0", "--verbose", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    solve = json.loads(captured.out)["solve"]
    lines = captured.err.splitlines()
    assert len(lines) == solve["iterations"] == len(solve["kind_trace"])
    for i, (line, kind) in enumerate(zip(lines, solve["kind_trace"]), 1):
        assert line.startswith(f"iteration={i} kind={kind} energy="), line
    assert solve["kind_trace"][-1] == "lm" and solve["lm_steps"] > 0


def test_generate_in_high_dimension_converges(tmp_path, capsys):
    # the zonal-span rule has 312 nodes here; a product rule would need 4**7 * 7 = 114 688
    out = tmp_path / "d8n3.json"
    argv = ["generate", "-d", "8", "-n", "3", "-N", "auto", "--seed", "1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["solve"]["terminated"] == "converged"
    assert 0.0 < doc["verification"]["residual"] <= 1e-12
    # the monomial check runs past d = 4
    assert doc["verification"]["worst_error"] <= 1e-9
    assert doc["verification"]["pass"] is True


def test_generate_above_half_the_max_degree_skips_the_mz_check(tmp_path, capsys):
    # the MZ check runs at degree 2n; at n = 101 that is past MAX_DEGREE, and
    # generate used to end in a traceback after the solve had converged
    out = tmp_path / "hs.json"
    argv = ["generate", "-d", "1", "-n", str(MAX_DEGREE // 2 + 1), "-N", "auto",
            "--seed", "1", "--no-timestamp", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["solve"]["terminated"] == "converged"
    # past MAX_MONOMIAL_DEGREE no monomial check runs, so nothing is certified
    for key in ("pass", "worst_error", "witness"):
        assert key not in doc["verification"]
    assert "mz" not in doc["verification"]
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "-d", "12", "-n", "5", "-N", "auto", "-o", "unused.json"],
    ["study", "-d", "7", "--n", "6..7", "--N-rule", "2*(n+1)^2", "-o", "unused.json"],
])
def test_oversized_energy_rule_is_a_usage_error(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "no energy rule for d=" in err
    assert "Traceback" not in err
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize("d", [2536, 2537])
def test_kernel_constants_beyond_float64_are_a_usage_error(d, capsys):
    # at n = 200, d = 2536 printed a Hessian bound of inf with exit 0, and
    # d = 2537 ended in an OverflowError traceback
    assert cli.main(["kernel-info", "-d", str(d), "-n", "200"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert f"kernel constants for d={d}, n=200 do not fit a float64" in err
    assert "Traceback" not in err
    assert out == ""


def test_kernel_info_direct_gp1_is_the_closed_form_at_the_largest_dimension(capsys):
    # d = 2521 is the largest d whose constants fit a float64 at n = 200;
    # the unnormalized C_k overflowed there and the direct g'(1) read nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["kernel-info", "-d", "2521", "-n", "200"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    closed, direct = (float(line.split()[2]) for line in lines if line.startswith("g'(1)"))
    assert math.isfinite(direct)
    assert direct == pytest.approx(closed, rel=1e-13, abs=0.0)


_SMALL_GENERATE = ["generate", "-d", "1", "-n", "2", "-N", "3", "-o", "out.json"]
_SMALL_STUDY = ["study", "-d", "1", "--n", "1..2", "--N-rule", "n+1", "-o", "out.csv"]


_NUMERIC_FLAG_CASES = [
    (_SMALL_GENERATE + ["--max-iter", "-1"], "--max-iter must be >= 0"),
    (_SMALL_GENERATE + ["--seed", "-1"], "--seed must be >= 0"),
    (_SMALL_GENERATE + ["--tol", "0"], "--tol must be finite and > 0"),
    (_SMALL_GENERATE + ["--tol", "-1"], "--tol must be finite and > 0"),
    (_SMALL_GENERATE + ["--tol", "nan"], "--tol must be finite and > 0"),
    (_SMALL_GENERATE + ["--tol", "inf"], "--tol must be finite and > 0"),
    (_SMALL_GENERATE + ["--tol-monomial", "-1"], "--tol-monomial must be finite and >= 0"),
    (_SMALL_GENERATE + ["--tol-monomial", "nan"], "--tol-monomial must be finite and >= 0"),
    (_SMALL_STUDY + ["--max-iter", "-1"], "--max-iter must be >= 0"),
    (_SMALL_STUDY + ["--seed", "-1"], "--seed must be >= 0"),
    (_SMALL_STUDY + ["--tol", "0"], "--tol must be finite and > 0"),
    (_SMALL_STUDY + ["--tol", "-1"], "--tol must be finite and > 0"),
    (["verify", "poly.json", "-n", "3", "--mz", "p.json", "--seed", "-1"], "--seed must be >= 0"),
    (["verify", "poly.json", "-n", "3", "--tol", "-1"], "--tol must be finite and >= 0"),
    (["verify", "poly.json", "-n", "3", "--tol", "nan"], "--tol must be finite and >= 0"),
    (["verify", "poly.json", "-n", "3", "--tol", "inf"], "--tol must be finite and >= 0"),
]


@pytest.mark.parametrize("argv, message", _NUMERIC_FLAG_CASES,
                         ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in _NUMERIC_FLAG_CASES])
def test_out_of_range_numeric_flags_are_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_json(tmp_path / "poly.json", _polygon(9))
    _write_partition(tmp_path / "p.json", 1, 9)
    err = _verify_rejected(argv, capsys, cli.EXIT_USAGE)
    assert message in err
    # rejected before any work: nothing written
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "out.csv").exists()


# the CI cases' MZ ratios on the default 10^6-node grids: a reworked
# integral must print them to 1e-13
@pytest.mark.parametrize("d,n,ratios", [
    (1, 8, (0.9290583847931404, 1.0208163065342195)),
    (2, 5, (0.943011207216634, 1.0226263996921248)),
    (3, 3, (0.9526869363327605, 1.0628862333008213)),
])
def test_generate_prints_the_recorded_mz_ratios(d, n, ratios, tmp_path, capsys):
    argv = ["generate", "-d", str(d), "-n", str(n), "-N", "auto", "--seed", "1",
            "--no-timestamp", "-o", str(tmp_path / "out.json")]
    assert cli.main(argv) == cli.EXIT_OK
    mz = json.loads(capsys.readouterr().out)["verification"]["mz"]
    assert (mz["degree"], mz["trials"], mz["pass"]) == (2 * n, 8, True)
    assert mz["min_ratio"] == pytest.approx(ratios[0], rel=1e-13)
    assert mz["max_ratio"] == pytest.approx(ratios[1], rel=1e-13)


def test_generate_and_verify_report_one_residual(tmp_path, capsys):
    # the solve, generate's verification and verify on the written file all
    # take the energy of the same rows: the points are never renormalized,
    # and 17 significant digits read back to the same floats
    out = tmp_path / "d3n3.json"
    argv = ["generate", "-d", "3", "-n", "3", "-N", "auto", "--seed", "1",
            "--no-timestamp", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert cli.main(["verify", str(out), "-n", "3"]) == cli.EXIT_OK
    verified = json.loads(capsys.readouterr().out)
    residual = doc["solve"]["final_residual"]
    assert 0.0 < residual <= 1e-12
    assert doc["verification"]["residual"] == residual
    assert verified["residual"] == residual
    # one report: generate's verification is verify's, with the MZ check added
    assert "mz" in doc["verification"]
    del doc["verification"]["mz"]
    assert list(doc["verification"].items()) == list(verified.items())


def test_generate_exits_fail_when_its_own_verification_fails(tmp_path, capsys):
    # the solve converges, but no 12 points average the monomials to 1e-30
    out = tmp_path / "d2n2N12.json"
    argv = ["generate", "-d", "2", "-n", "2", "-N", "12", "--tol-monomial", "1e-30",
            "--no-timestamp", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["solve"]["terminated"] == "converged"
    assert doc["verification"]["pass"] is False
    # files and report are still written
    assert out.exists()
    assert (tmp_path / "d2n2N12.report.json").exists()


def test_cli_runs_without_scipy(tmp_path):
    # tests/no_scipy_cli.py runs generate (S^2 with its MZ check, and S^3),
    # partition, verify --mz, study and kernel-info in one process; with
    # every scipy import made to fail each must exit 0 and print what it
    # prints with scipy importable, and neither run may import scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "no_scipy_cli.py")
    reports = {}
    for mode in ("plain", "guarded"):
        workdir = tmp_path / mode
        workdir.mkdir()
        done = subprocess.run(
            [sys.executable, script, mode], cwd=workdir,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        reports[mode] = done.stdout
    report = json.loads(reports["guarded"])
    assert report["scipy_modules"] == []
    assert [r["exit"] for r in report["runs"]] == [cli.EXIT_OK] * 6
    assert reports["guarded"] == reports["plain"]
