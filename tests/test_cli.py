"""CLI regression tests: hostile input maps to its documented exit code."""

import json

import numpy as np
import pytest

from designforge import cli
from designforge.gegenbauer import MAX_DEGREE


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
    # the reader, is_design and Configuration share one tolerance, so rows the
    # reader accepts can no longer fail later inside Configuration
    X = _polygon(9)
    X[2] *= 1.0 + norm_error
    path = _write_json(tmp_path / "off.json", X)
    assert cli.main(["verify", path, "-n", "3"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "row 3 is not a unit vector" in err
    assert "Traceback" not in err


def _cross_polytope(d):
    """The 2(d+1) points +-e_i on S^d: a 3-design."""
    return np.vstack([np.eye(d + 1), -np.eye(d + 1)])


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
    points = _write_json(tmp_path / "oct.json", _cross_polytope(2))
    part = _write_partition(tmp_path / "p3.json", 3, 8)
    err = _verify_rejected(["verify", points, "-n", "3", "--mz", part], capsys, cli.EXIT_DATA)
    assert "partition is on S^3, points on S^2" in err


def test_verify_mz_above_the_quadrature_dimension_is_a_usage_error(tmp_path, capsys):
    points = _write_json(tmp_path / "cross4.json", _cross_polytope(4))
    part = _write_partition(tmp_path / "p4.json", 4, 10)
    err = _verify_rejected(["verify", points, "-n", "3", "--mz", part], capsys, cli.EXIT_USAGE)
    assert "--mz supports d <= 3" in err


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
