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
