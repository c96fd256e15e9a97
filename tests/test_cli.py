"""Command-line interface: outputs, exit codes, byte-level determinism."""

import json
import os

import pytest

from mintube import cli


def run(argv):
    return cli.main(argv)


def read_all_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_catenoid_command_outputs(tmp_path):
    code = run(["catenoid", "--res", "64x32", "--levels", "3",
                "--outdir", str(tmp_path)])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"catenoid.obj", "catenoid_report.json", "catenoid_slices.csv"}
    doc = json.loads((tmp_path / "catenoid_report.json").read_text())
    assert doc["lifetime_bound"] == "unbounded"
    assert len(doc["slices"]) == 3


def test_catenoid_rerun_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["catenoid", "--res", "64x32", "--levels", "4"]
    assert run(argv + ["--outdir", str(d1)]) == 0
    assert run(argv + ["--outdir", str(d2)]) == 0
    assert read_all_bytes(d1) == read_all_bytes(d2)


def test_catenoid_failing_check_exit_code(tmp_path):
    code = run(["catenoid", "--res", "64x32", "--levels", "3",
                "--invariance-tol", "1e-12", "--outdir", str(tmp_path)])
    assert code == 1


def test_catenoid_bad_args_exit_code(tmp_path):
    assert run(["catenoid", "--a", "-1", "--outdir", str(tmp_path)]) == 2
    assert run(["catenoid", "--res", "64", "--outdir", str(tmp_path)]) == 2


def test_ncatenoid_command(tmp_path, capsys):
    code = run(["ncatenoid", "--n", "3..5", "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "3,1,infinite" in out
    doc = json.loads((tmp_path / "ncatenoid_report.json").read_text())
    assert len(doc["n3_growth_samples"]) == 2
    rows = (tmp_path / "ncatenoid_lifetimes.csv").read_text().splitlines()
    assert rows[0] == "n,f0,lifetime"
    assert len(rows) == 4


def test_solve_annulus_command(tmp_path):
    code = run(["solve-annulus", "--res", "48x16", "--offset", "0.2",
                "--levels", "3", "--outdir", str(tmp_path)])
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert "annulus.obj" in names and "annulus_convergence.json" in names
    conv = json.loads((tmp_path / "annulus_convergence.json").read_text())
    assert conv["converged"] is True
    report = json.loads((tmp_path / "annulus_report.json").read_text())
    assert report["alpha"] > 0.01


def test_solve_annulus_rerun_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["solve-annulus", "--res", "48x16", "--offset", "0.2", "--levels", "3"]
    assert run(argv + ["--outdir", str(d1)]) == 0
    assert run(argv + ["--outdir", str(d2)]) == 0
    assert read_all_bytes(d1) == read_all_bytes(d2)


@pytest.mark.parametrize("res, top", [("48x24", "4"), ("64x32", "1.5")])
def test_solve_annulus_no_annulus_exit_code(tmp_path, res, top):
    # coaxial unit circles: no catenoid spans them above h ~ 1.3255
    code = run(["solve-annulus", "--res", res, "--heights", "0", top,
                "--outdir", str(tmp_path)])
    assert code == 2


def test_sweep_no_annulus_exit_code(tmp_path, capsys):
    # unit circles 2 apart: no catenoid spans them, so the neck pinches
    code = run(["sweep", "--res", "32x16", "--offsets", "0.0", "--heights",
                "0", "2", "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("no annulus: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["ncatenoid", "--margin-tol", "0.1"],
                                  ["sweep", "--offsets", "0.0", "--invariance-tol", "1"]])
def test_unused_flags_rejected(tmp_path, capsys, argv):
    # neither command checks margins or flow invariance, so neither takes
    # the tolerances (and ncatenoid slices nothing, so it takes no --levels)
    assert run(argv + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_analyze_roundtrip(tmp_path):
    assert run(["catenoid", "--res", "64x32", "--outdir", str(tmp_path)]) == 0
    code = run(["analyze", str(tmp_path / "catenoid.obj"), "--levels", "3",
                "--outdir", str(tmp_path / "re")])
    assert code == 0
    doc = json.loads((tmp_path / "re" / "catenoid_report.json").read_text())
    assert doc["lifetime_bound"] == "unbounded"


def test_analyze_missing_file(tmp_path):
    assert run(["analyze", str(tmp_path / "nope.obj")]) == 2


def test_sweep_command(tmp_path):
    code = run(["sweep", "--res", "48x16", "--offsets", "0.0", "0.2",
                "--levels", "3", "--outdir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    # offset 0 is axial: unbounded life-time bound reported as inf
    assert rows[1].endswith(",inf")


def test_outdir_environment_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    assert run(["catenoid", "--res", "64x32", "--levels", "2"]) == 0
    assert (tmp_path / "catenoid.obj").exists()


def test_help_exits_zero():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--help"])
    assert run(["--help"]) == 0
