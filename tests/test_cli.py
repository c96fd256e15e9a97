"""Command-line interface: outputs, exit codes, byte-level determinism."""

import json
import os

import pytest

from mintube import cli, solver, surfaces
from mintube.mesh import write_obj


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


@pytest.mark.parametrize("n", ["68", "1000"])
def test_ncatenoid_large_n(tmp_path, capsys, n):
    assert run(["ncatenoid", "--n", n, "--outdir", str(tmp_path)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == n and 0 < float(row[2]) < 0.05


@pytest.mark.parametrize("argv, target", [
    (["catenoid", "--res", "64x32"], (surfaces, "catenoid_mesh")),
    (["solve-annulus", "--res", "32x16"], (solver, "solve_annulus")),
])
def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch, argv, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(*target, exhausted)
    assert run(argv + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_artifact_schema(tmp_path):
    # The report fields are written under their own names, so a renamed
    # field would change these keys and the header of every artifact.
    assert run(["solve-annulus", "--res", "24x12", "--offset", "0.2",
                "--levels", "2", "--outdir", str(tmp_path)]) == 0
    assert run(["analyze", str(tmp_path / "annulus.obj"), "--levels", "2",
                "--outdir", str(tmp_path / "re")]) == 0
    report = json.loads((tmp_path / "re" / "annulus_report.json").read_text())
    assert set(report) == {
        "schema", "angle_unit", "flow_vector", "flow_norm", "alpha",
        "flow_level_deviation", "total_curvature", "clamped_positive_defect",
        "slab_height", "capacity", "lifetime_bound", "lifetime_flat_contradiction",
        "slices", "tolerances"}
    assert set(report["slices"][0]) == {
        "level", "components", "length", "gauss_diameter", "two_alpha",
        "gauss_length", "diameter_margin", "curvature_margin", "flow_vector"}
    assert set(report["capacity"]) == {
        "measured", "height_over_flux", "flux_over_height",
        "rel_error_height_over_flux", "rel_error_flux_over_height"}
    header = (tmp_path / "re" / "annulus_slices.csv").read_text().splitlines()[0]
    assert header == ("level,components,length,gauss_diameter,two_alpha,"
                      "gauss_length,diameter_margin,curvature_margin,Jx,Jy,Jz")
    conv = json.loads((tmp_path / "annulus_convergence.json").read_text())
    assert set(conv) == {"iterations", "converged", "final_area", "final_residual",
                         "area_history", "residual_history", "message"}


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


INVALID_NUMBERS = [
    ["catenoid", "--levels", "0"],
    ["catenoid", "--levels", "-3"],
    ["solve-annulus", "--levels", "0"],
    ["analyze", "{obj}", "--levels", "0"],
    ["sweep", "--offsets", "0.0", "--levels", "0"],
    ["ncatenoid", "--f0", "nan"],
    ["ncatenoid", "--f0", "inf"],
    ["ncatenoid", "--n", "7..4"],
    ["catenoid", "--a", "nan"],
    ["catenoid", "--a", "inf"],
    ["catenoid", "--margin-tol", "nan"],
    ["catenoid", "--invariance-tol", "inf"],
    ["solve-annulus", "--r", "nan", "1"],
    ["solve-annulus", "--offset", "nan"],
    ["solve-annulus", "--offset", "inf"],
    ["sweep", "--offsets", "nan"],
    ["sweep", "--offsets", "0.0", "inf"],
    ["solve-annulus", "--tolerance", "nan"],
    ["solve-annulus", "--tolerance", "-1"],
    ["solve-annulus", "--max-iterations", "0"],
]


@pytest.mark.parametrize("argv", INVALID_NUMBERS, ids=" ".join)
def test_invalid_numbers_exit_code(tmp_path, capsys, argv):
    # each is rejected before any mesh is built or solved
    obj = tmp_path / "tube.obj"
    write_obj(surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 16, 8)), obj)
    argv = [a.format(obj=obj) for a in argv]
    if argv[0] in ("catenoid", "solve-annulus", "sweep"):
        argv += ["--res", "32x16"]
    out = tmp_path / "out"
    assert run(argv + ["--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "usage: ")), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_analyze_rejects_non_finite_coordinates(tmp_path, capsys, value):
    obj = tmp_path / "tube.obj"
    write_obj(surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 16, 8)), obj)
    lines = obj.read_text().splitlines()
    lines[40] = f"v {value} 0.5 0"
    obj.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(["analyze", str(obj), "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == "error: vertex 40 has a non-finite coordinate\n"
    assert not out.exists()


def test_analyze_roundtrip(tmp_path):
    assert run(["catenoid", "--res", "64x32", "--outdir", str(tmp_path)]) == 0
    code = run(["analyze", str(tmp_path / "catenoid.obj"), "--levels", "3",
                "--outdir", str(tmp_path / "re")])
    assert code == 0
    doc = json.loads((tmp_path / "re" / "catenoid_report.json").read_text())
    assert doc["lifetime_bound"] == "unbounded"


def test_analyze_reproduces_catenoid_outputs(tmp_path):
    # The OBJ keeps 17 significant digits, so re-reading it gives the same
    # mesh and the same report; only the tolerances block differs, because
    # analyze records margin_tol there and not invariance_tol.
    assert run(["catenoid", "--res", "64x32", "--outdir", str(tmp_path)]) == 0
    assert run(["analyze", str(tmp_path / "catenoid.obj"),
                "--outdir", str(tmp_path / "re")]) == 0
    assert ((tmp_path / "re" / "catenoid_slices.csv").read_bytes()
            == (tmp_path / "catenoid_slices.csv").read_bytes())
    want = json.loads((tmp_path / "catenoid_report.json").read_text())
    got = json.loads((tmp_path / "re" / "catenoid_report.json").read_text())
    assert want["tolerances"].pop("invariance_tol") == cli.DEFAULT_INVARIANCE_TOL
    assert "invariance_tol" not in got["tolerances"]
    assert got == want


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
