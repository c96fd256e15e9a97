"""Command-line interface: outputs, exit codes, byte-level determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import rotated_catenoid

import mintube
from mintube import cli, flux, solver, surfaces
from mintube.mesh import TriMesh, write_obj


def run(argv):
    return cli.main(argv)


def read_all_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def sweep_rows(outdir, *argv):
    """Run `sweep` (it exits 0 whatever its solves do) and return the rows
    of sweep.csv as dicts keyed by the header."""
    assert run(["sweep", *argv, "--outdir", str(outdir)]) == 0
    header, *rows = (outdir / "sweep.csv").read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


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


def test_catenoid_failing_check_exit_code(tmp_path, capsys):
    # at 16x8 the discrete flow vector varies with the level by more than
    # the invariance tolerance; the artifacts are written all the same
    assert run(["catenoid", "--res", "16x8", "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("FAIL: flow deviation ")
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"catenoid.obj", "catenoid_report.json", "catenoid_slices.csv"}


def test_analyze_cone_frustum_fails_flow_invariance(tmp_path, capsys):
    # a cone frustum is not minimal: its flow vector depends on the level
    obj = tmp_path / "cone.obj"
    cone = surfaces._revolution_mesh(np.linspace(1, 2, 33), np.linspace(0, 1, 33), 64)
    write_obj(cone, obj)
    assert run(["analyze", str(obj), "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("FAIL: flow deviation ")
    assert (tmp_path / "cone_report.json").exists()


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
    # twice the axial distance f0 acosh(f/f0) at f/f0 = cap, with f0 = 1
    assert [s["partial_lifetime"] for s in doc["n3_growth_samples"]] == [
        2 * math.acosh(cap) for cap in (1e3, 1e6)]
    rows = (tmp_path / "ncatenoid_lifetimes.csv").read_text().splitlines()
    assert rows[0] == "n,f0,lifetime"
    assert len(rows) == 4


def test_ncatenoid_huge_neck_has_finite_samples(tmp_path):
    # the samples, at most 29 f0, are floats at f0 = 1e306, though the
    # radius 1e6 f0 they are taken at is not
    assert run(["ncatenoid", "--n", "3", "--f0", "1e306", "--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "ncatenoid_report.json").read_text())
    assert [s["partial_lifetime"] for s in doc["n3_growth_samples"]] == [
        2 * 1e306 * math.acosh(cap) for cap in (1e3, 1e6)]


@pytest.mark.parametrize("n", ["68", "1000"])
def test_ncatenoid_large_n(tmp_path, capsys, n):
    assert run(["ncatenoid", "--n", n, "--outdir", str(tmp_path)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == n and 0 < float(row[2]) < 0.05


@pytest.mark.parametrize("argv, target", [
    (["catenoid", "--res", "64x32"], (surfaces, "catenoid_mesh")),
    (["solve-annulus", "--res", "32x16"], (solver, "solve_annulus")),
    (["solve-annulus", "--res", "32x16"], (solver, "slice_mesh")),
    (["catenoid", "--res", "64x32"], (mintube.mesh.lapack, "zpttrf")),
    (["analyze", "x.obj"], (mintube.mesh, "read_obj")),
])
def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch, argv, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(*target, exhausted)
    assert run(argv + ["--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err
    # the hint names --res only to a command that takes it
    assert ("--res" in err) == ("--res" in argv)


@pytest.mark.parametrize("margins, code", [
    ((math.nan, -1.0), 1), ((-1.0, math.nan), 1), ((math.nan, math.nan), 0)])
def test_curvature_margin_check_skips_slices_without_a_closed_cycle(capsys, margins, code):
    # a slice with no closed cycle has a NaN curvature margin, in any position
    slices = [flux.SliceRecord(level=t, components=1, length=1.0, gauss_diameter=1.0,
                               two_alpha=0.0, gauss_length=math.nan, diameter_margin=1.0,
                               curvature_margin=m, flow_vector=(0.0, 0.0, 1.0))
              for t, m in zip((0.25, 0.75), margins)]
    report = flux.TubeReport(
        flow_vector=(0.0, 0.0, 1.0), flow_norm=1.0, alpha=0.0, flow_level_deviation=0.0,
        total_curvature=0.0, clamped_positive_defect=0.0, slices=slices, capacity=None,
        lifetime_bound=flux.lifetime_bound((0.0, 0.0, 1.0), 0.0), slab_height=1.0)
    assert cli._verify_report(report) == code
    assert capsys.readouterr().err == (
        "FAIL: slice curvature margin -1.000e+00 below -0.05\n" if code else "")


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
    assert set(conv) == {"stack_iterations", "iterations", "converged", "final_area",
                         "final_residual", "area_history", "residual_history",
                         "factorizations", "cg_iterations", "message"}
    assert run(["sweep", "--res", "24x12", "--offsets", "0.2", "--levels", "2",
                "--outdir", str(tmp_path / "sweep")]) == 0
    header = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[0]
    assert header == ("offset,alpha,min_diameter_margin,lifetime_bound_over_height,"
                      "exit,stack_iterations,iterations,area")


def test_solve_annulus_rerun_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["solve-annulus", "--res", "48x16", "--offset", "0.2", "--levels", "3"]
    assert run(argv + ["--outdir", str(d1)]) == 0
    assert run(argv + ["--outdir", str(d2)]) == 0
    assert read_all_bytes(d1) == read_all_bytes(d2)


@pytest.mark.parametrize("argv", [
    # coaxial unit circles: no catenoid spans them above h ~ 1.3255
    pytest.param("--res 48x24 --heights 0 4", id="48x24-4"),
    pytest.param("--res 64x32 --heights 0 1.5", id="64x32-1.5"),
    # the neck collapses triangles; their zero vertex areas read as an inf residual
    pytest.param("--res 16x8 --r 1e-7 1e-7", id="16x8-r1e-7"),
    # a stack stage collapses the small circle's rings to degenerate triangles
    pytest.param("--res 64x32 --r 0.01 1", id="64x32-r0.01"),
])
def test_solve_annulus_no_annulus_exit_code(tmp_path, argv):
    assert run(["solve-annulus", *argv.split(), "--outdir", str(tmp_path)]) == 2


def test_solve_annulus_pinch_creates_no_outdir(tmp_path, capsys):
    # the output directory is made only once the solve has returned
    out = tmp_path / "out"
    code = run(["solve-annulus", "--res", "32x16", "--heights", "0", "4",
                "--outdir", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("no annulus: ")
    assert not out.exists()


def test_solve_annulus_degeneration_exit_code(tmp_path, capsys):
    # an annulus spans these circles (the stack stage converges), but the
    # full stage degenerates the mesh: exit 3, not the no-annulus exit 2
    code = run(["solve-annulus", "--res", "32x16", "--heights", "0", "0.2",
                "--offset", "0.5", "--outdir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: mesh degenerated")


def test_sweep_no_annulus_exit_code(tmp_path, capsys):
    # unit circles 2 apart: no catenoid spans them, so the neck pinches; the
    # row records exit 2 and the sweep itself exits 0
    (row,) = sweep_rows(tmp_path, "--res", "32x16", "--offsets", "0.0",
                        "--heights", "0", "2")
    assert row["exit"] == "2"
    err = capsys.readouterr().err
    assert err.startswith("offset 0.0: no annulus: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_solve_annulus_with_one_interior_ring(tmp_path, capsys):
    # nv = 2: the stack stage's system is one 3x3 ring block, narrower than
    # its band storage; at 16x2 the solve converges and the flow check fails
    assert run(["solve-annulus", "--res", "16x2", "--offset", "0.3",
                "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("FAIL: flow deviation ")


def test_sweep_with_one_interior_ring(tmp_path):
    rows = sweep_rows(tmp_path, "--res", "8x2", "--offsets", "0", "0.3")
    assert [row["exit"] for row in rows] == ["0", "0"]


def test_annulus_scan_rows(tmp_path):
    # a scan over heights is one sweep per height
    (converged,) = sweep_rows(tmp_path / "h1", "--res", "16x8", "--heights", "0", "1",
                              "--offsets", "0.0")
    (pinched,) = sweep_rows(tmp_path / "h3", "--res", "16x8", "--heights", "0", "3",
                            "--offsets", "0.0")
    assert converged["exit"] == "0"
    assert int(converged["stack_iterations"]) > 0 and int(converged["iterations"]) >= 0
    assert 5.5 < float(converged["area"]) < 6.5
    assert pinched["exit"] == "2"
    assert {k for k, v in pinched.items() if v} == {"offset", "exit"}


def test_sweep_degeneration_row_rerun_byte_identical(tmp_path, capsys):
    # at offset 0.5 the stack stage converges and the full stage degenerates:
    # exit 3, and the rerun covers that failed row too
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["--res", "32x16", "--heights", "0", "0.2", "--offsets", "0.0", "0.5",
            "--levels", "3"]
    rows = sweep_rows(d1, *argv)
    assert [row["exit"] for row in rows] == ["0", "3"]
    err = capsys.readouterr().err
    assert err.startswith("offset 0.5: mesh degenerated") and err.count("\n") == 1
    sweep_rows(d2, *argv)
    assert read_all_bytes(d1) == read_all_bytes(d2)


def test_sweep_row_matches_solve_annulus(tmp_path):
    problem = ["--res", "32x16", "--heights", "0", "0.8"]
    (row,) = sweep_rows(tmp_path / "sweep", *problem, "--offsets", "0.3")
    assert run(["solve-annulus", *problem, "--offset", "0.3", "--levels", "1",
                "--outdir", str(tmp_path / "solve")]) == 0
    conv = json.loads((tmp_path / "solve" / "annulus_convergence.json").read_text())
    assert row["exit"] == "0"
    assert (int(row["stack_iterations"]), int(row["iterations"]), float(row["area"])) \
        == (conv["stack_iterations"], conv["iterations"], conv["final_area"])


@pytest.mark.parametrize("argv", [["ncatenoid", "--margin-tol", "0.1"],
                                  ["sweep", "--offsets", "0.0", "--invariance-tol", "1"],
                                  ["catenoid", "--verify", "none"],
                                  ["solve-annulus", "--verify", "none"],
                                  ["analyze", "{obj}", "--levels-at", "0.1"],
                                  ["catenoid", "--margin-tol", "nan"],
                                  ["catenoid", "--invariance-tol", "inf"],
                                  ["catenoid", "--margin-tol", "0.1"],
                                  ["solve-annulus", "--invariance-tol", "1"],
                                  ["analyze", "{obj}", "--margin-tol", "0.1"]])
def test_unused_flags_rejected(tmp_path, capsys, argv):
    # no command takes the check tolerances, which are the constants
    # cli.MARGIN_TOL and cli.INVARIANCE_TOL; the checking commands always
    # check, at their own levels
    obj = tmp_path / "tube.obj"
    write_obj(surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 16, 8)), obj)
    out = tmp_path / "out"
    assert run([a.format(obj=obj) for a in argv] + ["--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err
    assert not out.exists()


INVALID_NUMBERS = [
    ["catenoid", "--levels", "0"],
    ["catenoid", "--levels", "-3"],
    ["solve-annulus", "--levels", "0"],
    ["analyze", "{obj}", "--levels", "0"],
    ["sweep", "--offsets", "0.0", "--levels", "0"],
    ["ncatenoid", "--f0", "nan"],
    ["ncatenoid", "--f0", "inf"],
    ["ncatenoid", "--n", "7..4"],
    # a subnormal neck radius, and life-times past the float range
    ["ncatenoid", "--f0", "5e-324"],
    ["ncatenoid", "--n", "3", "--f0", "1e308"],
    ["ncatenoid", "--n", "4", "--f0", "1e308"],
    # a life-time below the normal range
    ["ncatenoid", "--n", "1000000", "--f0", "1e-305"],
    ["catenoid", "--a", "nan"],
    ["catenoid", "--a", "inf"],
    ["catenoid", "--a", "1e-3"],
    ["solve-annulus", "--r", "nan", "1"],
    ["solve-annulus", "--offset", "nan"],
    ["solve-annulus", "--offset", "inf"],
    ["solve-annulus", "--heights", "0", "1e-300"],
    ["solve-annulus", "--r", "1e-300", "1e-300"],
    ["sweep", "--offsets", "nan"],
    ["sweep", "--offsets", "0.0", "inf"],
    ["sweep", "--offsets", "0", "--heights", "0", "1e-300"],
    # too large to measure: the triangle areas overflow
    ["solve-annulus", "--offset", "1e300"],
    ["catenoid", "--a", "1e300"],
    ["solve-annulus", "--r", "1e100", "1e100", "--heights", "0", "1e100"],
]


@pytest.mark.parametrize("argv", INVALID_NUMBERS, ids=" ".join)
def test_invalid_numbers_exit_code(tmp_path, capsys, argv):
    # each is rejected before any solve
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


def test_analyze_rejects_unreferenced_vertex(tmp_path, capsys):
    obj = tmp_path / "tube.obj"
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 16, 8))
    write_obj(mesh, obj)
    obj.write_text(obj.read_text() + "v 5 5 5\n")
    out = tmp_path / "out"
    assert run(["analyze", str(obj), "--outdir", str(out)]) == 2
    # one line, no traceback
    err = capsys.readouterr().err
    assert err == f"error: vertex {mesh.n_vertices} is referenced by no triangle\n"
    assert not out.exists()


@pytest.mark.parametrize("data, error", [
    (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n",
     "4: face index out of range"),
    # 0xa0 is no UTF-8 start byte, though Latin-1 reads it as a space
    (b"v 0 0 0\nv 1\xa00 0\nv 0 1 0\nf 1 2 3\n", "2: malformed vertex record"),
], ids=["index_beyond_int64", "latin1_vertex"])
def test_analyze_rejects_face_index_beyond_int64(tmp_path, capsys, data, error):
    obj = tmp_path / "tube.obj"
    obj.write_bytes(data)
    assert run(["analyze", str(obj), "--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {obj}:{error}\n"
    assert "Traceback" not in err


def test_analyze_roundtrip(tmp_path):
    assert run(["catenoid", "--res", "64x32", "--outdir", str(tmp_path)]) == 0
    code = run(["analyze", str(tmp_path / "catenoid.obj"), "--levels", "3",
                "--outdir", str(tmp_path / "re")])
    assert code == 0
    doc = json.loads((tmp_path / "re" / "catenoid_report.json").read_text())
    assert doc["lifetime_bound"] == "unbounded"


def test_analyze_reproduces_catenoid_outputs(tmp_path):
    # The OBJ keeps 17 significant digits, so re-reading it gives the same
    # mesh and the same report, tolerances included.
    assert run(["catenoid", "--res", "64x32", "--outdir", str(tmp_path)]) == 0
    assert run(["analyze", str(tmp_path / "catenoid.obj"),
                "--outdir", str(tmp_path / "re")]) == 0
    assert ((tmp_path / "re" / "catenoid_slices.csv").read_bytes()
            == (tmp_path / "catenoid_slices.csv").read_bytes())
    assert ((tmp_path / "re" / "catenoid_report.json").read_bytes()
            == (tmp_path / "catenoid_report.json").read_bytes())


def test_analyze_tilted_band(tmp_path):
    # its ends are not level: it is checked on the band between them, with
    # no capacity
    obj = tmp_path / "band.obj"
    write_obj(rotated_catenoid(0.2, 64, 32), obj)
    assert run(["analyze", str(obj), "--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "band_report.json").read_text())
    assert abs(doc["alpha"] - 0.2) < 1e-4
    assert doc["capacity"] is None


def test_analyze_open_strip_writes_strict_json(tmp_path):
    # the triangles of a catenoid band with every corner at x > -0.2 form an
    # open strip: no slice has a closed cycle, so a slice's Gauss length and
    # curvature margin are null in the JSON (which has no NaN) and nan in
    # the CSV
    band = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 32, 8))
    keep = np.all(band.vertices[band.triangles, 0] > -0.2, axis=1)
    used, tris = np.unique(band.triangles[keep], return_inverse=True)
    obj = tmp_path / "strip.obj"
    write_obj(TriMesh(band.vertices[used], tris.reshape(-1, 3)), obj)
    # an open strip's flow is not level-invariant, so the check fails
    assert run(["analyze", str(obj), "--levels", "5", "--outdir", str(tmp_path)]) == 1

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads((tmp_path / "strip_report.json").read_text(),
                     parse_constant=no_constants)
    assert len(doc["slices"]) == 5
    for s in doc["slices"]:
        assert s["gauss_length"] is None and s["curvature_margin"] is None
        assert isinstance(s["diameter_margin"], float)
    rows = (tmp_path / "strip_slices.csv").read_text().splitlines()[1:]
    assert all(",nan," in row for row in rows)


def test_analyze_missing_file(tmp_path):
    assert run(["analyze", str(tmp_path / "nope.obj")]) == 2


def test_sweep_command(tmp_path):
    rows = sweep_rows(tmp_path, "--res", "48x16", "--offsets", "0.0", "0.2",
                      "--levels", "3")
    assert len(rows) == 2 and all(row["exit"] == "0" for row in rows)
    # offset 0 is axial: unbounded life-time bound reported as inf
    assert rows[0]["lifetime_bound_over_height"] == "inf"


def loaded_special_modules(code):
    """Which of scipy.integrate, optimize and special a fresh interpreter has
    loaded after running `code` (printed to stderr, apart from the CLI's
    stdout)."""
    code += ("; print(sorted({'scipy.integrate', 'scipy.optimize', 'scipy.special'}"
             " & set(sys.modules)), file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(Path(mintube.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stderr


def test_cli_import_leaves_out_quadrature_and_root_finding():
    # only the n-catenoid profile needs scipy.special, so the other commands
    # start without loading it; nothing needs scipy.integrate or optimize
    assert loaded_special_modules("import sys, mintube.cli") == "[]\n"


def test_ncatenoid_lifetimes_load_no_special_functions(tmp_path):
    # for n >= 4 the life-time is a ratio of math.gamma values
    code = (f"import sys, mintube.cli; "
            f"mintube.cli.main(['ncatenoid', '--n', '4..7', '--outdir', {str(tmp_path)!r}])")
    assert loaded_special_modules(code) == "[]\n"


def test_option_surface():
    # every option of every command; a new setting has to change this test
    ap = cli.build_parser()
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    help_ = {"-h", "--help"}
    analysis = help_ | {"--outdir", "--levels"}
    solver_args = {"--r", "--heights", "--res"}
    assert {name: {s for a in p._actions for s in a.option_strings or [a.dest]}
            for name, p in sub.choices.items()} == {
        "catenoid": analysis | {"--a", "--v", "--res"},
        "ncatenoid": help_ | {"--n", "--f0", "--outdir"},
        "solve-annulus": analysis | solver_args | {"--offset"},
        "analyze": analysis | {"obj"},
        "sweep": analysis | solver_args | {"--offsets"},
    }


def test_help_exits_zero():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--help"])
    assert run(["--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["catenoid", "--res", "256x128"],
    ["solve-annulus", "--offset", "0.3", "--res", "96x48"],
])
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # every long sum that reaches an artifact has a fixed order: no BLAS
    # dot product or dense solve, whose order follows the thread count
    env = dict(os.environ, PYTHONPATH=str(Path(mintube.__file__).parents[1]))
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / threads
        args = argv + ["--outdir", str(outdir)]
        code = f"import sys, mintube.cli; sys.exit(mintube.cli.main({args!r}))"
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                       env=dict(env, OPENBLAS_NUM_THREADS=threads))
        outputs.append(read_all_bytes(outdir))
    assert len(outputs[0]) >= 3
    assert outputs[0] == outputs[1]
