"""Command-line front end: reproducible runs emitting OBJ meshes and
JSON/CSV reports.

Output files are written with fixed formatting (sorted JSON keys, 17
significant digits, '.' decimal separator) so a rerun with the same
configuration is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import flux, mesh as meshmod, solver, surfaces

# the checks' slack, recorded in every report
MARGIN_TOL = 0.05          # for the inequality margins, radians
INVARIANCE_TOL = 1e-2      # for the flow deviation, relative to ||J||

# exit code of each solver failure, for `main` and for a failed sweep row
SOLVER_EXIT_CODES = {solver.NoAnnulusError: 2, solver.ConvergenceError: 3}


class CliError(Exception):
    pass


def _outdir(args) -> Path:
    """The output directory, created if missing.  Each command calls this
    only once its results are computed, so a failed run leaves no empty
    directory behind."""
    d = Path(args.outdir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _parse_res(text: str):
    try:
        nu, nv = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise CliError(f"bad resolution {text!r}; expected like 256x128")
    return nu, nv


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_n_range(text: str):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _analyze(args, m: meshmod.TriMesh, **solver_tols) -> flux.TubeReport:
    """Analyze m, recording the check tolerances (and any solver tolerance)
    in the report."""
    tols = {"margin_tol": MARGIN_TOL, "invariance_tol": INVARIANCE_TOL, **solver_tols}
    return flux.analyze_tube(m, n_levels=args.levels, tolerances=tols)


def _write_report(report: flux.TubeReport, outdir: Path, stem: str) -> None:
    """Write the report's JSON and slice CSV."""
    _write(outdir / f"{stem}_report.json", report.to_json())
    _write(outdir / f"{stem}_slices.csv", report.slices_csv())


def _verify_report(report: flux.TubeReport) -> int:
    """Run the standard verification set on a TubeReport, print each
    failure to stderr and return the exit status: 1 if any check failed."""
    failures = []
    if report.flow_level_deviation > INVARIANCE_TOL * report.flow_norm:
        failures.append(
            f"flow deviation {report.flow_level_deviation:.3e} exceeds "
            f"{INVARIANCE_TOL:.1e} * ||J||")
    if report.min_diameter_margin() < -MARGIN_TOL:
        failures.append(
            f"diameter-bound margin {report.min_diameter_margin():.3e} below "
            f"-{MARGIN_TOL}")
    if report.min_curvature_margin() < -MARGIN_TOL:       # False when NaN
        failures.append(
            f"slice curvature margin {report.min_curvature_margin():.3e} below "
            f"-{MARGIN_TOL}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def cmd_catenoid(args) -> int:
    nu, nv = _parse_res(args.res)
    spec = surfaces.CatenoidSpec(args.a, args.v[0], args.v[1], nu, nv)
    m = surfaces.catenoid_mesh(spec)
    m.validate()
    report = _analyze(args, m)
    outdir = _outdir(args)
    meshmod.write_obj(m, outdir / "catenoid.obj")
    _write_report(report, outdir, "catenoid")
    return _verify_report(report)


def cmd_ncatenoid(args) -> int:
    ns = _parse_n_range(args.n)
    if not ns:
        raise CliError(f"--n range {args.n!r} is empty")
    if not sys.float_info.min <= args.f0 < math.inf:
        raise CliError(f"--f0 must be finite and at least {sys.float_info.min!r}, "
                       f"the smallest normal float")
    rows = ["n,f0,lifetime"]
    growth = []
    for n in ns:
        if n < 3:
            raise CliError("--n values must be >= 3")
        if n == 3:
            rows.append(f"3,{args.f0:.17g},infinite")
            # twice the axial distance f0 acosh(f/f0) at f/f0 = cap
            for cap in (1e3, 1e6):
                t = args.f0 * (2.0 * math.acosh(cap))
                if t == math.inf:
                    raise CliError(f"the n = 3 partial life-time at f/f0 = {cap:g} "
                                   f"overflows at f0 = {args.f0:.6g}; ask for a smaller --f0")
                growth.append((cap, t))
        else:
            lt = surfaces.ncatenoid_lifetime(n, args.f0)
            rows.append(f"{n},{args.f0:.17g},{lt:.17g}")
    outdir = _outdir(args)
    _write(outdir / "ncatenoid_lifetimes.csv", "\n".join(rows) + "\n")
    doc = {
        "schema": flux.SCHEMA_VERSION,
        "f0": args.f0,
        "rows": [r.split(",") for r in rows[1:]],
        "n3_growth_samples": [{"f_cap_over_f0": c, "partial_lifetime": t}
                              for c, t in growth],
    }
    _write(outdir / "ncatenoid_report.json",
           json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("\n".join(rows))
    return 0


def _annulus_problem(args, offset: float) -> solver.AnnulusProblem:
    """The problem the solver arguments describe, with the upper circle
    shifted by `offset` along x."""
    if not args.heights[0] < args.heights[1]:
        raise CliError("--heights must be increasing")
    nu, nv = _parse_res(args.res)
    t1, t2 = args.heights
    return solver.AnnulusProblem(solver.Circle((0.0, 0.0, t1), args.r[0]),
                                 solver.Circle((offset, 0.0, t2), args.r[1]), nu=nu, nv=nv)


def cmd_solve_annulus(args) -> int:
    prob = _annulus_problem(args, args.offset)
    m, conv = solver.solve_annulus(prob)
    report = _analyze(args, m, solver_tolerance=solver.TOLERANCE)
    outdir = _outdir(args)
    meshmod.write_obj(m, outdir / "annulus.obj")
    _write(outdir / "annulus_convergence.json", conv.to_json())
    _write_report(report, outdir, "annulus")
    return _verify_report(report)


def cmd_analyze(args) -> int:
    m = meshmod.read_obj(args.obj)
    m.validate()
    report = _analyze(args, m)
    _write_report(report, _outdir(args), Path(args.obj).stem)
    return _verify_report(report)


def cmd_sweep(args) -> int:
    """One row per offset; a solver failure gives a row with its exit code
    and empty fields, and the sweep goes on."""
    if not args.offsets:
        raise CliError("need at least one offset")
    # every offset is checked before the first solve
    problems = [_annulus_problem(args, off) for off in args.offsets]
    rows = ["offset,alpha,min_diameter_margin,lifetime_bound_over_height,"
            "exit,stack_iterations,iterations,area"]
    for off, prob in zip(args.offsets, problems):
        try:
            m, conv = solver.solve_annulus(prob)
        except tuple(SOLVER_EXIT_CODES) as exc:
            print(f"offset {off!r}: {exc}", file=sys.stderr)
            rows.append(f"{off:.17g},,,,{SOLVER_EXIT_CODES[type(exc)]},,,")
            continue
        report = flux.analyze_tube(m, n_levels=args.levels,
                                   compute_capacity=False)
        lb = report.lifetime_bound
        ratio = "inf" if lb.unbounded else f"{lb.value / report.slab_height:.17g}"
        rows.append(f"{off:.17g},{report.alpha:.17g},"
                    f"{report.min_diameter_margin():.17g},{ratio},0,"
                    f"{conv.stack_iterations},{conv.iterations},"
                    f"{conv.area_history[-1]:.17g}")
    outdir = _outdir(args)
    _write(outdir / "sweep.csv", "\n".join(rows) + "\n")
    print("\n".join(rows))
    return 0


def _add_outdir(p):
    p.add_argument("--outdir", default=".", help="output directory (default: '.')")


def _add_analysis_args(p, levels_default=10):
    """--outdir and --levels."""
    _add_outdir(p)
    p.add_argument("--levels", type=positive_int, default=levels_default,
                   help="number of interior slice levels")


def _add_solver_args(p):
    p.add_argument("--r", type=float, nargs=2, default=[1.0, 1.0],
                   metavar=("R0", "R1"))
    p.add_argument("--heights", type=float, nargs=2, default=[0.0, 1.0],
                   metavar=("T1", "T2"))
    p.add_argument("--res", default="96x48")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mintube",
                                 description="minimal-tube generators, solver and verifiers")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catenoid", help="analytic catenoid band + full report")
    p.add_argument("--a", type=float, default=1.0, help="neck radius")
    p.add_argument("--v", type=float, nargs=2, default=[-1.0, 1.0],
                   metavar=("VMIN", "VMAX"))
    p.add_argument("--res", default="256x128")
    _add_analysis_args(p)
    p.set_defaults(func=cmd_catenoid)

    p = sub.add_parser("ncatenoid", help="life-time table of rotational catenoids")
    p.add_argument("--n", default="4..7", help="dimension or range like 4..7")
    p.add_argument("--f0", type=float, default=1.0)
    _add_outdir(p)
    p.set_defaults(func=cmd_ncatenoid)

    p = sub.add_parser("solve-annulus",
                       help="minimal annulus between two horizontal circles")
    _add_solver_args(p)
    p.add_argument("--offset", type=float, default=0.0)
    _add_analysis_args(p)
    p.set_defaults(func=cmd_solve_annulus)

    p = sub.add_parser("analyze", help="full report for an existing OBJ tube")
    p.add_argument("obj")
    _add_analysis_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep",
                       help="offset sweep: tilt angle, bound tightness and exit "
                            "class, one row per solve")
    _add_solver_args(p)
    p.add_argument("--offsets", type=float, nargs="+", required=True)
    _add_analysis_args(p, levels_default=5)
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError, meshmod.MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        hint = "; a smaller --res needs less" if hasattr(args, "res") else ""
        print(f"error: out of memory{hint}", file=sys.stderr)
        return 2
    except tuple(SOLVER_EXIT_CODES) as exc:
        # a no-annulus message starts "no annulus: " on its own
        prefix = "" if isinstance(exc, solver.NoAnnulusError) else "error: "
        print(f"{prefix}{exc}", file=sys.stderr)
        return SOLVER_EXIT_CODES[type(exc)]


if __name__ == "__main__":
    raise SystemExit(main())
