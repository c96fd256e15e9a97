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
import os
import sys
from pathlib import Path

from . import flux, mesh as meshmod, solver, surfaces

OUTDIR_ENV = "MINTUBE_OUTDIR"

DEFAULT_MARGIN_TOL = 0.05          # slack for inequality margins, radians
DEFAULT_INVARIANCE_TOL = 1e-2      # flow deviation relative to ||J||


class CliError(Exception):
    pass


def _outdir(args) -> Path:
    d = Path(args.outdir or os.environ.get(OUTDIR_ENV, "."))
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


def nonnegative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


def _parse_n_range(text: str):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _verify_report(report: flux.TubeReport, margin_tol: float,
                   invariance_tol: float) -> int:
    """Run the standard verification set on a TubeReport, print each
    failure to stderr and return the exit status: 1 if any check failed."""
    failures = []
    if report.flow_level_deviation > invariance_tol * report.flow_norm:
        failures.append(
            f"flow deviation {report.flow_level_deviation:.3e} exceeds "
            f"{invariance_tol:.1e} * ||J||")
    if report.min_diameter_margin() < -margin_tol:
        failures.append(
            f"diameter-bound margin {report.min_diameter_margin():.3e} below "
            f"-{margin_tol}")
    if not math.isnan(report.min_curvature_margin()) \
            and report.min_curvature_margin() < -margin_tol:
        failures.append(
            f"slice curvature margin {report.min_curvature_margin():.3e} below "
            f"-{margin_tol}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def _emit_report(report: flux.TubeReport, outdir: Path, stem: str) -> None:
    _write(outdir / f"{stem}_report.json", report.to_json())
    _write(outdir / f"{stem}_slices.csv", report.slices_csv())


def cmd_catenoid(args) -> int:
    nu, nv = _parse_res(args.res)
    spec = surfaces.CatenoidSpec(args.a, args.v[0], args.v[1], nu, nv)
    m = surfaces.catenoid_mesh(spec)
    m.validate()
    outdir = _outdir(args)
    meshmod.write_obj(m, outdir / "catenoid.obj")
    tols = {"margin_tol": args.margin_tol, "invariance_tol": args.invariance_tol}
    report = flux.analyze_tube(m, n_levels=args.levels, tolerances=tols)
    _emit_report(report, outdir, "catenoid")
    if args.verify == "none":
        return 0
    return _verify_report(report, args.margin_tol, args.invariance_tol)


def cmd_ncatenoid(args) -> int:
    ns = _parse_n_range(args.n)
    if not ns:
        raise CliError(f"--n range {args.n!r} is empty")
    if not 0 < args.f0 < math.inf:
        raise CliError("--f0 must be finite and positive")
    rows = ["n,f0,lifetime"]
    growth = []
    for n in ns:
        if n < 3:
            raise CliError("--n values must be >= 3")
        if n == 3:
            rows.append(f"3,{args.f0:.17g},infinite")
            for cap in (1e3, 1e6):
                prof = surfaces.ncatenoid_profile(3, args.f0, f_cap=cap * args.f0)
                growth.append((cap, 2.0 * float(prof.t[-1])))
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
    return solver.AnnulusProblem(
        solver.Circle((0.0, 0.0, t1), args.r[0]),
        solver.Circle((offset, 0.0, t2), args.r[1]),
        nu=nu, nv=nv,
        options=solver.SolverOptions(max_iterations=args.max_iterations,
                                     tolerance=args.tolerance),
    )


def cmd_solve_annulus(args) -> int:
    prob = _annulus_problem(args, args.offset)
    outdir = _outdir(args)
    m, conv = solver.solve_annulus(prob)
    meshmod.write_obj(m, outdir / "annulus.obj")
    _write(outdir / "annulus_convergence.json", conv.to_json())
    tols = {"margin_tol": args.margin_tol, "invariance_tol": args.invariance_tol,
            "solver_tolerance": args.tolerance}
    report = flux.analyze_tube(m, n_levels=args.levels, tolerances=tols)
    _emit_report(report, outdir, "annulus")
    if args.verify == "none":
        return 0
    return _verify_report(report, args.margin_tol, args.invariance_tol)


def cmd_analyze(args) -> int:
    m = meshmod.read_obj(args.obj)
    m.validate()
    outdir = _outdir(args)
    levels = args.levels_at if args.levels_at else None
    report = flux.analyze_tube(m, levels=levels, n_levels=args.levels,
                               tolerances={"margin_tol": args.margin_tol})
    stem = Path(args.obj).stem
    _emit_report(report, outdir, stem)
    return _verify_report(report, args.margin_tol, args.invariance_tol)


def cmd_sweep(args) -> int:
    if not args.offsets:
        raise CliError("need at least one offset")
    # every offset is checked before the first solve
    problems = [_annulus_problem(args, off) for off in args.offsets]
    rows = ["offset,alpha,min_diameter_margin,lifetime_bound_over_height"]
    for off, prob in zip(args.offsets, problems):
        m, _ = solver.solve_annulus(prob)
        report = flux.analyze_tube(m, n_levels=args.levels,
                                   compute_capacity=False)
        lb = report.lifetime_bound
        ratio = math.inf if lb.unbounded else lb.value / report.slab_height
        ratio_text = "inf" if math.isinf(ratio) else f"{ratio:.17g}"
        rows.append(f"{off:.17g},{report.alpha:.17g},"
                    f"{report.min_diameter_margin():.17g},{ratio_text}")
    outdir = _outdir(args)
    _write(outdir / "sweep.csv", "\n".join(rows) + "\n")
    print("\n".join(rows))
    return 0


def _add_outdir(p):
    p.add_argument("--outdir", default=None,
                   help=f"output directory (default: ${OUTDIR_ENV} or '.')")


def _add_analysis_args(p, levels_default=10, tolerances=True):
    """--outdir and --levels, plus the check tolerances of the verified
    commands."""
    _add_outdir(p)
    p.add_argument("--levels", type=positive_int, default=levels_default,
                   help="number of interior slice levels")
    if tolerances:
        p.add_argument("--margin-tol", type=nonnegative_float, default=DEFAULT_MARGIN_TOL)
        p.add_argument("--invariance-tol", type=nonnegative_float, default=DEFAULT_INVARIANCE_TOL)


def _add_solver_args(p):
    p.add_argument("--r", type=float, nargs=2, default=[1.0, 1.0],
                   metavar=("R0", "R1"))
    p.add_argument("--heights", type=float, nargs=2, default=[0.0, 1.0],
                   metavar=("T1", "T2"))
    p.add_argument("--res", default="96x48")
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--tolerance", type=float, default=1e-6)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mintube",
                                 description="minimal-tube generators, solver and verifiers")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catenoid", help="analytic catenoid band + full report")
    p.add_argument("--a", type=float, default=1.0, help="neck radius")
    p.add_argument("--v", type=float, nargs=2, default=[-1.0, 1.0],
                   metavar=("VMIN", "VMAX"))
    p.add_argument("--res", default="256x128")
    p.add_argument("--verify", choices=["all", "none"], default="all")
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
    p.add_argument("--verify", choices=["all", "none"], default="all")
    _add_analysis_args(p)
    p.set_defaults(func=cmd_solve_annulus)

    p = sub.add_parser("analyze", help="full report for an existing OBJ tube")
    p.add_argument("obj")
    p.add_argument("--levels-at", type=float, nargs="+", default=None)
    _add_analysis_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep",
                       help="offset sweep: tilt angle and bound tightness")
    _add_solver_args(p)
    p.add_argument("--offsets", type=float, nargs="+", required=True)
    _add_analysis_args(p, levels_default=5, tolerances=False)
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
        print("error: out of memory; a smaller --res needs less", file=sys.stderr)
        return 2
    except solver.NoAnnulusError as exc:
        print(exc, file=sys.stderr)  # the message starts "no annulus: "
        return 2
    except solver.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
