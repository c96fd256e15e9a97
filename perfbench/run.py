"""mintube benchmark: run one workload through the public entry points,
check every result, and print the metrics as one JSON object.

    python3 perfbench/run.py --workload annulus_offset --seed 1 --seconds 40 --trace 0

Run it from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics from a traced run.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the run metadata.  Spans and results are also written
to ``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, layer_metrics

# mintube and numpy are imported inside functions: the BLAS thread pools
# must be set before numpy loads, and the sources come from SRC.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_REPEATS = 3
MIN_CYCLES = 2      # repeats give the byte-identity check something to compare

# Cycle-identity inputs (acceptance criterion 3) and their tolerance.
IDENTITY_LEVELS = (0.3, -0.4)
IDENTITY_Q = (0.6, -0.8, 0.4)
IDENTITY_TOL = 1e-3
FLUX_TOL = 1e-3


def pin_blas_threads() -> tuple[int, int]:
    """Set the BLAS thread pools to one thread before numpy loads.

    One thread is within the cap of one per usable CPU.  The work here is
    SuperLU (single-threaded) and small dense kernels, on which a second
    BLAS thread measured slower and noisier on a 2-CPU machine.
    """
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return nproc, BLAS_THREADS


@dataclass
class OpResult:
    """What one operation did and what its checks found."""

    label: str
    wall: float = 0.0
    failures: list = field(default_factory=list)
    runtime_warnings: int = 0
    flow_dev_rel: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    iterations: int | None = None
    obj_bytes: int = 0      # OBJ bytes the operation wrote


def run_cli(r: OpResult, argv: list) -> int:
    """Call ``mintube.cli.main`` and add its wall time and warnings to r."""
    from mintube import cli
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = time.perf_counter()
        rc = cli.main(argv)
        r.wall += time.perf_counter() - t
    r.runtime_warnings += sum(issubclass(w.category, RuntimeWarning)
                              for w in caught)
    return rc


def read_report(r: OpResult, path: Path) -> dict:
    rep = json.loads(path.read_text())
    r.flow_dev_rel.append(rep["flow_level_deviation"] / rep["flow_norm"])
    r.margins.append(min(s["diameter_margin"] for s in rep["slices"]))
    return rep


def solve_op(out: Path, offset: float, height: float, res: str,
             expect: int) -> OpResult:
    """`mintube solve-annulus` between unit circles at heights 0 and height."""
    r = OpResult(f"solve {offset!r} {height!r} {res}")
    rc = run_cli(r, ["solve-annulus", "--offset", repr(offset), "--heights",
                     "0", repr(height), "--res", res, "--outdir", str(out)])
    if rc != expect:
        r.failures.append(f"{r.label}: exit {rc}, expected {expect}")
    if rc == 0:
        conv = json.loads((out / "annulus_convergence.json").read_text())
        rep = read_report(r, out / "annulus_report.json")
        tol = rep["tolerances"]["solver_tolerance"]
        r.iterations = conv["iterations"]
        if not conv["converged"] or conv["final_residual"] > tol:
            r.failures.append(f"{r.label}: final residual "
                              f"{conv['final_residual']} above {tol}")
    return r


def catenoid_op(out: Path, a: float, res: str) -> OpResult:
    """Catenoid report (OBJ write), re-analysis of the OBJ, then the axial
    and conormal cycle identities through ``mintube.flux``."""
    import numpy as np
    from mintube import flux, mesh, surfaces

    r = OpResult(f"catenoid {a!r} {res}")
    obj = out / "catenoid.obj"
    for argv in (["catenoid", "--a", repr(a), "--res", res, "--outdir", str(out)],
                 ["analyze", str(obj), "--outdir", str(out / "analyze")]):
        rc = run_cli(r, argv)
        if rc != 0:
            r.failures.append(f"{r.label}: {argv[0]} exit {rc}, expected 0")
            return r
    t = time.perf_counter()
    nu, nv = (int(x) for x in res.split("x"))
    m = surfaces.catenoid_mesh(surfaces.CatenoidSpec(a, -1.0, 1.0, nu, nv))
    q = np.array(IDENTITY_Q)
    identities = []
    for level in IDENTITY_LEVELS:
        for c in mesh.slice_mesh(m, level):
            scale = c.length() * float(np.linalg.norm(q))
            identities.append((level, flux.verify_axial_cycle_identity(c, q)
                               / scale))
            identities += [(level, x / scale)
                           for x in flux.verify_conormal_cycle_identity(c, q)]
    r.wall += time.perf_counter() - t

    rep = read_report(r, out / "catenoid_report.json")
    read_report(r, out / "analyze" / "catenoid_report.json")
    j3 = rep["flow_vector"][2]
    exact = float(surfaces.catenoid_flux(a)[2])
    if abs(j3 - exact) > FLUX_TOL * exact:
        r.failures.append(f"{r.label}: J3 {j3} vs exact {exact}")
    for level, res_rel in identities:
        if not res_rel <= IDENTITY_TOL:
            r.failures.append(f"{r.label}: cycle identity at {level} has "
                              f"residual {res_rel:.3e} of length*|q|")
    return r


# -- workloads ---------------------------------------------------------------
# A workload maps a seed to (setup op, cycle of ops).  The seed jitters the
# inputs inside the bands README.md gives; the same seed gives the same inputs.

def annulus_offset(rng: random.Random):
    # Offsets from 0.2999 to 0.303 all take 69 iterations and 56 Newton-phase
    # solves; below about 0.2988 the solve takes one Newton iteration fewer.
    # The jitter stays on one side so that the seed does not move the counts.
    offset = round(0.3 + 0.003 * rng.random(), 6)
    return ({"offset": offset},
            lambda out: solve_op(out, offset, 1.0, "24x12", 0),
            [lambda out: solve_op(out, offset, 1.0, "96x48", 0)])


def catenoid_report(rng: random.Random):
    a_small = round(1.0 + 0.01 * rng.uniform(-1.0, 1.0), 6)
    a_large = round(2.0 + 0.01 * rng.uniform(-1.0, 1.0), 6)
    return ({"a": [a_small, a_large]},
            lambda out: catenoid_op(out, a_small, "32x16"),
            [lambda out: catenoid_op(out, a_small, "256x128"),
             lambda out: catenoid_op(out, a_large, "256x128")])


EXISTS = (0.5, 1.0, 1.2, 1.3)     # coaxial unit circles: a catenoid spans
PINCHES = (1.5, 2.0, 3.0)         # them only below h ~ 1.3255


def existence_scan(rng: random.Random):
    cases = ([(round(h * (1 - 0.02 * rng.random()), 6), 0) for h in EXISTS]
             + [(round(h * (1 + 0.02 * rng.random()), 6), 2) for h in PINCHES])
    return ({"heights": [h for h, _ in cases]},
            lambda out: solve_op(out, 0.0, cases[0][0], "16x8", 0),
            [lambda out, h=h, rc=rc: solve_op(out, 0.0, h, "64x32", rc)
             for h, rc in cases])


WORKLOADS = {f.__name__: f for f in (annulus_offset, catenoid_report,
                                     existence_scan)}


# -- measurement -------------------------------------------------------------

def digest_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_op(op, work: Path, index: int) -> OpResult:
    """Run one operation in a fresh directory; an exception is a failure."""
    out = work / f"op{index}"
    out.mkdir(parents=True)
    try:
        r = op(out)
    except Exception:
        traceback.print_exc()
        r = OpResult(f"op {index}", failures=[f"op {index} raised"])
    r.digests = digest_tree(out)
    r.obj_bytes = sum(p.stat().st_size for p in out.rglob("*.obj"))
    shutil.rmtree(out)
    return r


def import_seconds() -> float:
    """Import time of ``mintube.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import time; t = time.perf_counter(); import mintube.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside
    a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, nproc, threads, inputs, n_ops, n_traced) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
            "nproc": nproc, "blas_threads": threads, "blas": blas,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": git_commit(),
            "setup_samples": SETUP_REPEATS, "op_samples": n_ops,
            "traced_op_samples": n_traced}


def measure(cycle, seconds: float, work: Path, tracer: Tracer | None):
    """Run whole cycles of operations until ``seconds`` have passed, and at
    least MIN_CYCLES of them.  With a tracer, the first cycle is the untraced
    baseline and later cycles are traced.

    Returns (results, per-layer rows of the traced operations, tracing
    overhead per operation in seconds).
    """
    results, layer_rows, baseline, traced, first_digests = [], [], {}, {}, {}
    start = time.perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
        tracing = tracer is not None and cycles > 0
        if tracing:
            tracer.install()
        try:
            for op in cycle:
                index = len(results)
                if tracing:
                    tracer.op = index
                r = run_op(op, work, index)
                if tracing:
                    traced.setdefault(r.label, []).append(r.wall)
                    row = layer_metrics([s for s in tracer.spans
                                         if s.op == index])
                    row["solver.iterations"] = r.iterations or 0
                    row["cli.runtime_warnings"] = r.runtime_warnings
                    row["mesh.obj_bytes"] = r.obj_bytes
                    row["cli.op_wall_s"] = r.wall
                    layer_rows.append(row)
                else:
                    baseline.setdefault(r.label, r.wall)
                if first_digests.setdefault(r.label, r.digests) != r.digests:
                    r.failures.append(f"{r.label}: artifacts differ from an "
                                      "earlier run of the same operation")
                results.append(r)
        finally:
            if tracing:
                tracer.uninstall()
        cycles += 1
    overhead = (statistics.mean(statistics.median(w) - baseline[label]
                                for label, w in traced.items())
                if traced else 0.0)
    return results, layer_rows, overhead


def end_to_end(results: list, setup_s: float) -> dict:
    ok = [r for r in results if not r.failures]
    walls = [r.wall for r in results]
    flow = [x for r in ok for x in r.flow_dev_rel]
    margins = [x for r in ok for x in r.margins]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_min": (60.0 * len(ok) / sum(walls), "1/min"),
        "op_p50_s": (statistics.median(walls), "s"),
        "ok_op_frac": (len(ok) / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
        "flow_dev_rel_max": (max(flow, default=0.0), "ratio"),
        "diameter_margin_min": (min(margins, default=0.0), "rad"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def per_layer(layer_rows: list, overhead_s: float, absent: int) -> dict:
    keys = layer_rows[0].keys()
    out = {k: statistics.median(row[k] for row in layer_rows) for k in keys}
    out["trace.overhead_s"] = overhead_s
    out["trace.absent_hooks"] = absent
    return {k: (v, layer_unit(k)) for k, v in sorted(out.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mintube" / "cli.py").is_file():
        print(f"error: no mintube sources under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2

    nproc, threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))

    inputs, setup_op, cycle = WORKLOADS[args.workload](random.Random(args.seed))
    work = OUT / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        fixtures = [run_op(setup_op, work, -1 - i).wall
                    for i in range(SETUP_REPEATS)]
        setup_s = statistics.median(imports) + statistics.median(fixtures)
        results, layer_rows, overhead = measure(cycle, args.seconds, work,
                                                tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in results:
        for f in r.failures:
            print(f"FAIL: {f}", file=sys.stderr)
    failed = sum(bool(r.failures) for r in results)
    if tracer is not None:
        metrics = per_layer(layer_rows, overhead, len(tracer.absent))
    else:
        metrics = end_to_end(results, setup_s)
    meta = metadata(args, nproc, threads, inputs, len(results),
                    len(layer_rows))
    meta["absent_hooks"] = tracer.absent if tracer is not None else []
    result = {"correct": failed == 0, "attempted": len(results),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = [{"label": r.label, "wall_s": r.wall, "failures": r.failures}
           for r in results]
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"meta": meta, **result, "ops": ops}, indent=2) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"spans-{stem}.json")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
