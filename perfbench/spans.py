"""In-memory span tracing around calls into mintube's layers.

The tracer wraps functions from outside the program: it rebinds each hooked
function in every ``mintube`` module that holds a reference to it (module
imports such as ``from .mesh import slice_mesh`` make copies of the name),
records a span per call, and restores every binding on ``uninstall``.  A hook
whose target no longer exists is recorded as absent instead of failing, so
the benchmark keeps running after a rename.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

# (module, attribute path, span name).  Every call into a layer that a
# per-layer metric reads is listed here.
HOOKS = [
    ("mintube.solver", "minimize_area", "solver.minimize_area"),
    ("mintube.solver", "_area_hessian", "solver.area_hessian"),
    ("scipy.sparse.linalg", "spsolve", "scipy.spsolve"),
    ("mintube.mesh", "cot_laplacian", "mesh.cot_laplacian"),
    ("mintube.mesh", "slice_mesh", "mesh.slice_mesh"),
    ("mintube.mesh", "read_obj", "mesh.read_obj"),
    ("mintube.mesh", "write_obj", "mesh.write_obj"),
    ("mintube.mesh", "TriMesh.boundary_loops", "mesh.boundary_loops"),
    ("mintube.mesh", "vertex_normals", "mesh.vertex_normals"),
    ("mintube.mesh", "angle_defects", "mesh.angle_defects"),
    ("mintube.mesh", "harmonic_capacity", "mesh.harmonic_capacity"),
    ("mintube.flux", "analyze_tube", "flux.analyze_tube"),
    ("mintube.flux", "verify_axial_cycle_identity", "flux.cycle_identity"),
    ("mintube.flux", "verify_conormal_cycle_identity", "flux.cycle_identity"),
    ("mintube.exterior", "pi_V", "exterior.pi_V"),
    ("mintube.surfaces", "_revolution_mesh", "surfaces.mesh_build"),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    miss: bool = False    # boundary_loops only: the cache was empty

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``spans`` keeps them all in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.op: int | None = None

    # -- recording --------------------------------------------------------
    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, is_boundary_loops: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            if is_boundary_loops:
                span.miss = getattr(args[0], "_boundary_loops", None) is None
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        self.absent = []
        for modname, path, name in HOOKS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(fn, name, path == "TriMesh.boundary_loops")
            targets = [owner] if outer else [owner] + [
                m for k, m in sys.modules.items()
                if k.startswith("mintube") and m is not owner]
            for target in targets:
                if getattr(target, attr, None) is fn:
                    self._restore.append((target, attr, fn))
                    setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._restore):
            setattr(target, attr, fn)
        self._restore.clear()

    # -- output -----------------------------------------------------------
    def dump(self, path) -> None:
        doc = {"absent_hooks": self.absent,
               "spans": [{"id": s.id, "name": s.name, "start": s.start,
                          "end": s.end, "parent": s.parent, "op": s.op}
                         for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_time(span: Span, children: list[Span], names=None) -> float:
    """Duration of ``span`` not covered by its direct children (only the
    children named in ``names``, when given).  Calls are single-threaded,
    so sibling spans never overlap and their durations add."""
    return span.duration - sum(c.duration for c in children
                               if names is None or c.name in names)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and seconds for the spans of one operation.

    Work inside ``minimize_area`` is charged to the solver; the ``mesh.*``
    and ``flux.*`` figures count the work outside it.  A linear solve is a
    Newton-phase solve once its solve has assembled a Hessian.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_id = {s.id: s for s in spans}

    def solve_of(s: Span):
        p = s.parent
        while p is not None:
            if by_id[p].name == "solver.minimize_area":
                return by_id[p]
            p = by_id[p].parent
        return None

    m = {k: 0 for k in (
        "solver.wall_s", "solver.harmonic_solves", "solver.newton_solves",
        "solver.hessian_assemblies", "solver.linear_solve_s",
        "solver.newton_solve_s", "solver.hessian_s", "solver.laplacian_s",
        "solver.safety_slice_s", "solver.self_s",
        "mesh.read_obj_s", "mesh.write_obj_s", "mesh.boundary_loops_s",
        "mesh.boundary_loops_misses", "mesh.slice_mesh_s",
        "mesh.slice_mesh_calls", "mesh.vertex_normals_s",
        "mesh.angle_defects_s", "mesh.capacity_solve_s",
        "flux.analyze_tube_s", "flux.analyze_tube_self_s",
        "flux.cycle_identity_s", "flux.cycle_identity_calls",
        "exterior.pi_V_calls", "exterior.pi_V_s", "surfaces.mesh_build_s")}
    hessian_seen: set[int] = set()
    solver_children = {"scipy.spsolve", "solver.area_hessian",
                       "mesh.cot_laplacian", "mesh.slice_mesh"}
    for s in spans:        # spans are in start order
        solve = solve_of(s)
        d = s.duration
        if s.name == "solver.minimize_area":
            m["solver.wall_s"] += d
            m["solver.self_s"] += self_time(s, children.get(s.id, []),
                                            solver_children)
        elif solve is not None:
            direct = s.parent == solve.id
            if s.name == "solver.area_hessian":
                hessian_seen.add(solve.id)
                m["solver.hessian_assemblies"] += 1
                m["solver.hessian_s"] += d
            elif s.name == "scipy.spsolve" and direct:
                m["solver.linear_solve_s"] += d
                if solve.id in hessian_seen:
                    m["solver.newton_solves"] += 1
                    m["solver.newton_solve_s"] += d
                else:
                    m["solver.harmonic_solves"] += 1
            elif s.name == "mesh.cot_laplacian" and direct:
                m["solver.laplacian_s"] += d
            elif s.name == "mesh.slice_mesh" and direct:
                m["solver.safety_slice_s"] += d
        elif s.name == "mesh.slice_mesh":
            m["mesh.slice_mesh_s"] += d
            m["mesh.slice_mesh_calls"] += 1
        elif s.name in ("mesh.read_obj", "mesh.write_obj",
                        "mesh.vertex_normals", "mesh.angle_defects"):
            m[s.name + "_s"] += d
        elif s.name == "mesh.boundary_loops":
            m["mesh.boundary_loops_s"] += d
            m["mesh.boundary_loops_misses"] += s.miss
        elif s.name == "mesh.harmonic_capacity":
            m["mesh.capacity_solve_s"] += d
        elif s.name == "flux.analyze_tube":
            m["flux.analyze_tube_s"] += d
            m["flux.analyze_tube_self_s"] += self_time(s, children.get(s.id, []))
        elif s.name == "flux.cycle_identity":
            m["flux.cycle_identity_s"] += d
            m["flux.cycle_identity_calls"] += 1
        elif s.name == "exterior.pi_V":
            m["exterior.pi_V_s"] += d
            m["exterior.pi_V_calls"] += 1
        elif s.name == "surfaces.mesh_build":
            m["surfaces.mesh_build_s"] += d
    m["solver.rejected_steps"] = (m["solver.newton_solves"]
                                  - m["solver.hessian_assemblies"])
    m["solver.step_accept_ratio"] = (
        m["solver.hessian_assemblies"] / m["solver.newton_solves"]
        if m["solver.newton_solves"] else 1.0)
    return m
