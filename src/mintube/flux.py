"""Flow vectors of cross-section cycles and the inequalities they control.

`analyze_tube` is the verifier: it slices a tube, measures each cycle once
(flow vector J, tilt angle alpha, Gauss-image diameter and length) and
reports the diameter bound d >= 2 alpha and the slice curvature bound
length >= 4 alpha per slice, the level invariance of J, the capacity/
life-time relation and the finite-life-time estimate.  The cycle identities
and the vector-sum angle bound are checked on their own.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .mesh import (
    E3,
    CrossSectionCycle,
    TriMesh,
    gauss_image_diameter,
    gauss_image_length,
    harmonic_capacity,
    slice_mesh,
    total_curvature,
    vertex_normals,
)

SCHEMA_VERSION = 1

# Below this measured angle the flow is treated as axial: the life-time
# bound hypothesis (strictly positive tilt) fails and the bound is reported
# as unbounded instead of dividing by a discretization-noise angle.
ALPHA_ZERO_TOL = 1e-5


def flow_vector(cycle: CrossSectionCycle) -> np.ndarray:
    """J(Sigma) = integral of the conormal over the cycle (midpoint rule)."""
    if cycle.n_segments == 0:
        raise ValueError("cycle has no segments")
    return np.asarray((cycle.conormals * cycle.ds[:, None]).sum(axis=0))


def flow_vector_total(cycles) -> np.ndarray:
    """Flow vector of a union of cycles (additivity over components)."""
    cycles = list(cycles)
    if not cycles:
        raise ValueError("empty cycle union")
    return np.sum([flow_vector(c) for c in cycles], axis=0)


def flow_angle(J) -> float:
    """Angle between the flow vector and e3, in [0, pi/2)."""
    J = np.asarray(J, dtype=float)
    norm = float(np.linalg.norm(J))
    if norm == 0.0:
        raise ValueError("flow vector is zero")
    if J[2] <= 0:
        raise ValueError("flow vector must have a positive axial component")
    return float(np.arccos(np.clip(J[2] / norm, -1.0, 1.0)))


def orthogonal_tilt_direction(J) -> np.ndarray:
    """Unit q orthogonal to J maximizing q3/||q||; for axial J any horizontal
    direction is optimal and e1 is returned deterministically."""
    J = np.asarray(J, dtype=float)
    q = E3 - (J[2] / float(J @ J)) * J
    nq = np.linalg.norm(q)
    if nq < 1e-12:
        return np.array([1.0, 0.0, 0.0])
    return q / nq


def _tangent_contraction(cycle: CrossSectionCycle, q: np.ndarray) -> np.ndarray:
    """pi_T(q) = *(sigma(T) ^ q) per segment with T the tangent line of the
    cycle; for a unit tangent t in R^3 this is the cross product t x q."""
    return np.cross(cycle.tangents, q)


def verify_axial_cycle_identity(cycle: CrossSectionCycle, q) -> float:
    """|integral over the cycle of <pi_T(q), e3>|; vanishes for simple closed
    cycles by the divergence theorem in the slicing plane."""
    if not cycle.closed:
        raise ValueError("identity requires a closed cycle")
    q = np.asarray(q, dtype=float)
    vals = _tangent_contraction(cycle, q)[:, 2]
    return abs(float((vals * cycle.ds).sum()))


def verify_conormal_cycle_identity(cycle: CrossSectionCycle, q):
    """Residual pair (|integral <pi_T(q), gamma + e3>|, |... gamma - e3>|)
    after orthogonalizing q against the cycle's flow vector."""
    if not cycle.closed:
        raise ValueError("identity requires a closed cycle")
    q = np.asarray(q, dtype=float)
    J = flow_vector(cycle)
    q = q - (float(q @ J) / float(J @ J)) * J
    if np.linalg.norm(q) < 1e-14:
        return 0.0, 0.0
    pt = _tangent_contraction(cycle, q)
    plus = np.einsum("ij,ij->i", pt, cycle.normals + E3)
    minus = np.einsum("ij,ij->i", pt, cycle.normals - E3)
    return (abs(float((plus * cycle.ds).sum())),
            abs(float((minus * cycle.ds).sum())))


@dataclass(frozen=True)
class CapacityCheck:
    measured: float
    height_over_flux: float     # predicted value (t2 - t1)/J3
    flux_over_height: float     # J3/(t2 - t1), matches the measured energy
    rel_error_height_over_flux: float
    rel_error_flux_over_height: float


def verify_capacity_law(mesh: TriMesh, t1: float, t2: float,
                        normals=None) -> CapacityCheck:
    """Compare the measured Dirichlet-energy capacity of the slab mesh
    against the flux-based predictions."""
    loops = mesh.boundary_loops()
    if len(loops) != 2:
        raise ValueError(f"slab mesh must have exactly 2 boundary loops, has {len(loops)}")
    levels = [float(np.mean(mesh.vertices[lp, 2])) for lp in loops]
    tol = 1e-6 * (abs(t2 - t1) + 1.0)
    if abs(min(levels) - t1) > tol or abs(max(levels) - t2) > tol:
        raise ValueError(
            f"boundary loops sit at levels {sorted(levels)}, expected ({t1}, {t2})")
    lo = loops[int(np.argmin(levels))]
    hi = loops[int(np.argmax(levels))]
    measured, _ = harmonic_capacity(mesh, lo, hi)
    mid = 0.5 * (t1 + t2)
    J = flow_vector_total(slice_mesh(mesh, mid, normals))
    pred_pub = (t2 - t1) / float(J[2])
    pred_rec = float(J[2]) / (t2 - t1)
    return CapacityCheck(
        measured=measured,
        height_over_flux=pred_pub,
        flux_over_height=pred_rec,
        rel_error_height_over_flux=abs(measured - pred_pub) / pred_pub,
        rel_error_flux_over_height=abs(measured - pred_rec) / pred_rec,
    )


@dataclass(frozen=True)
class LifetimeBound:
    """Right-hand side of the life-time estimate ||J|| G cos(a) / (16 a^2)."""

    value: float            # math.inf when the tilt hypothesis fails
    unbounded: bool
    flat_contradiction: bool  # G == 0 with positive tilt cannot happen on a
                              # genuinely minimal tube

    def to_json_value(self):
        return "unbounded" if self.unbounded else self.value


def lifetime_bound(J, G: float) -> LifetimeBound:
    if G < 0:
        raise ValueError("total curvature must be nonnegative")
    J = np.asarray(J, dtype=float)
    alpha = flow_angle(J)
    if alpha <= ALPHA_ZERO_TOL:
        return LifetimeBound(math.inf, True, False)
    value = float(np.linalg.norm(J)) * G * math.cos(alpha) / (16.0 * alpha**2)
    return LifetimeBound(value, False, G == 0.0)


def sum_angle_bound(vectors, e):
    """(angle of the vector sum to e, max individual angle to e); the first
    never exceeds the second when all <v_i, e> >= 0."""
    e = np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise ValueError("empty vector system")
    angles = []
    for v in vs:
        nv = np.linalg.norm(v)
        if nv == 0:
            raise ValueError("zero vector in the system")
        c = float(v @ e) / nv
        if c < 0:
            raise ValueError("vector makes an obtuse angle with e")
        angles.append(float(np.arccos(np.clip(c, -1.0, 1.0))))
    total = np.sum(vs, axis=0)
    nt = np.linalg.norm(total)
    if nt == 0:
        raise ValueError("vector system sums to zero")
    alpha = float(np.arccos(np.clip(float(total @ e) / nt, -1.0, 1.0)))
    return alpha, max(angles)


# ---------------------------------------------------------------------------
# Whole-tube report


@dataclass
class SliceRecord:
    """One slice level; the fields are the keys of the JSON report."""

    level: float
    components: int
    length: float
    gauss_diameter: float
    two_alpha: float
    gauss_length: float
    diameter_margin: float      # d - 2*alpha, min over components
    curvature_margin: float     # gauss length - 4*alpha, min over components
    flow_vector: tuple          # last: the CSV spreads it over Jx, Jy, Jz


@dataclass
class TubeReport:
    """Measured invariants and inequality margins of one discrete tube; the
    fields are the keys of the JSON report."""

    flow_vector: tuple
    flow_norm: float
    alpha: float
    flow_level_deviation: float
    total_curvature: float
    clamped_positive_defect: float
    slices: list
    capacity: CapacityCheck | None
    lifetime_bound: LifetimeBound
    slab_height: float
    tolerances: dict = field(default_factory=dict)

    def min_diameter_margin(self) -> float:
        return min(s.diameter_margin for s in self.slices)

    def min_curvature_margin(self) -> float:
        return min(s.curvature_margin for s in self.slices)

    def to_json(self) -> str:
        doc = asdict(self)
        doc.update(schema=SCHEMA_VERSION, angle_unit="radians",
                   lifetime_bound=self.lifetime_bound.to_json_value(),
                   lifetime_flat_contradiction=self.lifetime_bound.flat_contradiction)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def slices_csv(self) -> str:
        cols = [f.name for f in fields(SliceRecord)][:-1] + ["Jx", "Jy", "Jz"]
        lines = [",".join(cols)]
        for s in self.slices:
            row = [getattr(s, c) for c in cols[:-3]] + list(s.flow_vector)
            lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                                  for x in row))
        return "\n".join(lines) + "\n"


def analyze_tube(mesh: TriMesh, levels=None, n_levels: int = 10,
                 compute_capacity: bool = True,
                 tolerances: dict | None = None) -> TubeReport:
    """Slice the tube, measure its flow vector and curvature, and evaluate
    every inequality margin."""
    zmin, zmax = mesh.x3_range()
    if levels is None:
        pad = 0.05 * (zmax - zmin)
        levels = list(np.linspace(zmin + pad, zmax - pad, n_levels))
    if not len(levels):
        raise ValueError("need at least one slice level")
    normals = vertex_normals(mesh)

    slice_records = []
    js = []
    for t in levels:
        cycles = slice_mesh(mesh, t, normals)
        cycle_js = [flow_vector(c) for c in cycles]
        alphas = [flow_angle(j) for j in cycle_js]
        diameters = [gauss_image_diameter(c.normals) for c in cycles]
        # (Gauss image length, alpha) of each closed component
        closed = [(gauss_image_length(c), a) for c, a in zip(cycles, alphas) if c.closed]
        J_level = np.sum(cycle_js, axis=0)
        js.append(J_level)
        slice_records.append(SliceRecord(
            level=float(cycles[0].level),
            components=len(cycles),
            length=float(sum(c.length() for c in cycles)),
            gauss_diameter=max(diameters),
            two_alpha=2.0 * flow_angle(J_level),
            gauss_length=float(sum(gl for gl, _ in closed)) if closed else float("nan"),
            diameter_margin=min(d - 2.0 * a for d, a in zip(diameters, alphas)),
            curvature_margin=(min(gl - 4.0 * a for gl, a in closed)
                              if closed else float("nan")),
            flow_vector=tuple(float(x) for x in J_level),
        ))

    J = np.mean(js, axis=0)
    G, clamped = total_curvature(mesh)
    capacity = None
    if compute_capacity and len(mesh.boundary_loops()) == 2:
        capacity = verify_capacity_law(mesh, zmin, zmax, normals)
    return TubeReport(
        flow_vector=tuple(float(x) for x in J),
        flow_norm=float(np.linalg.norm(J)),
        alpha=flow_angle(J),
        # max ||J_i - J_j|| over pairs of levels
        flow_level_deviation=max((float(np.linalg.norm(a - b))
                                  for i, a in enumerate(js) for b in js[i + 1:]),
                                 default=0.0),
        total_curvature=G,
        clamped_positive_defect=clamped,
        slices=slice_records,
        capacity=capacity,
        lifetime_bound=lifetime_bound(J, G),
        slab_height=zmax - zmin,
        tolerances=tolerances or {},
    )
