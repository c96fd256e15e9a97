"""Discrete minimal annuli spanning two horizontal circles.

The area functional is minimized with the boundary held fixed in two phases.
Phase 1 iterates implicit steps of the cotangent-Laplacian mean-curvature
direction: interior vertices are re-solved harmonically in the current
metric, with backtracking toward the previous positions whenever a full step
fails to decrease area.  This contracts fast from the ruled initial surface
but stalls once the remaining area gradient points along near-flat
(tangential sliding) directions.  Phase 2 finishes with damped Newton steps
on the exact second derivative of total triangle area, with the damping
parameter adapted by the realized-vs-predicted gradient decrease, which
resolves the flat directions the fixed-point iteration cannot.  The common
fixed point is a discrete minimal surface: zero cotangent mean-curvature
vector at every interior vertex.

Linear algebra: phase 1 solves the interior cotangent-Laplacian system with
`scipy.sparse.linalg.spsolve`.  Phase 2 builds the sparsity pattern of the
interior Hessian H_ii once per solve, since the triangles and the pinned
vertices never change.  Each iteration computes the per-triangle 3x3
Hessian blocks, sums them into the fixed CSC pattern with one `bincount`,
adds the damping mu on the diagonal slots, and factors H_ii + mu I with
SuperLU in symmetric mode (minimum-degree ordering on A^T + A, diagonal
pivots).  An exactly singular factor is handled like a non-finite step:
mu grows and the step is retried.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import MeshError, TriMesh, cot_laplacian, slice_mesh
from .surfaces import _revolution_mesh


class NoAnnulusError(RuntimeError):
    """No embedded annulus spans the boundary circles (neck pinch detected)."""


class ConvergenceError(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Circle:
    center: tuple  # (x, y, z); the circle lies in the plane x3 = z
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")
        if len(self.center) != 3:
            raise ValueError("center must be a 3-vector")


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 500
    tolerance: float = 1e-6       # normalized residual: max |H| * mean edge
    pinch_ratio: float = 0.02     # mid-slice length below this fraction of
                                  # the smaller boundary circumference aborts
    min_quality: float = 1e-4     # min triangle area / mean triangle area
    check_every: int = 5
    stall_window: int = 10        # harmonic phase hands over to Newton once
    stall_factor: float = 0.8     # res[-1] > stall_factor * res[-window]


@dataclass(frozen=True)
class AnnulusProblem:
    circle0: Circle
    circle1: Circle
    nu: int = 64
    nv: int = 32
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        t1, t2 = self.circle0.center[2], self.circle1.center[2]
        if not t1 < t2:
            raise ValueError("circle0 must lie strictly below circle1")
        if self.nu < 8 or self.nv < 2:
            raise ValueError("resolution too coarse: need nu >= 8, nv >= 2")

    @property
    def offset(self) -> float:
        c0, c1 = np.asarray(self.circle0.center), np.asarray(self.circle1.center)
        return float(np.linalg.norm((c1 - c0)[:2]))


@dataclass
class ConvergenceReport:
    iterations: int
    converged: bool
    area_history: list
    residual_history: list
    message: str = ""

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "final_area": self.area_history[-1] if self.area_history else None,
            "final_residual": (self.residual_history[-1]
                               if self.residual_history else None),
            "area_history": self.area_history,
            "residual_history": self.residual_history,
            "message": self.message,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def initial_annulus(problem: AnnulusProblem) -> TriMesh:
    """Ruled surface between the two circles, triangulated nu x nv."""
    c0 = np.asarray(problem.circle0.center, dtype=float)
    c1 = np.asarray(problem.circle1.center, dtype=float)
    s = np.linspace(0.0, 1.0, problem.nv + 1)
    radii = (1 - s) * problem.circle0.radius + s * problem.circle1.radius
    heights = (1 - s) * c0[2] + s * c1[2]
    centers = (1 - s)[:, None] * c0[None, :2] + s[:, None] * c1[None, :2]
    return _revolution_mesh(radii, heights, problem.nu, centers=centers)


def mean_curvature_residual(mesh: TriMesh, interior: np.ndarray):
    """Area gradient at the interior vertices and the solver's stopping
    measure.

    Returns (grad, res, L): grad = (L @ V)[interior] with the cotangent
    Laplacian L, and res = max |H| * mean edge length, where |H| is the
    gradient norm over the barycentric vertex area.
    """
    L, mass = cot_laplacian(mesh)
    grad = (L @ mesh.vertices)[interior]
    h = np.linalg.norm(grad, axis=1) / mass[interior]
    return grad, float(h.max()) * mesh.mean_edge_length(), L


def _cross_matrices(v: np.ndarray) -> np.ndarray:
    """(..., 3) vectors -> (..., 3, 3) cross-product matrices [v]x."""
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def _area_hessian(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Exact second derivative of total triangle area, as per-triangle
    blocks: out[m, i, j] is the 3x3 block coupling corner i to corner j of
    triangle m.  `_HessianPattern` sums them into a sparse matrix.

    Per triangle with corners p0,p1,p2, normal n and unit normal nh, the
    area gradient at corner i is 0.5 (p_{i+1}-p_{i+2}) x nh; differentiating
    gives the blocks  -0.5 [e_i]x (I - nh nh^T) [e_j]x / |n|  plus the
    +-0.5 [nh]x terms from the cyclic edge dependence on p_j.
    """
    p = verts[tris]                                   # (M, 3 corners, 3)
    e = np.roll(p, -1, axis=1) - np.roll(p, -2, axis=1)
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    nn = np.linalg.norm(n, axis=1)
    nh = n / nn[:, None]
    proj = np.eye(3) - nh[:, :, None] * nh[:, None, :]
    ex = _cross_matrices(e)                           # (M, 3, 3, 3)
    left = ex @ proj[:, None]
    blocks = left[:, :, None] @ ex[:, None, :]        # (M, 3, 3, 3, 3)
    blocks *= (-0.5 / nn)[:, None, None, None, None]
    half_nx = 0.5 * _cross_matrices(nh)
    for i in range(3):
        blocks[:, i, (i + 1) % 3] -= half_nx
        blocks[:, i, (i + 2) % 3] += half_nx
    return blocks


class _HessianPattern:
    """Fixed CSC sparsity pattern of the area Hessian restricted to the
    coordinates of the vertices in `dof_mask` (3 per vertex, in vertex
    order), built once per triangulation.

    Vertex pairs sharing a triangle are sorted column-major once; each pair
    owns a dense 3x3 block of slots, so every column lists its rows in
    increasing order.  `slots` maps each entry of the `_area_hessian`
    blocks to its slot, with entries touching other vertices sent to a
    spill slot past the end.
    """

    def __init__(self, tris: np.ndarray, dof_mask: np.ndarray):
        n_verts = int(dof_mask.sum())
        vmap = np.full(len(dof_mask), -1, dtype=np.int32)
        vmap[dof_mask] = np.arange(n_verts, dtype=np.int32)
        row = vmap[tris][:, :, None]                  # corner i of block (i, j)
        col = vmap[tris][:, None, :]                  # corner j
        valid = (row >= 0) & (col >= 0)
        key = (col.astype(np.int64) * n_verts + row)[valid]
        pairs, pair_of = np.unique(key, return_inverse=True)
        pcol, prow = np.divmod(pairs, n_verts)
        vptr = np.zeros(n_verts + 1, dtype=np.int64)
        np.cumsum(np.bincount(pcol, minlength=n_verts), out=vptr[1:])
        deg = np.diff(vptr)
        rank = np.arange(len(pairs)) - vptr[pcol]
        a = np.arange(3)
        # Column 3j+b starts at 9 vptr[j] + 3 b deg[j]; the rows of pair
        # (i, j) sit at 3 rank + a within it.
        self.indptr = np.append(9 * vptr[:-1, None] + 3 * deg[:, None] * a,
                                9 * vptr[-1]).astype(np.int32)
        pair_slots = ((9 * vptr[pcol] + 3 * rank)[:, None, None] + a[:, None]
                      + 3 * deg[pcol][:, None, None] * a).astype(np.int32)
        self.nnz = 9 * len(pairs)
        self.indices = np.empty(self.nnz, dtype=np.int32)
        self.indices[pair_slots] = (3 * prow)[:, None, None] + a[:, None]
        diag_pairs = np.flatnonzero(prow == pcol)
        self.diag = pair_slots[diag_pairs][:, a, a].ravel()
        entry_pair = np.full(valid.shape, len(pairs), dtype=np.int64)
        entry_pair[valid] = pair_of
        spill = np.full((1, 3, 3), self.nnz, dtype=np.int32)
        self.slots = np.concatenate([pair_slots, spill])[entry_pair].ravel()
        self.shape = (3 * n_verts, 3 * n_verts)

    def values(self, blocks: np.ndarray) -> np.ndarray:
        """CSC data array of the summed blocks."""
        return np.bincount(self.slots, weights=blocks.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]

    def shifted(self, values: np.ndarray, mu: float) -> sp.csc_matrix:
        """The matrix with `values`, plus mu on the diagonal."""
        data = values.copy()
        data[self.diag] += mu
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


def minimize_area(mesh: TriMesh, options: SolverOptions | None = None):
    """Relax interior vertices to a discrete minimal surface.

    Returns (minimized TriMesh, ConvergenceReport).  Boundary vertices are
    bit-identical to their input positions.  Area never increases across an
    accepted harmonic-replacement step; Newton-phase steps move within
    rounding error of the minimal area while driving the gradient to zero.
    """
    opts = options or SolverOptions()
    fixed = mesh.boundary_vertex_mask()
    if not fixed.any():
        raise MeshError("mesh has no boundary to pin")
    if len(mesh.boundary_loops()) != 2:
        raise MeshError(
            f"expected an annulus with 2 boundary loops, found {len(mesh.boundary_loops())}")
    interior = ~fixed
    verts = mesh.vertices.copy()
    cur = TriMesh(verts, mesh.triangles)

    zmin, zmax = cur.x3_range()
    mid_level = 0.5 * (zmin + zmax)
    loop_circ = []
    for lp in mesh.boundary_loops():
        p = mesh.vertices[lp]
        loop_circ.append(float(np.linalg.norm(np.roll(p, -1, 0) - p, axis=1).sum()))
    pinch_len = opts.pinch_ratio * min(loop_circ)

    areas = [cur.area()]
    residuals = []
    converged = False
    message = ""

    def safety_checks(m, it):
        # Pinch first: a collapsing neck also degenerates triangles, and the
        # topological diagnosis is the one worth reporting.
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                mid = slice_mesh(m, mid_level)
        except Exception:
            raise NoAnnulusError(
                "no annulus: the surface tore at the mid level") from None
        if sum(c.length() for c in mid) < pinch_len:
            raise NoAnnulusError(
                "no annulus: neck pinched below "
                f"{opts.pinch_ratio:.0%} of the boundary circumference")
        tri_areas = m.triangle_areas()
        if tri_areas.min() < opts.min_quality * tri_areas.mean():
            raise ConvergenceError(
                f"mesh degenerated (min/mean triangle area "
                f"{tri_areas.min() / tri_areas.mean():.2e})",
                ConvergenceReport(it, False, areas, residuals))

    # Phase 1: implicit mean-curvature (harmonic replacement) iteration.
    it = 0
    for it in range(1, opts.max_iterations + 1):
        _, res, L = mean_curvature_residual(cur, interior)
        residuals.append(res)
        if res <= opts.tolerance:
            converged = True
            break
        if (len(residuals) > opts.stall_window
                and res > opts.stall_factor * residuals[-1 - opts.stall_window]):
            break  # contraction has flattened out; Newton phase takes over
        A = L[interior][:, interior].tocsc()
        rhs = -L[interior][:, fixed] @ cur.vertices[fixed]
        new_int = spla.spsolve(A, rhs)
        if not np.all(np.isfinite(new_int)):
            raise ConvergenceError(
                "linear solve produced non-finite positions",
                ConvergenceReport(it, False, areas, residuals))
        step = 1.0
        accepted = False
        old_int = cur.vertices[interior]
        while step >= 1e-6:
            trial = cur.vertices.copy()
            trial[interior] = (1 - step) * old_int + step * new_int
            cand = TriMesh(trial, cur.triangles)
            if cand.area() <= areas[-1] * (1 + 1e-12):
                cur = cand
                areas.append(cand.area())
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # area cannot decrease further; polish the gradient instead
        if it % opts.check_every == 0:
            safety_checks(cur, it)

    # Phase 2: damped Newton on the exact area Hessian.  The damping mu is
    # adapted by the realized/predicted gradient decrease (for the damped
    # system the predicted remaining gradient is exactly -mu * step).
    if not converged:
        tris = cur.triangles
        pattern = _HessianPattern(tris, interior)
        grad, res, _ = mean_curvature_residual(cur, interior)
        gnorm = np.linalg.norm(grad)
        mu = 1e-6 * max(gnorm, 1e-30)
        escalate = 2.0
        while it < opts.max_iterations:
            if res <= opts.tolerance:
                converged = True
                break
            it += 1
            hess = pattern.values(_area_hessian(cur.vertices, tris))
            accepted = False
            for _ in range(25):
                try:
                    lu = spla.splu(pattern.shifted(hess, mu),
                                   permc_spec="MMD_AT_PLUS_A",
                                   diag_pivot_thresh=0.0,
                                   options={"SymmetricMode": True})
                except RuntimeError:  # factor is exactly singular
                    step = None
                else:
                    step = lu.solve(-grad.ravel())
                if step is None or not np.all(np.isfinite(step)):
                    mu *= escalate
                    escalate *= 2.0
                    continue
                trial = cur.vertices.copy()
                trial[interior] += step.reshape(-1, 3)
                cand = TriMesh(trial, tris)
                grad2, res2, _ = mean_curvature_residual(cand, interior)
                gnorm2 = np.linalg.norm(grad2)
                if gnorm2 < gnorm:
                    predicted = mu * np.linalg.norm(step)
                    gain = (gnorm - gnorm2) / max(gnorm - predicted, 1e-300)
                    cur, grad, res, gnorm = cand, grad2, res2, gnorm2
                    mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(gain, 1.0) - 1.0) ** 3)
                    escalate = 2.0
                    accepted = True
                    break
                mu *= escalate
                escalate *= 2.0
            residuals.append(res)
            areas.append(cur.area())
            if not accepted:
                message = "damped Newton step rejected at maximal damping"
                break
            if it % opts.check_every == 0:
                safety_checks(cur, it)
        else:
            it = opts.max_iterations

    if converged:
        safety_checks(cur, it)
    report = ConvergenceReport(it, converged, areas, residuals, message)
    if not converged:
        raise ConvergenceError(
            message or f"not converged after {it} iterations "
            f"(residual {residuals[-1]:.3e} > {opts.tolerance:.1e})",
            report)
    # Boundary rows were never written; assert the contract cheaply.
    assert np.array_equal(cur.vertices[fixed], mesh.vertices[fixed])
    return cur, report


def solve_annulus(problem: AnnulusProblem):
    """Build the ruled initial annulus and minimize its area."""
    return minimize_area(initial_annulus(problem), problem.options)
