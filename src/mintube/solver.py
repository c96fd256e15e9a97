"""Discrete minimal annuli spanning two horizontal circles.

The area functional is minimized with the boundary held fixed by one
Levenberg-Marquardt iteration in the cotangent-Laplacian metric.  Each
iteration solves

    (H + mu kron(L, I3)) s = -g

for the interior vertex positions, with H the exact second derivative of
total triangle area, L the cotangent Laplacian of the current surface and
g = L V the area gradient.  For large mu the step is a damped
harmonic-replacement step (Pinkall & Polthier 1993), which contracts fast
from the ruled initial surface; as mu -> 0 it is the Newton step, which
resolves the near-flat tangential directions the fixed-point iteration
cannot.  A step is accepted when the realized area decrease is at least a
tenth of the decrease the quadratic model g.s + s.H s / 2 predicts (Nocedal
& Wright, Numerical Optimization, ch. 4), so every accepted step lowers the
area; mu shrinks after a step the model predicted well and grows after a
rejected one.  The fixed point is a discrete minimal surface: zero
cotangent mean-curvature vector at every interior vertex.  The residual
only decides when to stop.

Linear algebra: the sparsity pattern of the interior system is built once
per solve, since the triangles and the pinned vertices never change.  Each
iteration computes the per-triangle 3x3 blocks of H and of kron(L, I3),
sums each into the fixed CSC pattern with one `bincount`, and factors
H + mu kron(L, I3) with SuperLU in symmetric mode (minimum-degree ordering
on A^T + A, diagonal pivots).  An exactly singular factor is handled like a
rejected step: mu grows and the step is retried.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import MeshError, TriMesh, cot_laplacian, cot_stiffness, slice_mesh
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

    Returns (grad, res): grad = (L @ V)[interior] with the cotangent
    Laplacian L, and res = max |H| * mean edge length, where |H| is the
    gradient norm over the barycentric vertex area.
    """
    L, mass = cot_laplacian(mesh)
    grad = (L @ mesh.vertices)[interior]
    h = np.linalg.norm(grad, axis=1) / mass[interior]
    return grad, float(h.max()) * mesh.mean_edge_length()


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


def _laplacian_blocks(mesh: TriMesh) -> np.ndarray:
    """kron(L, I3) as per-triangle blocks in the layout of `_area_hessian`:
    out[m, i, j] = S[m, i, j] I3 with S the cotangent stiffness."""
    return cot_stiffness(mesh)[..., None, None] * np.eye(3)


class _HessianPattern:
    """Fixed CSC sparsity pattern of the area Hessian, and of kron(L, I3),
    restricted to the coordinates of the vertices in `dof_mask` (3 per
    vertex, in vertex order), built once per triangulation.

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
        entry_pair = np.full(valid.shape, len(pairs), dtype=np.int64)
        entry_pair[valid] = pair_of
        spill = np.full((1, 3, 3), self.nnz, dtype=np.int32)
        self.slots = np.concatenate([pair_slots, spill])[entry_pair].ravel()
        self.shape = (3 * n_verts, 3 * n_verts)

    def values(self, blocks: np.ndarray) -> np.ndarray:
        """CSC data array of the summed blocks."""
        return np.bincount(self.slots, weights=blocks.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]

    def matrix(self, values: np.ndarray) -> sp.csc_matrix:
        """The matrix with CSC data `values`."""
        return sp.csc_matrix((values, self.indices, self.indptr),
                             shape=self.shape)


def minimize_area(mesh: TriMesh, options: SolverOptions | None = None):
    """Relax interior vertices to a discrete minimal surface.

    Returns (minimized TriMesh, ConvergenceReport).  Boundary vertices are
    bit-identical to their input positions.  Every accepted step lowers the
    area, so the area history decreases strictly.
    """
    opts = options or SolverOptions()
    fixed = mesh.boundary_vertex_mask()
    if not fixed.any():
        raise MeshError("mesh has no boundary to pin")
    if len(mesh.boundary_loops()) != 2:
        raise MeshError(
            f"expected an annulus with 2 boundary loops, found {len(mesh.boundary_loops())}")
    interior = ~fixed
    tris = mesh.triangles
    cur = TriMesh(mesh.vertices.copy(), tris)

    zmin, zmax = cur.x3_range()
    mid_level = 0.5 * (zmin + zmax)
    loop_circ = []
    for lp in mesh.boundary_loops():
        p = mesh.vertices[lp]
        loop_circ.append(float(np.linalg.norm(np.roll(p, -1, 0) - p, axis=1).sum()))
    pinch_len = opts.pinch_ratio * min(loop_circ)

    areas = [cur.area()]
    residuals = []
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

    pattern = _HessianPattern(tris, interior)
    mu = 1.0
    it = 0
    grad, res = mean_curvature_residual(cur, interior)
    residuals.append(res)
    while res > opts.tolerance and it < opts.max_iterations:
        it += 1
        g = grad.ravel()
        hess = pattern.values(_area_hessian(cur.vertices, tris))
        lap = pattern.values(_laplacian_blocks(cur))
        H = pattern.matrix(hess)
        for _ in range(25):
            try:
                lu = spla.splu(pattern.matrix(hess + mu * lap),
                               permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})
            except RuntimeError:  # factor is exactly singular
                mu *= 4.0
                continue
            step = lu.solve(-g)
            if np.all(np.isfinite(step)):
                trial = cur.vertices.copy()
                trial[interior] += step.reshape(-1, 3)
                cand = TriMesh(trial, tris)
                cand_area = cand.area()
                predicted = -(g @ step + 0.5 * step @ (H @ step))
                actual = areas[-1] - cand_area
                if predicted > 0 and actual >= 0.1 * predicted:
                    if actual > 0.75 * predicted:
                        mu /= 3.0
                    break
            mu *= 4.0
        else:
            message = "no area-decreasing step at maximal damping"
            break
        cur = cand
        areas.append(cand_area)
        grad, res = mean_curvature_residual(cur, interior)
        residuals.append(res)
        if it % opts.check_every == 0:
            safety_checks(cur, it)

    safety_checks(cur, it)
    converged = res <= opts.tolerance
    report = ConvergenceReport(it, converged, areas, residuals, message)
    if not converged:
        raise ConvergenceError(
            message or f"not converged after {it} iterations "
            f"(residual {res:.3e} > {opts.tolerance:.1e})",
            report)
    # Boundary rows were never written; assert the contract cheaply.
    assert np.array_equal(cur.vertices[fixed], mesh.vertices[fixed])
    return cur, report


def solve_annulus(problem: AnnulusProblem):
    """Build the ruled initial annulus and minimize its area."""
    return minimize_area(initial_annulus(problem), problem.options)
