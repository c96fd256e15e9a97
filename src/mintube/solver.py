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

Linear algebra: each accepted iterate computes the per-triangle cotangent
stiffness S_ij = e_i.e_j / 2|n| once (e_i the edge opposite corner i, n the
normal); the residual, L and H all come from it.  The block of H coupling
corners i and j is S_ij nh nh^T + k_ij [nh]x, with nh the unit normal and
k_ii = 0, k_{i,i+1} = -1/2, k_{i,i+2} = +1/2.  Each iteration sums these
blocks, and S onto their diagonals for kron(L, I3), into a CSC pattern built
once per solve, and factors H + mu kron(L, I3) with `mesh.factor_symmetric`
(SuperLU, symmetric mode, diagonal pivots).  Its minimum-degree ordering
depends on the pattern only: the first accepted factorization fixes it, the
pattern is laid out in that order, and later factorizations keep the
natural order.  An exactly singular factor is handled like a rejected step:
mu grows and the step is retried.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import (MeshError, TriMesh, _vertex_sums, cot_stiffness,
                   factor_symmetric, slice_mesh)
from .surfaces import _revolution_mesh

PINCH_RATIO = 0.02    # mid-slice length below this fraction of the
                      # smaller boundary circumference aborts
MIN_QUALITY = 1e-4    # min triangle area / mean triangle area
CHECK_EVERY = 5       # iterations between pinch and degeneration checks


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
        if not 0 < self.radius < math.inf:
            raise ValueError("circle radius must be finite and positive")
        if len(self.center) != 3:
            raise ValueError("center must be a 3-vector")
        if not all(map(math.isfinite, self.center)):
            raise ValueError("circle center must be finite")


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 500
    tolerance: float = 1e-6       # normalized residual: max |H| * mean edge

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")


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

    def to_json(self) -> str:
        doc = asdict(self)
        doc.update(final_area=self.area_history[-1] if self.area_history else None,
                   final_residual=(self.residual_history[-1]
                                   if self.residual_history else None))
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def initial_annulus(problem: AnnulusProblem) -> TriMesh:
    """Ruled surface between the two circles, triangulated nu x nv."""
    c0 = np.asarray(problem.circle0.center, dtype=float)
    c1 = np.asarray(problem.circle1.center, dtype=float)
    s = np.linspace(0.0, 1.0, problem.nv + 1)
    radii = (1 - s) * problem.circle0.radius + s * problem.circle1.radius
    heights = (1 - s) * c0[2] + s * c1[2]
    centers = (1 - s)[:, None] * c0[None, :2] + s[:, None] * c1[None, :2]
    return _revolution_mesh(radii, heights, problem.nu, centers=centers)


def mean_curvature_residual(mesh: TriMesh, interior: np.ndarray, S: np.ndarray):
    """Area gradient at the interior vertices and the solver's stopping
    measure, from the cotangent stiffness S = `cot_stiffness(mesh)`.

    Returns (grad, res): grad = (L @ V)[interior] with L the cotangent
    Laplacian, and res = max |H| * mean edge length, with |H| the gradient
    norm over the barycentric vertex area."""
    grad = _vertex_sums(mesh, S @ mesh.vertices[mesh.triangles])[interior]
    mass = _vertex_sums(mesh, np.repeat(mesh.triangle_areas()[:, None] / 3.0, 3, axis=1))
    h = np.linalg.norm(grad, axis=1) / mass[interior]
    return grad, float(h.max()) * mesh.mean_edge_length()


def _area_hessian(S: np.ndarray, nh: np.ndarray) -> np.ndarray:
    """Exact second derivative of total triangle area, as per-triangle
    blocks: out[m, i, j] is the 3x3 block coupling corner i to corner j of
    triangle m.  `_HessianPattern` sums them into a sparse matrix.

    From the cotangent stiffness S and the unit normals nh, the block is
    S_ij nh nh^T + k_ij [nh]x with k_ii = 0, k_{i,i+1} = -1/2 and
    k_{i,i+2} = +1/2: along the normal the second variation of area is the
    Dirichlet energy (Pinkall & Polthier 1993), and its in-plane part
    cancels.
    """
    blocks = S[:, :, :, None, None] * (nh[:, :, None] * nh[:, None, :])[:, None, None]
    half_nx = 0.5 * np.cross(np.eye(3), nh[:, None, :])     # 0.5 [nh]x
    for i in range(3):
        blocks[:, i, (i + 1) % 3] -= half_nx
        blocks[:, i, (i + 2) % 3] += half_nx
    return blocks


class _HessianPattern:
    """Fixed CSC sparsity pattern of the area Hessian, and of kron(L, I3),
    restricted to the coordinates of the vertices in `dof_mask` (3 per
    vertex, in vertex order), built once per triangulation.

    Vertex pairs sharing a triangle are sorted column-major once; each pair
    owns a dense 3x3 block of slots, so every column lists its rows in
    increasing order.  `slots` maps each entry of the `_area_hessian`
    blocks to its slot, and `diag_slots` the (i, j, a, a) entries, which
    carry kron(L, I3); entries touching other vertices go to a spill slot
    past the end.  Coordinate k sits at position `perm[k]` of the matrix.
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
        slots = np.concatenate([pair_slots, spill])[entry_pair]
        self.slots = slots.ravel()
        self.diag_slots = slots[..., a, a].ravel()
        self.shape = (3 * n_verts, 3 * n_verts)
        self.perm = self.order = np.arange(3 * n_verts)
        self.ordered = False

    def reorder(self, perm: np.ndarray) -> None:
        """Move coordinate k to position perm[k] of the matrix, keeping every
        column's rows sorted: the fill-reducing order of a first
        factorization, in which later ones run in their natural order."""
        perm = np.array(perm)       # SuperLU's perm_c keeps its factors alive
        order, counts = np.argsort(perm), np.diff(self.indptr)
        col, row = perm[np.repeat(np.arange(len(perm)), counts)], perm[self.indices]
        moved = np.argsort(col.astype(np.int64) * len(perm) + row)  # new -> old slot
        where = np.append(np.argsort(moved), self.nnz).astype(np.int32)
        self.slots, self.diag_slots = where[self.slots], where[self.diag_slots]
        self.indices = row[moved]
        self.indptr = np.append(0, np.cumsum(counts[order])).astype(np.int32)
        self.perm, self.order, self.ordered = perm, order, True

    def values(self, blocks: np.ndarray) -> np.ndarray:
        """CSC data array of the summed blocks."""
        return np.bincount(self.slots, weights=blocks.ravel(),
                           minlength=self.nnz + 1)[:self.nnz]

    def stiffness_values(self, S: np.ndarray) -> np.ndarray:
        """CSC data array of kron(L, I3), with L summed from the
        per-triangle stiffness S."""
        return np.bincount(self.diag_slots, weights=np.repeat(S.ravel(), 3),
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

    mid_level = 0.5 * sum(cur.x3_range())
    rims = [mesh.vertices[np.append(lp, lp[0])] for lp in mesh.boundary_loops()]
    pinch_len = PINCH_RATIO * min(
        float(np.linalg.norm(np.diff(p, axis=0), axis=1).sum()) for p in rims)

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
                f"{PINCH_RATIO:.0%} of the boundary circumference")
        tri_areas = m.triangle_areas()
        if tri_areas.min() < MIN_QUALITY * tri_areas.mean():
            raise ConvergenceError(
                f"mesh degenerated (min/mean triangle area "
                f"{tri_areas.min() / tri_areas.mean():.2e})",
                ConvergenceReport(it, False, areas, residuals))

    pattern = _HessianPattern(tris, interior)
    mu = 1.0
    it = 0
    S = cot_stiffness(cur)
    grad, res = mean_curvature_residual(cur, interior, S)
    residuals.append(res)
    while res > opts.tolerance and it < opts.max_iterations:
        it += 1
        g = grad.ravel()[pattern.order]               # in matrix order
        hess = pattern.values(_area_hessian(S, cur.triangle_normals()))
        lap = pattern.stiffness_values(S)
        for _ in range(25):
            lu = None             # free the last factorization before the next
            try:
                lu = factor_symmetric(pattern.matrix(hess + mu * lap),
                                      ordered=pattern.ordered)
            except RuntimeError:  # factor is exactly singular
                mu *= 4.0
                continue
            step = lu.solve(-g)
            if np.all(np.isfinite(step)):
                trial = cur.vertices.copy()
                trial[interior] += step[pattern.perm].reshape(-1, 3)
                cand = TriMesh(trial, tris)
                cand_area = cand.area()
                predicted = -(g @ step + 0.5 * step @ (pattern.matrix(hess) @ step))
                actual = areas[-1] - cand_area
                if predicted > 0 and actual >= 0.1 * predicted:
                    if actual > 0.75 * predicted:
                        mu /= 3.0
                    break
            mu *= 4.0
        else:
            message = "no area-decreasing step at maximal damping"
            break
        if not pattern.ordered:
            pattern.reorder(lu.perm_c)
        cur = cand
        areas.append(cand_area)
        S = cot_stiffness(cur)
        grad, res = mean_curvature_residual(cur, interior, S)
        residuals.append(res)
        if it % CHECK_EVERY == 0:
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
