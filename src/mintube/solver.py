"""Discrete minimal annuli spanning two horizontal circles.

The area functional is minimized with the boundary held fixed by
Levenberg-Marquardt iterations in the cotangent-Laplacian metric.  Each
iteration solves

    (H + mu kron(L, I3)) s = -g

for the interior vertex positions, with H the exact second derivative of
total triangle area, L the cotangent Laplacian of the current surface and
g = L V the area gradient.  For large mu the step is a damped
harmonic-replacement step (Pinkall & Polthier 1993), which contracts fast
from a rough start; as mu -> 0 it is the Newton step, which resolves the
near-flat tangential directions the fixed-point iteration cannot.  A step is
accepted when the realized area decrease is at least a tenth of the
decrease the quadratic model g.s + s.H s / 2 predicts (Nocedal & Wright,
Numerical Optimization, ch. 4), so every accepted step lowers the area; mu
shrinks after a step the model predicted well and grows after a rejected
one.  The fixed point is a discrete minimal surface: zero cotangent
mean-curvature vector at every interior vertex.  The residual only decides
when to stop.

`solve_annulus` runs this in two stages.  Shiffman (1956) proved that a
minimal annulus between two circles in parallel planes meets every plane in
between in a circle, so it is a stack of circles (by Riemann (1867), a
piece of a catenoid or of one of Riemann's examples).  The stack stage
minimizes area over the stacks on the ring grid of `initial_annulus`:
interior ring j is c_j + r_j (cos u_i, sin u_i, 0) at its fixed height,
3 (nv - 1) unknowns in all, and the ruled start is one such stack.  With B
the linear map from those unknowns to the vertex coordinates, each step
solves the dense system

    B^T (H + mu kron(L, I3)) B t = -B^T g

with no sparse factorization, and the pinch test watches its iterates, so a
neck that collapses is found cheaply.  The full stage then moves every
interior vertex from the stack minimizer, starting from the damping of the
last accepted stack step; what is left to it is the tangential sliding of
the vertices and the departure of the discrete minimizer from exact
circles.  By rotational symmetry a coaxial stack minimizer is a critical
point of the full problem, up to the asymmetry of the alternating
diagonals, and it meets the tolerance with no full iteration.  Once the
stack stage has converged without a pinch an annulus exists, so a tear or
pinch in the full stage is reported as degeneration.  Both stages run in
`minimize_area`, which recognizes a stack of circles on that grid in its
input; any other mesh gets the full stage alone.

Linear algebra: each accepted iterate computes the per-triangle cotangent
stiffness S_ij = e_i.e_j / 2|n| once (e_i the edge opposite corner i, n the
normal); the residual, L and H all come from it.  The block of H coupling
corners i and j is S_ij nh nh^T + k_ij [nh]x, with nh the unit normal and
k_ii = 0, k_{i,i+1} = -1/2, k_{i,i+2} = +1/2.  Each iteration sums these
blocks, and S onto their diagonals for kron(L, I3), into a CSC pattern built
once per solve.  The stack stage multiplies it by B on both sides; the full
stage factors H + mu kron(L, I3) with `mesh.factor_symmetric` (SuperLU,
symmetric mode, diagonal pivots).  Its minimum-degree ordering depends on
the pattern only: the first accepted factorization fixes it, the pattern is
laid out in that order, and later factorizations keep the natural order.
An exactly singular system is handled like a rejected step: mu grows and
the step is retried.
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
STACK_TOL_RATIO = 0.01  # the stack stage stops at this fraction of the
                        # tolerance: its steps are cheap, and a closer stack
                        # minimizer leaves the full stage less to do


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
    max_iterations: int = 500     # in each stage of `minimize_area`
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


@dataclass
class ConvergenceReport:
    stack_iterations: int         # iterations over stacks of circles
    iterations: int               # iterations over every interior vertex
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


def _vertex_areas(mesh: TriMesh) -> np.ndarray:
    """Barycentric vertex areas: a third of each incident triangle's."""
    return _vertex_sums(mesh, np.repeat(mesh.triangle_areas()[:, None] / 3.0, 3, axis=1))


def mean_curvature_residual(mesh: TriMesh, interior: np.ndarray, S: np.ndarray):
    """Area gradient at the interior vertices and the solver's stopping
    measure, from the cotangent stiffness S = `cot_stiffness(mesh)`.

    Returns (grad, res): grad = (L @ V)[interior] with L the cotangent
    Laplacian, and res = max |H| * mean edge length, with |H| the gradient
    norm over the barycentric vertex area."""
    grad = _vertex_sums(mesh, S @ mesh.vertices[mesh.triangles])[interior]
    h = np.linalg.norm(grad, axis=1) / _vertex_areas(mesh)[interior]
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


class _Descent:
    """Levenberg-Marquardt descent on the area of a mesh whose boundary is
    pinned: the current surface with its stiffness, gradient and residual,
    the damping, the histories and the safety checks.  The stack stage and
    the full stage both step through `_iterate`, so they share one
    acceptance and damping rule, and the full stage starts from the damping
    the stack stage last accepted."""

    def __init__(self, mesh: TriMesh, options: SolverOptions):
        fixed = mesh.boundary_vertex_mask()
        if not fixed.any():
            raise MeshError("mesh has no boundary to pin")
        loops = mesh.boundary_loops()
        if len(loops) != 2:
            raise MeshError(
                f"expected an annulus with 2 boundary loops, found {len(loops)}")
        self.opts, self.start, self.interior = options, mesh, ~fixed
        self.cur = TriMesh(mesh.vertices.copy(), mesh.triangles)
        self.mid_level = 0.5 * sum(self.cur.x3_range())
        rims = [mesh.vertices[np.append(lp, lp[0])] for lp in loops]
        self.pinch_len = PINCH_RATIO * min(
            float(np.linalg.norm(np.diff(p, axis=0), axis=1).sum()) for p in rims)
        self.pattern = _HessianPattern(mesh.triangles, self.interior)
        self.lu = None
        self.mu = 1.0
        self.stack_iterations = self.iterations = 0
        self.annulus_found = False    # a stack stage converged without a pinch
        self.message = ""
        self.areas = [self.cur.area()]
        self.residuals = []
        self._measure()

    def _measure(self) -> None:
        self.S = cot_stiffness(self.cur)
        self.grad, self.res = mean_curvature_residual(self.cur, self.interior, self.S)
        self.residuals.append(self.res)

    def report(self, converged: bool = False) -> ConvergenceReport:
        return ConvergenceReport(self.stack_iterations, self.iterations, converged,
                                 self.areas, self.residuals, self.message)

    def _iterate(self, system) -> bool:
        """One iteration.  `system(hess, lap, g)` returns `solve(mu)`, a step
        for H + mu kron(L, I3) in matrix order.  The damping grows until a
        step lowers the area by at least a tenth of the model's prediction;
        if none does at maximal damping, return False with the damping of
        the last accepted step."""
        pattern, cur = self.pattern, self.cur
        g = self.grad.ravel()[pattern.order]          # in matrix order
        hess = pattern.values(_area_hessian(self.S, cur.triangle_normals()))
        solve = system(hess, pattern.stiffness_values(self.S), g)
        mu = self.mu
        for _ in range(25):
            try:
                step = solve(mu)
            except (RuntimeError, np.linalg.LinAlgError):  # exactly singular
                mu *= 4.0
                continue
            if np.all(np.isfinite(step)):
                trial = cur.vertices.copy()
                trial[self.interior] += step[pattern.perm].reshape(-1, 3)
                cand = TriMesh(trial, cur.triangles)
                cand_area = cand.area()
                predicted = -(g @ step + 0.5 * step @ (pattern.matrix(hess) @ step))
                actual = self.areas[-1] - cand_area
                if predicted > 0 and actual >= 0.1 * predicted:
                    self.mu = mu / 3.0 if actual > 0.75 * predicted else mu
                    self.cur = cand
                    self.areas.append(cand_area)
                    self._measure()
                    return True
            mu *= 4.0
        return False

    def _factored_system(self, hess, lap, g):
        def solve(mu):
            self.lu = None        # free the last factorization before the next
            self.lu = factor_symmetric(self.pattern.matrix(hess + mu * lap),
                                       ordered=self.pattern.ordered)
            return self.lu.solve(-g)
        return solve

    def _safety_checks(self) -> None:
        # Pinch first: a collapsing neck also degenerates triangles, and the
        # topological diagnosis is the one worth reporting.  Once a stack
        # stage has found an annulus, a tear or pinch is the solver's
        # failure, not the verdict that no annulus exists.
        def lost(what):
            if self.annulus_found:
                return ConvergenceError(f"mesh degenerated: {what}", self.report())
            return NoAnnulusError(f"no annulus: {what}")

        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                mid = slice_mesh(self.cur, self.mid_level)
        except Exception:
            raise lost("the surface tore at the mid level") from None
        if sum(c.length() for c in mid) < self.pinch_len:
            raise lost(f"neck pinched below {PINCH_RATIO:.0%} of the boundary "
                       "circumference")
        tri_areas = self.cur.triangle_areas()
        if tri_areas.min() < MIN_QUALITY * tri_areas.mean():
            raise ConvergenceError(
                f"mesh degenerated (min/mean triangle area "
                f"{tri_areas.min() / tri_areas.mean():.2e})", self.report())

    def _stack_residual(self, basis) -> float:
        """Largest ring-averaged mean curvature: the norm of ring j's block
        of B^T g over the vertex area of ring j, times the mean edge
        length.  It is zero exactly where the stack is stationary."""
        ring_g = (basis.T @ self.grad.ravel()).reshape(-1, 3)
        ring_area = _vertex_areas(self.cur)[self.interior].reshape(len(ring_g), -1)
        h = np.linalg.norm(ring_g, axis=1) / ring_area.sum(axis=1)
        return float(h.max()) * self.cur.mean_edge_length()

    def stack_stage(self, basis) -> None:
        """Minimize area over the stacks of circles `basis` spans, B from
        `_stack_basis`, with the step B t from the dense reduced system
        B^T (H + mu kron(L, I3)) B t = -B^T g.  Runs before any
        factorization, so the pattern is in natural order."""
        def system(hess, lap, g):
            Hr, Lr = ((basis.T @ (self.pattern.matrix(v) @ basis)).toarray()
                      for v in (hess, lap))
            gr = basis.T @ g
            return lambda mu: basis @ np.linalg.solve(Hr + mu * Lr, -gr)

        tol = self.opts.tolerance

        def stationary():
            return (self.res <= tol
                    or self._stack_residual(basis) <= STACK_TOL_RATIO * tol)

        while not stationary() and self.stack_iterations < self.opts.max_iterations:
            self.stack_iterations += 1
            if not self._iterate(system):
                break
            if self.stack_iterations % CHECK_EVERY == 0:
                self._safety_checks()
        self._safety_checks()
        self.annulus_found = stationary()

    def full_stage(self):
        """Minimize over every interior vertex; return (mesh, report) or raise
        ConvergenceError."""
        opts = self.opts
        while self.res > opts.tolerance and self.iterations < opts.max_iterations:
            self.iterations += 1
            if not self._iterate(self._factored_system):
                self.message = "no area-decreasing step at maximal damping"
                break
            if not self.pattern.ordered:
                self.pattern.reorder(self.lu.perm_c)
            if self.iterations % CHECK_EVERY == 0:
                self._safety_checks()
        self.lu = None
        self._safety_checks()
        converged = self.res <= opts.tolerance
        report = self.report(converged)
        if not converged:
            raise ConvergenceError(
                self.message or f"not converged after {self.iterations} iterations "
                f"(residual {self.res:.3e} > {opts.tolerance:.1e})",
                report)
        # Boundary rows were never written; assert the contract cheaply.
        fixed = ~self.interior
        assert np.array_equal(self.cur.vertices[fixed], self.start.vertices[fixed])
        return self.cur, report


def _stack_basis(mesh: TriMesh) -> sp.csr_matrix | None:
    """The linear map B from ring parameters to the interior vertex
    coordinates, when `mesh` is a stack of horizontal circles on the ring
    grid of `_revolution_mesh` (as `initial_annulus` builds it): vertex i
    of ring j at j * nu + i, and interior ring j (0 < j < nv) equal to
    c_j + r_j (cos u_i, sin u_i, 0) at a fixed height.  The unknowns
    (c_j, r_j) sit in columns 3(j-1) .. 3(j-1)+2.  None for any other mesh.
    """
    nu = len(mesh.boundary_loops()[0])
    nv = mesh.n_vertices // nu - 1
    if nv < 2 or mesh.n_vertices != (nv + 1) * nu:
        return None
    grid = _revolution_mesh(np.ones(nv + 1), np.zeros(nv + 1), nu)
    if not np.array_equal(mesh.triangles, grid.triangles):
        return None
    u = np.arange(nu) * (2.0 * math.pi / nu)       # as in `_revolution_mesh`
    dirs = np.stack([np.cos(u), np.sin(u), np.zeros(nu)], axis=1)
    rings = mesh.vertices.reshape(nv + 1, nu, 3)[1:-1]
    offsets = rings - rings.mean(axis=1, keepdims=True)    # from the centers
    radii = (offsets * dirs).sum(axis=(1, 2)) / nu
    if not np.allclose(offsets, radii[:, None, None] * dirs, rtol=0.0,
                       atol=1e-12 * mesh.bbox_diagonal()):
        return None
    ring = np.zeros((nu, 3, 3))
    ring[:, :2, :2] = np.eye(2)
    ring[:, :, 2] = dirs
    return sp.kron(sp.identity(nv - 1), ring.reshape(3 * nu, 3), format="csr")


def minimize_area(mesh: TriMesh, options: SolverOptions | None = None):
    """Relax interior vertices to a discrete minimal surface.

    A stack of horizontal circles on the ring grid of `_revolution_mesh`,
    such as the ruled surface `initial_annulus` builds, is first relaxed
    over stacks of circles, then over every interior vertex.

    Returns (minimized TriMesh, ConvergenceReport).  Boundary vertices are
    bit-identical to their input positions.  Every accepted step lowers the
    area, so the area history decreases strictly.
    """
    descent = _Descent(mesh, options or SolverOptions())
    basis = _stack_basis(mesh)
    if basis is not None:
        descent.stack_stage(basis)
    return descent.full_stage()


def solve_annulus(problem: AnnulusProblem):
    """Build the ruled initial annulus and minimize its area."""
    return minimize_area(initial_annulus(problem), problem.options)
