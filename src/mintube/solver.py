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
one.  A predicted decrease below the rounding floor of the area sum,
AREA_ROUNDING times the area, cannot be measured: such a step is accepted,
with mu unchanged, when it lowers the residual of its stage, and ends the
stage otherwise.  The fixed point is a discrete minimal surface: zero
cotangent mean-curvature vector at every interior vertex.  Above the
rounding floor the residual only decides when to stop.

`solve_annulus` runs this in two stages.  Shiffman (1956) proved that a
minimal annulus between two circles in parallel planes meets every plane in
between in a circle, so it is a stack of circles (by Riemann (1867), a
piece of a catenoid or of one of Riemann's examples).  The stack stage
minimizes area over the stacks on the `RingGrid` of `initial_annulus`:
interior ring j is c_j + r_j (cos u_i, sin u_i, 0) at its fixed height,
3 (nv - 1) unknowns in all, and the ruled start is one such stack.  With B
the linear map from those unknowns to the vertex coordinates, each step
solves the banded system

    B^T (H + mu kron(L, I3)) B t = -B^T g

with no sparse factorization, and the pinch test watches its iterates, so a
neck that collapses is found cheaply.  The full stage then moves every
interior vertex from the stack minimizer, starting from the damping of the
last accepted stack step; what is left to it is the tangential sliding of
the vertices and the departure of the discrete minimizer from exact
circles.  By rotational symmetry a coaxial stack minimizer is a critical
point of the full problem, up to the asymmetry of the alternating
diagonals, and it meets the tolerance with no full iteration.  By
Shiffman's theorem an annulus that exists is a stack, so only the stack
stage can say that none does: a tear or a pinch at the mid level, or
collapsed triangles, while it runs is `NoAnnulusError`.  The full stage
reports each of them as the degeneration of its mesh, `ConvergenceError`.
Both stages run in `minimize_area`, which recognizes a stack of circles on
that grid in its input; any other mesh gets the full stage alone.

Linear algebra: each trial iterate makes one pass over its edge vectors,
`mesh.edge_geometry`.  The pass gives the area, the doubled triangle areas
|n|, the unit normals nh, the cotangent stiffness S_ij = e_i.e_j / 2|n|
(e_i the edge opposite corner i), the gradient with the barycentric vertex
areas, and the mean edge length.  The acceptance test, the residuals and
the safety checks read it, and L and H come from S and nh.  The block of H
coupling corners i and j is S_ij nh nh^T + k_ij [nh]x, with k_ii = 0,
k_{i,i+1} = -1/2, k_{i,i+2} = +1/2 (Pinkall & Polthier 1993), and no
stage forms it per triangle.  The stack stage sums B^T H B and
B^T kron(L, I3) B strip by strip of the ring grid (`_StackBasis`): each
strip's 6x6 block is one product of per-triangle features of S and nh
with a static table of its strip parity, and one `np.bincount` on a static
scatter sums the strips' entries into the block tridiagonal result in LAPACK
band storage, which is scipy's DIA storage of the same diagonals.  It solves
that with `scipy.linalg.solve_banded` in O(nv), and never forms a matrix of
the 3N coordinates.  The full stage sums the blocks per vertex pair,
sum_t S_ij nh nh^T + [sum_t k_ij nh]x, and S into one scalar per pair for L
(`_HessianPattern`): two sparse products with the per-triangle normals give
the blocks of a BSR matrix, and each damping adds mu L to their diagonals:
kron(L, I3) is never formed.  Every long sum that
reaches the model value or the conjugate gradients is taken in a fixed
order, `mesh.fixed_order_dot` or a sparse product, and no dense LAPACK solve
remains, so the iterates do not depend on the BLAS thread count.  The full
stage's first step solves its system from a float32 factorization of its CSC
form, `mesh.factor_float32` (SuperLU, symmetric mode, diagonal pivots, its
own minimum-degree order), about three quarters of the float64 time and half
the memory, refined twice against the float64 system by
`mesh.refine`.  Against a float64 factorization, on the full-stage iterates
of the offset-0.3 annulus, that step's error is at most 2e-3 unrefined,
1.3e-5 after one refinement and 6e-8 after two at 96x48, and 5e-3, 1e-4
and 2.3e-6 at 128x64 (the last at mu 6e-6).  The factors are kept, and every
later system, at a later iterate or another damping, is solved by
`mesh.preconditioned_cg` on them: conjugate gradients on the float64
system to a relative residual of CG_TOL, an inexact Newton step (Dembo,
Eisenstat & Steihaug 1982).  When that misses (CG_MAX_ITERATIONS reached,
a direction of non-positive curvature, a non-finite value), the old
factors are dropped and the system is factored and refined as the first
was.  Every step, inexact or not, passes the same ratio test against the
model, which uses the float64 H, and convergence is judged by the true
residual, so a loose step can cost iterations but never accept a worse
surface.  An exactly singular system is handled like a rejected step: mu
grows and the step is retried.  `mesh.harmonic_capacity` shares these
routines: on the ring grids this solver makes it runs the same conjugate
gradients with a ring-averaged preconditioner, and on any other mesh it
factors and refines its one system as the first step here is.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from .mesh import (EdgeGeometry, MeshError, RingGrid, TriMesh, edge_geometry,
                   factor_float32, fixed_order_dot, preconditioned_cg, refine,
                   slice_mesh)
from .surfaces import _revolution_mesh

TOLERANCE = 1e-6      # normalized residual: max |H| * mean edge length
MAX_ITERATIONS = 500  # in each stage of `minimize_area`
CG_TOL = 1e-2         # relative residual at which a full-stage step from
                      # conjugate gradients is taken
CG_MAX_ITERATIONS = 20  # conjugate-gradient iterations before the full
                        # stage factors the system instead
PINCH_RATIO = 0.02    # mid-slice length below this fraction of the
                      # smaller boundary circumference aborts
MIN_QUALITY = 1e-4    # min triangle area / mean triangle area
CHECK_EVERY = 5       # iterations between pinch and degeneration checks
STACK_TOL_RATIO = 0.01  # the stack stage stops at this fraction of the
                        # tolerance: its steps are cheap, and a closer stack
                        # minimizer leaves the full stage less to do
AREA_ROUNDING = 16 * np.finfo(float).eps  # rounding floor of the area sum,
                                          # relative to the area


class NoAnnulusError(RuntimeError):
    """No embedded annulus spans the boundary circles (the stack stage failed)."""


class ConvergenceError(RuntimeError):
    def __init__(self, message, report):
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
class AnnulusProblem:
    circle0: Circle
    circle1: Circle
    nu: int = 64
    nv: int = 32
    # the validated `initial_annulus`, built once; `solve_annulus` starts
    # from it, and it is no part of the problem's value
    start: TriMesh = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t1, t2 = self.circle0.center[2], self.circle1.center[2]
        if not t1 < t2:
            raise ValueError("circle0 must lie strictly below circle1")
        if self.nu < 8 or self.nv < 2:
            raise ValueError("resolution too coarse: need nu >= 8, nv >= 2")
        start = initial_annulus(self)
        try:
            start.validate()
        except MeshError as exc:
            raise ValueError(f"the ruled start is not a valid mesh: {exc}") from None
        object.__setattr__(self, "start", start)


@dataclass
class ConvergenceReport:
    stack_iterations: int = 0     # iterations over stacks of circles
    iterations: int = 0           # iterations over every interior vertex
    converged: bool = False
    area_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    factorizations: int = 0       # full-stage factorizations that succeeded
    cg_iterations: int = 0        # full-stage conjugate-gradient iterations
    message: str = ""

    def to_json(self) -> str:
        doc = asdict(self)
        doc.update(final_area=self.area_history[-1] if self.area_history else None,
                   final_residual=(self.residual_history[-1]
                                   if self.residual_history else None))
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def initial_annulus(problem: AnnulusProblem) -> TriMesh:
    """Ruled surface between the two circles, triangulated nu x nv."""
    s = np.linspace(0.0, 1.0, problem.nv + 1)[:, None]
    c0, c1 = (np.array([*c.center, c.radius], dtype=float)
              for c in (problem.circle0, problem.circle1))
    rings = (1 - s) * c0 + s * c1                  # (x, y, z, r) of each ring
    return _revolution_mesh(rings[:, 3], rings[:, 2], problem.nu, centers=rings[:, :2])


def mean_curvature_residual(geo: EdgeGeometry, interior: np.ndarray):
    """Area gradient at the interior vertices and the solver's stopping
    measure, from one `edge_geometry` pass.

    Returns (grad, res): grad = (L @ V)[interior] with L the cotangent
    Laplacian, and res = max |H| * mean edge length, with |H| the gradient
    norm over the barycentric vertex area (inf where that area is zero)."""
    grad = geo.gradient[interior]
    return grad, _curvature_residual(np.linalg.norm(grad, axis=1),
                                     geo.vertex_areas[interior], geo)


def _curvature_residual(norms: np.ndarray, areas: np.ndarray,
                        geo: EdgeGeometry) -> float:
    """max(norms / areas) times the mean edge length of `geo`; inf where an
    area is not positive, as on a collapsed triangle."""
    if not np.all(areas > 0):
        return math.inf
    return float((norms / areas).max()) * geo.mean_edge_length


class _HessianPattern:
    """Fixed sparsity pattern of the area Hessian H, and of kron(L, I3),
    restricted to the coordinates of the vertices in `dof_mask` (3 per
    vertex, in vertex order), built once per triangulation.

    Each vertex pair sharing a triangle owns a 3x3 block of a BSR matrix,
    and the pairs are sorted row-major once: `pcol` holds each pair's block
    column and `row_start` where each block row starts.  The block of a
    pair is the Pinkall-Polthier closed form summed over its triangles,

        sum_t S_ij nh nh^T + k_ij [nh]x = sum_t S_ij nh nh^T + [q]x,
        q = sum_t k_ij nh,

    with (i, j) the pair's corners in triangle t, so it is summed per pair
    with no per-triangle block: `weights`, pairs x triangles with one entry
    per corner pair whose data is gathered from S at each call, times the
    nine products nh_a nh_b, row-major, and a column of ones gives each
    pair's symmetric part and its entry of L, and the constant `skew`, with
    the entries k_ij, times nh's columns signed by CROSS gives [q]x.  Both
    sums run over a pair's triangles in triangle order, the pairs (i, j) and
    (j, i) alike, so the summed matrix is symmetric bit for bit.  Products
    run on its BSR form, `bsr`; `matrix`, the CSC form SuperLU takes, is the
    transpose of its CSR form and is made only to factor.  The matrix is in
    coordinate order; each factorization picks its own fill-reducing order.
    """

    # (component of q, sign) of each entry of [q]x, row-major
    CROSS = (np.array([0, 2, 1, 2, 0, 0, 1, 0, 0]), np.array([0, -1, 1, 1, 0, -1, -1, 1, 0]))

    def __init__(self, tris: np.ndarray, dof_mask: np.ndarray):
        n_verts = int(dof_mask.sum())
        vmap = np.full(len(dof_mask), -1, dtype=np.int32)
        vmap[dof_mask] = np.arange(n_verts, dtype=np.int32)
        row = vmap[tris][:, :, None]                  # corner i of block (i, j)
        col = vmap[tris][:, None, :]                  # corner j
        valid = (row >= 0) & (col >= 0)
        keys = (row.astype(np.int64) * n_verts + col)[valid]
        # the corner pairs (t, i, j), as 9 t + 3 i + j, by pair, then by triangle
        by_pair = np.argsort(keys, kind="stable")
        keys = keys[by_pair]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        prow, pcol = np.divmod(keys[first], n_verts)
        self.shape = (3 * n_verts, 3 * n_verts)
        self.pcol = pcol.astype(np.int32)
        self.row_start = np.searchsorted(prow, np.arange(n_verts + 1)).astype(np.int32)
        self.corners = np.flatnonzero(valid.ravel())[by_pair].astype(np.int32)
        tri = self.corners // 9
        indptr = np.append(first, len(keys)).astype(np.int32)
        shape = (len(first), len(tris))
        self.weights = sp.csr_matrix((np.zeros(len(tri)), tri, indptr), shape=shape)
        k = np.array([[0.0, -0.5, 0.5], [0.5, 0.0, -0.5], [-0.5, 0.5, 0.0]])
        # copies: dropping the zeros of k_ii rewrites the index arrays in place
        self.skew = sp.csr_matrix((k.ravel()[self.corners % 9], tri.copy(), indptr.copy()),
                                  shape=shape)
        self.skew.eliminate_zeros()

    def data(self, S: np.ndarray, nh: np.ndarray):
        """The pairs' 3x3 blocks of H, (pairs, 3, 3), and their entries of
        L, (pairs,), from the per-triangle stiffness S and unit normals nh."""
        np.take(S, self.corners, out=self.weights.data)
        products = np.ones((len(nh), 10))
        products[:, :9] = (nh[:, :, None] * nh[:, None, :]).reshape(-1, 9)
        sym = self.weights @ products
        blocks = self.skew @ (np.take(nh, self.CROSS[0], axis=1) * self.CROSS[1])  # [q]x
        blocks += sym[:, :9]
        return blocks.reshape(-1, 3, 3), sym[:, 9].copy()

    def bsr(self, blocks: np.ndarray) -> sp.bsr_matrix:
        """The BSR matrix with the pairs' 3x3 `blocks`, on their memory."""
        return sp.bsr_matrix((blocks, self.pcol, self.row_start), shape=self.shape)

    def matrix(self, blocks: np.ndarray) -> sp.csc_matrix:
        """The CSC form of `bsr(blocks)`, which must be symmetric bit for bit."""
        return self.bsr(blocks).tocsr().T


BAND = 5    # half-bandwidth of the stack stage's system: 3x3 ring blocks


class _StackBasis:
    """The stacks of horizontal circles on a `RingGrid`, ring 0 and ring nv
    on the boundary: interior ring j is c_j + r_j (cos u_i, sin u_i, 0) at
    its fixed height.  `matrix` is the linear map B from the unknowns
    (c_j, r_j), in columns 3(j-1) .. 3(j-1)+2, to the interior vertex
    coordinates.

    B^T H B and B^T kron(L, I3) B are summed strip by strip, from the blocks
    S_ij nh nh^T + k_ij [nh]x of H in closed form.  Corner i of a triangle
    of strip s moves with the six unknowns (c, r) of rings s and s+1
    through a 3x6 Jacobian J_i.  Its third row is zero, since a ring keeps
    its height, and its first two rows Jh_i are (1, 0, cos u; 0, 1, sin u)
    in the columns of the corner's ring.  Since each row of S sums to zero,
    sum_ij S_ij a_i b_j^T = -sum_p S_p (a_j - a_k)(b_j - b_k)^T over the
    three corner pairs p = (j, k) = (p+1, p+2) of a triangle, with
    S_p = S_jk.  And for horizontal a and b, a.(nh x b) = nh_z (R a).b with
    R (a1, a2) = (a2, -a1).  So a triangle adds

        -sum_p S_p (nx^2 x_p x_p^T + nx ny (x_p y_p^T + y_p x_p^T)
                    + ny^2 y_p y_p^T) + nh_z F,
        F = sum_ij k_ij (R Jh_i)^T Jh_j,

    to B^T H B and -sum_p S_p (x_p x_p^T + y_p y_p^T) to B^T kron(L, I3) B,
    with x_p and y_p the rows of D_p = Jh_j - Jh_k, as column 6-vectors.
    D and F depend only on the parity of the strip, which sets its
    diagonals, so these are static tables, `tables`: a strip's 21 distinct
    entries of each symmetric 6x6 sum are one product of its features
    -S_p (nx^2, nx ny, ny^2), nh_z, and -S_p, with the table of its parity.
    The reduced system is block tridiagonal in the rings, 3x3 blocks summed
    from the strips' 6x6 blocks (the columns of a boundary ring dropped),
    and is kept in LAPACK band storage with BAND diagonals on each side.
    `scatter` is static: each strip entry's position among the strips' 21
    entries, once for each of its places in the strip's 6x6 that falls in
    the interior rings, and that place's flat position in the band, strip by
    strip.  So one `np.bincount` fills the band, a diagonal ring block as
    the sum of strip s - 1's entries and strip s's, and the band's corners
    outside the matrix stay zero.
    """

    def __init__(self, grid: RingGrid):
        nu, nv = grid.nu, grid.nv
        self.nv = nv
        ring = np.zeros((nu, 3, 3))
        ring[:, :2, :2] = np.eye(2)
        ring[:, :, 2] = grid.directions
        self.matrix = sp.kron(sp.identity(nv - 1), ring.reshape(3 * nu, 3),
                              format="csr")
        # Jh_i on an even and an odd strip: (strip, triangle, corner, row, 6).
        tris = grid.triangles[:4 * nu].reshape(2, -1, 3)
        ring_of, k = np.divmod(tris, nu)
        upper = (ring_of > np.arange(2)[:, None, None])[..., None, None]
        jh = ring[k, :2]                               # (1, 0, cos u; 0, 1, sin u)
        jac = np.concatenate([np.where(upper, 0.0, jh), np.where(upper, jh, 0.0)], axis=-1)
        D = jac[:, :, [1, 2, 0]] - jac[:, :, [2, 0, 1]]             # D_p
        # sum_j k_ij Jh_j = -D_i / 2, and R Jh_i has rows (Jh_i[1], -Jh_i[0]).
        turned = np.stack([jac[..., 1, :], -jac[..., 0, :]], axis=-2)
        F = -0.5 * np.einsum("stirk,stirl->stkl", turned, D)
        X, Y = (D[..., r, :, None] * D[..., r, None, :] for r in range(2))  # x x^T, y y^T
        XY = D[..., 0, :, None] * D[..., 1, None, :]                        # x y^T
        per_feature = np.concatenate([X, XY + XY.swapaxes(-1, -2), Y, F[:, :, None]], axis=2)
        upper6 = np.triu_indices(6)
        self.tables = (per_feature[..., upper6[0], upper6[1]].reshape(2, -1, 21),
                       (X + Y)[..., upper6[0], upper6[1]].reshape(2, -1, 21))
        # the 21 entries' places in a strip's 6x6, and the unknown of each
        # of its rows: ring s's in rows 0-2, ring s + 1's in rows 3-5
        square = np.zeros((6, 6), dtype=np.intp)
        square[upper6] = square.T[upper6] = np.arange(21)
        n = 3 * (nv - 1)
        strip = np.arange(nv)[:, None]
        unknown = 3 * (strip + np.arange(6) // 3 - 1) + np.arange(6) % 3  # (strip, row)
        i, j = unknown[:, :, None], unknown[:, None, :]
        interior = (i >= 0) & (i < n) & (j >= 0) & (j < n)
        self.scatter = ((21 * strip[:, :, None] + square)[interior],
                        ((BAND + i - j) * n + j)[interior])

    def reduced(self, geo: EdgeGeometry):
        """(B^T H B, B^T kron(L, I3) B) at the surface of `geo`, in LAPACK
        band storage with BAND diagonals on each side: A[i, j] =
        band[BAND + i - j, j], which is the data of scipy's DIA matrix with
        offsets BAND, BAND - 1, ..., -BAND."""
        nv = self.nv
        nh = geo.normals
        neg_s = -geo.stiffness[:, [1, 2, 0], [2, 0, 1]]   # -S_p
        features = np.empty((len(nh), 10))
        features[:, 0:3] = neg_s * (nh[:, :1] * nh[:, :1])
        features[:, 3:6] = neg_s * (nh[:, :1] * nh[:, 1:2])
        features[:, 6:9] = neg_s * (nh[:, 1:2] * nh[:, 1:2])
        features[:, 9] = nh[:, 2]
        entry, place = self.scatter
        size = (2 * BAND + 1) * 3 * (nv - 1)
        out = []
        for per_strip, table in zip((features, neg_s), self.tables):
            per_strip = per_strip.reshape(nv, -1)
            strips = np.empty((nv, 21))
            for q in range(2):
                strips[q::2] = per_strip[q::2] @ table[q]
            band = np.bincount(place, strips.ravel()[entry], minlength=size)
            out.append(band.reshape(2 * BAND + 1, -1))
        return tuple(out)

    def residual(self, geo: EdgeGeometry, interior: np.ndarray) -> float:
        """Largest ring-averaged mean curvature: the norm of ring j's block
        of B^T g over the vertex area of ring j, times the mean edge
        length.  It is zero exactly where the stack is stationary."""
        ring_g = (self.matrix.T @ geo.gradient[interior].ravel()).reshape(-1, 3)
        ring_area = geo.vertex_areas[interior].reshape(len(ring_g), -1).sum(axis=1)
        return _curvature_residual(np.linalg.norm(ring_g, axis=1), ring_area, geo)


class _Descent:
    """Levenberg-Marquardt descent on the area of a mesh whose boundary is
    pinned: the current surface with its `edge_geometry`, gradient and
    residual, the damping, the safety checks, and `report`, the one record
    of the solve's counters and histories, updated in place.  The stack
    stage and the full stage both step through `_iterate`, so they share one
    acceptance and damping rule, and the full stage starts from the damping
    the stack stage last accepted."""

    def __init__(self, mesh: TriMesh):
        fixed = mesh.boundary_vertex_mask()
        used = np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices)
        if not used.all():
            raise MeshError(f"vertex {int(np.argmin(used))} is referenced by no triangle")
        loops = mesh.boundary_loops()
        if len(loops) != 2:
            raise MeshError(
                f"expected an annulus with 2 boundary loops, found {len(loops)}")
        self.start, self.interior = mesh, ~fixed
        self.mid_level = 0.5 * sum(mesh.x3_range())
        rims = [mesh.vertices[np.append(lp, lp[0])] for lp in loops]
        self.pinch_len = PINCH_RATIO * min(
            float(np.linalg.norm(np.diff(p, axis=0), axis=1).sum()) for p in rims)
        self.pattern = None           # the full stage's, built on its first iteration
        self.factor = None            # float32 factors of the last full-stage system
        self.mu = 1.0
        self.report = ConvergenceReport()
        cur = TriMesh(mesh.vertices.copy(), mesh.triangles)
        self._accept(cur, edge_geometry(cur))

    def _accept(self, mesh: TriMesh, geo: EdgeGeometry) -> None:
        self.cur, self.geo = mesh, geo
        self.grad, self.res = mean_curvature_residual(geo, self.interior)
        self.report.area_history.append(geo.area)
        self.report.residual_history.append(self.res)

    def _iterate(self, solve, stage_residual) -> bool:
        """One iteration.  `solve(mu)` returns a step of the interior
        vertices, (n, 3), for the system damped by mu, and the area decrease
        the quadratic model predicts for it.  The damping grows until a step
        lowers the area by at least a tenth of the prediction; if none does
        at maximal damping, return False with the damping of the last
        accepted step.  A predicted decrease below the rounding floor of the
        area sum cannot be measured: such a step is accepted at its damping,
        neither shrunk nor grown, when it lowers `stage_residual(geometry)`,
        and otherwise ends the stage."""
        mu, area = self.mu, self.geo.area
        for _ in range(25):
            try:
                # A non-finite step is rejected below; its model value
                # raises no warning.
                with np.errstate(invalid="ignore", over="ignore"):
                    step, predicted = solve(mu)
            except (RuntimeError, np.linalg.LinAlgError):  # exactly singular
                mu *= 4.0
                continue
            if np.all(np.isfinite(step)):
                trial = self.cur.vertices.copy()
                trial[self.interior] += step
                cand = TriMesh(trial, self.cur.triangles)
                geo = edge_geometry(cand)
                actual = area - geo.area
                if 0 < predicted < AREA_ROUNDING * area:
                    if stage_residual(geo) >= stage_residual(self.geo):
                        return False
                    self.mu = mu
                    self._accept(cand, geo)
                    return True
                if predicted > 0 and actual >= 0.1 * predicted:
                    self.mu = mu / 3.0 if actual > 0.75 * predicted else mu
                    self._accept(cand, geo)
                    return True
            mu *= 4.0
        return False

    def _factored_solve(self):
        """`solve(mu)` for the full stage: H + mu kron(L, I3), H's BSR blocks
        with mu L added to their diagonals.  Conjugate gradients
        preconditioned by the factors of the last system factored solve it
        to CG_TOL; on a miss, or with no factors yet, the old factors are
        dropped and its CSC form is factored in float32 and solved by `refine`."""
        if self.pattern is None:
            self.pattern = _HessianPattern(self.cur.triangles, self.interior)
        pattern = self.pattern
        g = self.grad.ravel()
        blocks, lap = pattern.data(self.geo.stiffness, self.geo.normals)
        H, damped = pattern.bsr(blocks), blocks.copy()
        A = pattern.bsr(damped)             # each solve(mu) sets its diagonals
        diagonals = blocks.reshape(-1, 9)[:, ::4], damped.reshape(-1, 9)[:, ::4]

        def solve(mu):
            np.add(diagonals[0], mu * lap[:, None], out=diagonals[1])
            x = None
            if self.factor is not None:
                x, its = preconditioned_cg(A, -g, self.factor, CG_TOL, CG_MAX_ITERATIONS)
                self.report.cg_iterations += its
            if x is None:
                self.factor = None          # never two sets of factors at once
                self.factor = factor_float32(pattern.matrix(damped))
                self.report.factorizations += 1
                x = refine(self.factor, A, -g)
            return (x.reshape(-1, 3),
                    -(fixed_order_dot(g, x) + 0.5 * fixed_order_dot(x, H @ x)))
        return solve

    def _stack_solve(self, basis: _StackBasis):
        """`solve(mu)` for the stack stage: the step B t from the banded
        reduced system B^T (H + mu kron(L, I3)) B t = -B^T g."""
        Hr, Lr = basis.reduced(self.geo)
        gr = basis.matrix.T @ self.grad.ravel()
        H = sp.dia_matrix((Hr, np.arange(BAND, -BAND - 1, -1)),    # B^T H B
                          shape=(len(gr), len(gr)))

        def solve(mu):
            t = solve_banded((BAND, BAND), Hr + mu * Lr, -gr, overwrite_ab=True,
                             check_finite=False)
            return ((basis.matrix @ t).reshape(-1, 3),
                    -(fixed_order_dot(gr, t) + 0.5 * fixed_order_dot(t, H @ t)))
        return solve

    def _safety_failure(self) -> str | None:
        """What went wrong with the current surface, if anything: a tear or
        a pinch at the mid level, or collapsed triangles.  The stage that
        asks chooses the exception.  Pinch first: a collapsing neck also
        degenerates triangles, and the topological diagnosis is the one
        worth reporting."""
        try:
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                mid = slice_mesh(self.cur, self.mid_level)
        except ValueError:          # SliceError, or a vanishing normal's MeshError
            return "the surface tore at the mid level"
        if sum(c.length() for c in mid) < self.pinch_len:
            return f"neck pinched below {PINCH_RATIO:.0%} of the boundary circumference"
        quality = self.geo.double_areas.min() / self.geo.double_areas.mean()
        if quality < MIN_QUALITY:
            return f"mesh degenerated (min/mean triangle area {quality:.2e})"
        return None

    def stack_stage(self) -> None:
        """Minimize area over the stacks of circles through the start, if
        it is one (see `_stack_basis`).  Runs before any factorization.  A
        minimal annulus is a stack, so a safety failure here means that
        none exists: NoAnnulusError."""
        basis = _stack_basis(self.start)
        if basis is None:
            return

        def residual(geo):
            return basis.residual(geo, self.interior)

        def check():
            if what := self._safety_failure():
                raise NoAnnulusError(f"no annulus: {what}")

        report = self.report
        while (self.res > TOLERANCE and residual(self.geo) > STACK_TOL_RATIO * TOLERANCE
               and report.stack_iterations < MAX_ITERATIONS):
            report.stack_iterations += 1
            if not self._iterate(self._stack_solve(basis), residual):
                break
            if report.stack_iterations % CHECK_EVERY == 0:
                check()
        check()

    def full_stage(self):
        """Minimize over every interior vertex; return (mesh, report) or raise
        ConvergenceError, a safety failure included."""
        report = self.report

        def residual(geo):
            return mean_curvature_residual(geo, self.interior)[1]

        def check():
            if what := self._safety_failure():
                if not what.startswith("mesh degenerated"):
                    what = f"mesh degenerated: {what}"
                raise ConvergenceError(what, report)

        while self.res > TOLERANCE and report.iterations < MAX_ITERATIONS:
            report.iterations += 1
            if not self._iterate(self._factored_solve(), residual):
                report.message = ("no area-decreasing step at maximal damping, "
                                  "nor a residual-decreasing one below the area's "
                                  "rounding floor")
                break
            if report.iterations % CHECK_EVERY == 0:
                check()
        check()
        report.converged = self.res <= TOLERANCE
        if not report.converged:
            raise ConvergenceError(
                report.message or f"not converged after {report.iterations} iterations "
                f"(residual {self.res:.3e} > {TOLERANCE:.1e})",
                report)
        # Boundary rows were never written; assert the contract cheaply.
        fixed = ~self.interior
        assert np.array_equal(self.cur.vertices[fixed], self.start.vertices[fixed])
        return self.cur, report


def _stack_basis(mesh: TriMesh) -> _StackBasis | None:
    """The stacks of circles through `mesh`, when it is a stack of
    horizontal circles on a `RingGrid` (as `initial_annulus` builds it):
    interior ring j (0 < j < nv) equal to c_j + r_j (cos u_i, sin u_i, 0) at
    a fixed height.  None for any other mesh.
    """
    grid = RingGrid.of(mesh)
    if grid is None or grid.nv < 2:
        return None
    dirs = grid.directions
    rings = mesh.vertices.reshape(grid.nv + 1, grid.nu, 3)[1:-1]
    offsets = rings - rings.mean(axis=1, keepdims=True)    # from the centers
    radii = (offsets * dirs).sum(axis=(1, 2)) / grid.nu
    if not np.allclose(offsets, radii[:, None, None] * dirs, rtol=0.0,
                       atol=1e-12 * mesh.bbox_diagonal()):
        return None
    return _StackBasis(grid)


def minimize_area(mesh: TriMesh):
    """Relax interior vertices to a discrete minimal surface.

    A stack of horizontal circles on a `RingGrid`, such as the ruled
    surface `initial_annulus` builds, is first relaxed over stacks of
    circles, then over every interior vertex.

    Returns (minimized TriMesh, ConvergenceReport).  Boundary vertices are
    bit-identical to their input positions.  Every accepted step lowers the
    area, so the area history decreases strictly, except below the rounding
    floor of the area sum, where a step lowers the residual instead.
    """
    descent = _Descent(mesh)
    descent.stack_stage()
    return descent.full_stage()


def solve_annulus(problem: AnnulusProblem):
    """Minimize the area of the problem's ruled start."""
    return minimize_area(problem.start)
