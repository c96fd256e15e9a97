"""Oriented triangle meshes in R^3 and the discrete operators used on them:
plane slicing into cross-section cycles, the corner pass that gives both
the angle-weighted vertex normals and the angle-defect curvature, and the
edge-vector pass that gives the cotangent stiffness to the Dirichlet-energy
capacity and to the geometry the area solver makes per iterate.  Both
passes work on coordinate-major (3, M) rows and sum onto the vertices with
`bincount`.  A mesh caches its corner pass; its boundary loops, from one
sort of its directed edges keyed so that an edge and its reverse are
adjacent; and each triangle's x3 range, from which slicing takes the
triangles a plane crosses.
`RingGrid` is the layout of every surface of revolution and solver
annulus.  The capacity and the solver's full stage share one conjugate
gradient routine, `preconditioned_cg`, and one factorization,
`factor_float32`, whose float32 factors `refine` refines in float64.  The
capacity on a ring grid assembles no matrix: it runs conjugate gradients
on the per-triangle product of its system, preconditioned by its
`RingPreconditioner`, the ring average of its system summed from the
stiffness and solved by FFT around the rings, and assembles and factors
its system only when they miss; on any other mesh it factors.  The full
stage factors once and solves its later systems by conjugate gradients
on those factors.
`read_obj` reads a file by one of two paths: one `np.loadtxt` per record
type, with no Python object per line, for the layout `write_obj` writes,
and a line-by-line parse for any other file and any error, which names
the file and the first bad line.
"""

from __future__ import annotations

import functools
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

E3 = np.array([0.0, 0.0, 1.0])

DEGENERATE_AREA_FACTOR = 1e-14
SNAP_REL_TOL = 1e-9
FRAME_TOL = 1e-8  # conormal orthogonality allowed by `check_invariants`
NUDGE_REL = 1e-7
_OBJ_VERTEX_ROW = np.dtype([("tag", "S1"), ("xyz", float, (3,))])
_OBJ_FACE_ROW = np.dtype([("tag", "S1"), ("idx", np.int64, (3,))])


class MeshError(ValueError):
    """Mesh fails a structural requirement (manifoldness, orientation, ...)."""


class SliceError(ValueError):
    """Plane section of the mesh could not be extracted."""


@dataclass
class TriMesh:
    """Oriented manifold triangle mesh. Vertices (N, 3); triangles (M, 3)
    with counterclockwise winding defining the normal orientation.  It is
    not changed after construction, so its cached passes stay valid."""

    vertices: np.ndarray
    triangles: np.ndarray
    _boundary_loops: list | None = field(default=None, init=False, repr=False, compare=False)
    _corner_pass: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _triangle_x3_range: tuple | None = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must have shape (N, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (M, 3)")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise MeshError("triangle index out of range")

    # -- basic quantities -------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def triangle_corners(self):
        v = self.vertices
        t = self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def triangle_areas(self) -> np.ndarray:
        """Half the length of (p1 - p0) x (p2 - p0), from coordinate-major
        (3, M) rows: the cross product by components, and its length added
        as (x x + y y) + z z, bit for bit what `np.cross` and
        `np.linalg.norm` give on (M, 3) rows."""
        t = np.ascontiguousarray(self.triangles.T)
        p = np.take(np.ascontiguousarray(self.vertices.T), t, axis=1)   # (3 coords, 3, M)
        (x1, y1, z1), (x2, y2, z2) = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        del p
        x, y, z = y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2
        return 0.5 * np.sqrt(x * x + y * y + z * z)

    def area(self) -> float:
        return float(self.triangle_areas().sum())

    def bbox_diagonal(self) -> float:
        return float(np.linalg.norm(self.vertices.max(0) - self.vertices.min(0)))

    def x3_range(self):
        return float(self.vertices[:, 2].min()), float(self.vertices[:, 2].max())

    def triangle_x3_range(self) -> tuple:
        """(lo, hi), each (M,) and read-only: the smallest and the largest x3
        of each triangle's corners; cached.  lo skips a NaN x3 and hi takes
        it, so lo < t says that some corner is below the level t and hi < t
        that every corner is, a NaN corner being below no level."""
        if self._triangle_x3_range is None:
            z0, z1, z2 = self.vertices[:, 2][self.triangles.T]    # per corner, (M,)
            self._triangle_x3_range = (np.fmin(np.fmin(z0, z1), z2),
                                       np.maximum(np.maximum(z0, z1), z2))
            for a in self._triangle_x3_range:
                a.setflags(write=False)
        return self._triangle_x3_range

    # -- topology ---------------------------------------------------------
    def validate(self) -> None:
        """Check finiteness, manifoldness, orientation and non-degeneracy;
        raise MeshError."""
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise MeshError(f"vertex {bad} has a non-finite coordinate")
        with np.errstate(over="ignore", invalid="ignore"):
            areas = self.triangle_areas()
            thresh = DEGENERATE_AREA_FACTOR * self.bbox_diagonal() ** 2
        if not (np.isfinite(areas).all() and math.isfinite(thresh)):
            raise MeshError("mesh too large to measure: its areas overflow")
        if np.any(areas <= thresh):
            bad = int(np.argmin(areas))
            raise MeshError(f"degenerate triangle {bad} (area {areas[bad]:.3e})")
        # directed edge (a, b) as a n + b, sorted: a repeat sits next to itself
        n, t = self.n_vertices, self.triangles.T
        keys = np.sort(t.ravel() * n + t[[1, 2, 0]].ravel())
        repeats = keys[1:][keys[1:] == keys[:-1]]
        if len(repeats):
            k = int(repeats[0])
            raise MeshError(
                f"directed edge ({k // n}, {k % n}) "
                "repeats: mesh is non-manifold or inconsistently oriented"
            )

    def boundary_loops(self) -> list:
        """Ordered vertex cycles of the boundary (directed edges without a
        reverse partner), each starting at its smallest vertex and listed by
        start vertex; cached.

        Each directed edge (a, b) is keyed 2 (min n + max) + (a > b), so an
        edge and its reverse are the adjacent integers 2 e and 2 e + 1, and
        one sort finds both the copies of an edge, as one run of equal keys,
        and its reverse, as the run next to it.  An edge (k, k) of a
        triangle with a repeated corner is its own reverse."""
        if self._boundary_loops is None:
            n, t = self.n_vertices, self.triangles.T
            a, b = t.ravel(), t[[1, 2, 0]].ravel()
            keys = np.sort(2 * (np.minimum(a, b) * n + np.maximum(a, b)) + (a > b))
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            runs, copies = keys[starts], np.diff(starts, append=len(keys))
            twins = (runs[:-1] ^ 1) == runs[1:]
            lone = np.ones(len(runs), dtype=bool)
            lone[:-1] &= ~twins
            lone[1:] &= ~twins
            runs, copies = runs[lone], copies[lone]
            (lo, hi), flipped = np.divmod(runs >> 1, n), (runs & 1).astype(bool)
            copies[lo == hi] = 0
            a = np.repeat(np.where(flipped, hi, lo), copies)
            b = np.repeat(np.where(flipped, lo, hi), copies)
            out_deg = np.bincount(a, minlength=n)
            bad = np.flatnonzero((out_deg > 1) | (out_deg != np.bincount(b, minlength=n)))
            if len(bad):
                raise MeshError(f"boundary branches at vertex {int(bad[0])}")
            nxt = np.zeros(n, dtype=np.int64)
            nxt[a] = b
            loops = []
            for start in np.flatnonzero(out_deg).tolist():
                if out_deg[start]:
                    loop = [start]
                    while (cur := int(nxt[loop[-1]])) != start:
                        loop.append(cur)
                    loops.append(np.array(loop, dtype=np.int64))
                    out_deg[loops[-1]] = 0
            self._boundary_loops = loops
        return self._boundary_loops

    def corner_pass(self) -> tuple:
        """(normals, angle_sums) of `corner_sums`, read-only; cached."""
        if self._corner_pass is None:
            self._corner_pass = corner_sums(self)
            for a in self._corner_pass:
                a.setflags(write=False)
        return self._corner_pass

    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        for loop in self.boundary_loops():
            mask[loop] = True
        return mask


# The two triangles of the quad (v00, v10, v01, v11) of a `RingGrid`, as
# quad corners 2 r + d (ring step r, angle step d), by the parity of i + j.
_RING_SPLIT = np.array([[0, 3, 1, 0, 2, 3], [0, 2, 1, 1, 2, 3]])


@dataclass(frozen=True)
class RingGrid:
    """The layout of every surface of revolution and solver annulus: rings
    j = 0 .. nv, vertex i of ring j at index j * nu + i and angle
    u_i = 2 pi i / nu.  Quad diagonals alternate with the parity of i + j,
    for isotropy, and normals point toward the axis at a neck (as
    gamma = (-cos u, -sin u, sinh v)/cosh v on the catenoid).  Triangle rows
    2 nu j .. 2 nu (j + 1), strip j, lie between rings j and j + 1."""

    nu: int
    nv: int

    @property
    def directions(self) -> np.ndarray:
        """(nu, 3): the unit vectors (cos u_i, sin u_i, 0)."""
        u = np.arange(self.nu) * (2.0 * math.pi / self.nu)
        return np.stack([np.cos(u), np.sin(u), np.zeros(self.nu)], axis=1)

    @property
    @functools.lru_cache(maxsize=4)     # equal grids share one read-only array
    def triangles(self) -> np.ndarray:
        nu = self.nu
        j, i = np.indices((self.nv, nu))
        v00, v10 = j * nu + i, j * nu + (i + 1) % nu
        quad = np.stack([v00, v10, v00 + nu, v10 + nu], axis=-1)  # v00 v10 v01 v11
        tris = np.take_along_axis(quad, _RING_SPLIT[(i + j) % 2], axis=2).reshape(-1, 3)
        tris.setflags(write=False)
        return tris

    @classmethod
    def of(cls, mesh: TriMesh) -> RingGrid | None:
        """The grid whose triangles `mesh` has, nu being the length of its
        first boundary loop; None for any other mesh."""
        loops = mesh.boundary_loops()
        if not loops or mesh.n_vertices % len(loops[0]):
            return None
        grid = cls(len(loops[0]), mesh.n_vertices // len(loops[0]) - 1)
        return grid if np.array_equal(mesh.triangles, grid.triangles) else None


def corner_sums(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """(normals, angle_sums): the angle-weighted unit vertex normals
    (Thuermer & Wuethrich 1998) and the sum of the interior angles at each
    vertex, from one pass over the triangle corners.

    The edges d_k = p_{k+1} - p_k of each triangle give the angle at corner
    k, arccos of -d_k.d_{k+2} / (|d_k| |d_{k+2}|), and the triangle's unit
    normal n / |n|, n = d_2 x d_0 = (p_1 - p_0) x (p_2 - p_0).  As in
    `edge_geometry` the arrays are coordinate-major, (3, M) per corner; each
    coordinate of the weighted normals, and the angles, are summed onto the
    vertices by one `bincount` that runs corner-major (corner 0 of every
    triangle, then corner 1, then 2), so each vertex accumulates its terms
    in a fixed order.
    The dot product adds (x x + z z) + y y, as `np.einsum` adds three terms,
    and the lengths add (x x + y y) + z z, as `np.linalg.norm` does, so the
    results equal bit for bit those of the per-corner (M, 3, 3) form.

    Raises MeshError naming the first vertex whose normal sum vanishes,
    such as a vertex that no triangle references."""
    t = np.ascontiguousarray(mesh.triangles.T)        # (3 corners, M)
    p = np.take(np.ascontiguousarray(mesh.vertices.T), t, axis=1)   # (3 coords, 3, M)
    d = np.empty_like(p)                              # d[:, k] = p_{k+1} - p_k
    for k in range(3):
        d[:, k] = p[:, (k + 1) % 3] - p[:, k]
    del p
    x, y, z = d
    lengths = np.sqrt(x * x + y * y + z * z)
    n = np.stack([y[2] * z[0] - z[2] * y[0],
                  z[2] * x[0] - x[2] * z[0],
                  x[2] * y[0] - y[2] * x[0]])
    n /= np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
    angles = np.empty_like(lengths)
    for k, j in zip(range(3), (2, 0, 1)):
        dots = x[k] * x[j] + z[k] * z[j] + y[k] * y[j]
        angles[k] = np.arccos(np.clip(-dots / (lengths[k] * lengths[j]), -1.0, 1.0))
    nv, corners = mesh.n_vertices, t.ravel()
    normals = np.empty((nv, 3))
    for c in range(3):
        normals[:, c] = np.bincount(corners, weights=(angles * n[c]).ravel(), minlength=nv)
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms < 1e-14):
        bad = int(np.argmax(norms < 1e-14))
        if not np.any(corners == bad):
            raise MeshError(f"vertex {bad} is referenced by no triangle")
        raise MeshError(f"the angle-weighted normal of vertex {bad} vanishes")
    normals /= norms[:, None]
    return normals, np.bincount(corners, weights=angles.ravel(), minlength=nv)


def vertex_normals(mesh: TriMesh) -> np.ndarray:
    """Angle-weighted average of incident triangle normals, normalized: the
    normals of the cached `corner_pass`, which also gives the angle defects."""
    return mesh.corner_pass()[0]


# ---------------------------------------------------------------------------
# Plane slicing


@dataclass
class CrossSectionCycle:
    """One connected component of a horizontal plane section.

    points[i] -> points[i+1] (wrapping when closed) is segment i; per-segment
    frames satisfy nu _|_ tangent, nu _|_ gamma and <nu, e3> > 0.
    """

    points: np.ndarray
    level: float
    closed: bool
    tangents: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    conormals: np.ndarray = field(repr=False)
    ds: np.ndarray = field(repr=False)

    @property
    def n_segments(self) -> int:
        return len(self.ds)

    def length(self) -> float:
        return float(self.ds.sum())

    def check_invariants(self) -> None:
        if np.max(np.abs(np.einsum("ij,ij->i", self.conormals, self.tangents))) > FRAME_TOL:
            raise SliceError("conormal not orthogonal to the cycle tangent")
        if np.max(np.abs(np.einsum("ij,ij->i", self.conormals, self.normals))) > FRAME_TOL:
            raise SliceError("conormal not orthogonal to the surface normal")
        if np.min(self.conormals[:, 2]) <= 0:
            raise SliceError("conormal lost its positive axial component")


def _segment_frames(points: np.ndarray, seg_normals: np.ndarray, closed: bool):
    nseg = len(points) if closed else len(points) - 1
    idx = np.arange(nseg)
    a = points[idx]
    b = points[(idx + 1) % len(points)]
    edge = b - a
    ds = np.linalg.norm(edge, axis=1)
    if np.any(ds < 1e-300):
        raise SliceError("degenerate slice segment")
    tangents = edge / ds[:, None]
    # Remove the along-segment component so the stored frame is exactly
    # orthogonal; the interpolated normals carry O(h^2) tangential noise.
    g = seg_normals - np.einsum("ij,ij->i", seg_normals, tangents)[:, None] * tangents
    gn = np.linalg.norm(g, axis=1)
    if np.any(gn < 1e-12):
        raise SliceError("surface normal parallel to a slice segment")
    gamma = g / gn[:, None]
    nu = E3 - gamma[:, 2][:, None] * gamma
    nun = np.linalg.norm(nu, axis=1)
    if np.any(nun < 1e-12):
        raise SliceError("surface normal is axial on the slice (critical point)")
    nu = nu / nun[:, None]
    return tangents, gamma, nu, ds


def slice_mesh(mesh: TriMesh, t: float, normals: np.ndarray | None = None) -> list:
    """Cut the mesh by the plane x3 = t; one cycle per connected component.

    Levels within snap tolerance of a vertex level are nudged; the level
    actually used is recorded on the returned cycles.

    The section's nodes are the crossed edges; each crossing triangle joins
    its two crossed edges by a segment.  Open chains are walked first, each from its smallest
    crossed edge (by vertex pair), in that order.  Closed chains follow,
    each from the first crossed edge (in corner order) of the lowest-index
    crossing triangle not yet walked, across that triangle first.  A chain
    whose first (tangent, conormal, normal) frame is left-handed is
    reversed, and the cycles are sorted by (length to 12 digits, x of the
    first point).  This order fixes the bytes of every slice table.
    """
    z = mesh.vertices[:, 2]
    zmin, zmax = mesh.x3_range()
    if not (zmin < t < zmax):
        raise SliceError(f"level {t} outside the mesh x3-range ({zmin}, {zmax})")
    zrange = zmax - zmin
    level = t
    if np.min(np.abs(z - level)) < SNAP_REL_TOL * zrange:
        level = t + NUDGE_REL * zrange
        if np.min(np.abs(z - level)) < SNAP_REL_TOL * zrange:
            raise SliceError(f"could not find a regular level near {t}")
    normals = vertex_normals(mesh) if normals is None else normals

    # Edge k of a triangle runs from corner k to corner k+1; a triangle
    # crosses the plane on 0 or 2 of its edges.  The crossing triangles,
    # those with a corner below the plane and one not below it, are taken
    # from the cached x3 ranges, in mesh order; f lists their crossed edges
    # triangle by triangle, each by the flat (crossing, 3) index of its
    # corner k.
    zlo, zhi = mesh.triangle_x3_range()
    crossing = mesh.triangles[(zlo < level) & ~(zhi < level)]
    side = z[crossing] < level
    f = np.flatnonzero(side != side[:, [1, 2, 0]])
    if not len(f):
        raise SliceError(f"plane x3 = {level} misses the mesh")
    corners = crossing.ravel()
    lo, hi = np.sort([corners[f], corners[f - f % 3 + (f + 1) % 3]], axis=0)
    keys, seg_nodes = np.unique(lo * mesh.n_vertices + hi, return_inverse=True)
    seg_nodes = seg_nodes.reshape(-1, 2)

    # Intersection point and interpolated unit normal per crossed edge.
    lo, hi = np.divmod(keys, mesh.n_vertices)
    s = ((level - z[lo]) / (z[hi] - z[lo]))[:, None]
    points = (1 - s) * mesh.vertices[lo] + s * mesh.vertices[hi]
    # On the plane by construction; rounding would tilt the tangent of a
    # segment of length ds by about 1e-16 / ds out of it.
    points[:, 2] = level
    nrm = (1 - s) * normals[lo] + s * normals[hi]
    # Per-row matmul rounds like np.dot; norm(axis=1) and einsum can differ
    # in the last bit, which would change the bytes of the slice tables.
    nn = np.sqrt((nrm[:, None, :] @ nrm[:, :, None]).ravel())
    if not np.all(nn >= 1e-12):                       # or is not finite
        raise SliceError("interpolated normal vanished on a slice edge")
    node_normals = nrm / nn[:, None]

    # Each node touches one or two segments (manifoldness of the section);
    # node_segs[v] lists them by index, twice for an open end.
    deg = np.bincount(seg_nodes.ravel())
    if deg.max() > 2:
        raise SliceError("non-manifold plane section")
    order = np.argsort(seg_nodes.ravel(), kind="stable") // 2
    last = np.cumsum(deg) - 1
    node_segs = order[np.stack([last - deg + 1, last], axis=1)].tolist()
    seg_ends = seg_nodes.tolist()
    used = [False] * len(seg_ends)

    def walk(node, seg):
        chain = [node]
        while True:
            used[seg] = True
            a, b = seg_ends[seg]
            node = b if a == node else a
            if node == chain[0]:
                return chain, True
            chain.append(node)
            a, b = node_segs[node]
            seg = b if a == seg else a
            if used[seg]:
                return chain, False

    chains = []
    for v in np.flatnonzero(deg == 1).tolist():
        if not used[node_segs[v][0]]:
            chains.append(walk(v, node_segs[v][0]))
    for si, (a, _) in enumerate(seg_ends):
        if not used[si]:
            chains.append(walk(a, si))

    cycles = []
    for chain, closed in chains:
        # Orient the chain so (tangent, conormal, normal) is right-handed.
        for nodes in (chain, chain[::-1]):
            pts, nrms = points[nodes], node_normals[nodes]
            nseg = len(pts) if closed else len(pts) - 1
            seg_normals = (nrms + np.roll(nrms, -1, axis=0))[:nseg] / 2.0
            tans, gamma, nu, ds = _segment_frames(pts, seg_normals, closed)
            if not np.linalg.det(np.stack([tans[0], nu[0], gamma[0]])) < 0:
                break
        cyc = CrossSectionCycle(pts, level, closed, tans, gamma, nu, ds)
        cyc.check_invariants()
        cycles.append(cyc)
    cycles.sort(key=lambda c: (round(c.length(), 12), c.points[0, 0]))
    return cycles


# ---------------------------------------------------------------------------
# Gauss image and curvature


def gauss_image_diameter(normals) -> float:
    """Spherical diameter of a set of unit normals (exact pairwise scan)."""
    nrm = np.asarray(normals, dtype=float)
    if nrm.shape == (3,):
        nrm = nrm[None, :]
    if nrm.ndim != 2 or nrm.shape[1] != 3 or len(nrm) == 0:
        raise ValueError(f"need at least one normal in a (k, 3) array, got {nrm.shape}")
    # clipping is monotone: only the smallest dot product needs it
    return float(np.arccos(np.clip((nrm @ nrm.T).min(), -1.0, 1.0)))


def gauss_image_length(cycle: CrossSectionCycle) -> float:
    """Discrete length of the Gauss image gamma(cycle): summed angles between
    consecutive segment normals (closed cycles only).  Each angle is
    atan2(|a x b|, a.b), which keeps its digits for nearly parallel normals,
    where arccos(a.b) loses half of them."""
    if not cycle.closed:
        raise ValueError("Gauss image length is defined for closed cycles")
    g = cycle.normals
    g_next = np.roll(g, -1, axis=0)
    sines = np.linalg.norm(np.cross(g, g_next), axis=1)
    return float(np.arctan2(sines, np.einsum("ij,ij->i", g, g_next)).sum())


def total_curvature(mesh: TriMesh):
    """(G, clamped): the total absolute Gaussian curvature G = integral of
    -K, via the angle defects 2*pi - sum(incident angles) at interior
    vertices (Meyer, Desbrun, Schroeder & Barr 2003), and the total of the
    positive defects (impossible on an exact minimal surface, present as
    discretization noise), which G leaves out.  The angle sums are those of
    the mesh's cached `corner_pass`, which also gives the vertex normals."""
    d = (2.0 * math.pi - mesh.corner_pass()[1])[~mesh.boundary_vertex_mask()]
    return float(-d[d < 0].sum()), float(d[d > 0].sum())


# ---------------------------------------------------------------------------
# Cotangent stiffness and capacity


def _stiffness_pass(mesh: TriMesh):
    """(t, e, n, nn, half, sq, S): the coordinate-major edge arithmetic that
    `edge_geometry` and `harmonic_capacity` share.  t holds the corners
    (3, M); e[:, i] = p_{i+1} - p_{i+2} is the edge opposite corner i
    (3 coords, 3, M); n = e_0 x e_1 is the normal, (3, M), with nn = |n|
    and half = 0.5 / |n|, a floor on |n| keeping degenerate triangles
    finite; sq[i] = |e_i|^2; and S (3, 3, M) is the cotangent stiffness
    S_ij = e_i.e_j / 2|n|.  An off-diagonal S_ij is minus half the cotangent
    of the angle at the third corner, and each row of S sums to zero."""
    t = np.ascontiguousarray(mesh.triangles.T)        # (3 corners, M)
    p = np.take(np.ascontiguousarray(mesh.vertices.T), t, axis=1)   # (3 coords, 3, M)
    nxt, prv = (1, 2, 0), (2, 0, 1)
    e = np.empty_like(p)                              # e[:, i] = p_{i+1} - p_{i+2}
    for i in range(3):
        e[:, i] = p[:, nxt[i]] - p[:, prv[i]]
    del p
    ex, ey, ez = e
    n = np.stack([ey[0] * ez[1] - ez[0] * ey[1],
                  ez[0] * ex[1] - ex[0] * ez[1],
                  ex[0] * ey[1] - ey[0] * ex[1]])
    nn = np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
    half = 0.5 / np.maximum(nn, 1e-300)
    sq = ex * ex + ey * ey + ez * ez                  # |e_i|^2
    S = np.empty((3, 3, len(nn)))
    for i, j, k in zip(range(3), nxt, prv):
        S[i, i] = half * sq[i]
        S[j, k] = S[k, j] = half * (ex[j] * ex[k] + ey[j] * ey[k] + ez[j] * ez[k])
    return t, e, n, nn, half, sq, S


@dataclass(frozen=True)
class EdgeGeometry:
    """The cotangent geometry of a mesh, from `edge_geometry`.  Per-triangle
    arrays are indexed by corner, with e_i the edge opposite corner i."""

    area: float                 # total area
    double_areas: np.ndarray    # (M,) |n|, with n = e_0 x e_1 the normal
    normals: np.ndarray         # (M, 3) unit normals n / |n|
    stiffness: np.ndarray       # (M, 3, 3) S_ij = e_i.e_j / 2|n|
    gradient: np.ndarray        # (N, 3) area gradient L V, L the cotangent Laplacian
    vertex_areas: np.ndarray    # (N,) barycentric: a third of each incident triangle's
    mean_edge_length: float     # over the 3 M triangle edges


def edge_geometry(mesh: TriMesh) -> EdgeGeometry:
    """One pass over the edge vectors e_i = p_{i+1} - p_{i+2} of every
    triangle, `_stiffness_pass`, gives its normal, the stiffness S from the
    dot products e_i.e_j, and the area gradient 0.5 e_i x nh at corner i,
    which is S_{i,i+2} e_{i+1} - S_{i,i+1} e_{i+2}: the cotangent Laplacian
    of the positions (Pinkall & Polthier 1993), summed from edges rather
    than positions.  The gradient and the vertex areas are summed onto the
    vertices by one scatter, corner-major: corner 0 of every triangle, then
    corner 1, then 2.

    The arrays are computed coordinate-major, (3, 3, M) and so on, so that
    every product is an array operation on contiguous rows; the per-triangle
    fields are copied out in triangle-major order."""
    t, e, n, nn, half, sq, S = _stiffness_pass(mesh)
    corner = np.empty((4, 3, len(nn)))               # gradient x, y, z; area / 3
    for i, j, k in zip(range(3), (1, 2, 0), (2, 0, 1)):
        corner[:3, i] = S[i, k] * e[:, j] - S[i, j] * e[:, k]
    corner[3] = nn / 6.0
    nv = mesh.n_vertices
    sums = np.bincount((t.ravel() + nv * np.arange(4)[:, None]).ravel(),
                       weights=corner.ravel(), minlength=4 * nv).reshape(4, nv)
    return EdgeGeometry(area=0.5 * float(nn.sum()), double_areas=nn,
                        normals=np.ascontiguousarray((n * (2.0 * half)).T),
                        stiffness=np.ascontiguousarray(S.transpose(2, 0, 1)),
                        gradient=sums[:3].T, vertex_areas=sums[3],
                        mean_edge_length=float(np.sqrt(sq).mean()))


REFINE_STEPS = 2      # float64 refinements of each float32-factored solve
RING_CG_TOL = 1e-14   # relative residual at which the capacity's conjugate
                      # gradients on a ring grid stop
RING_CG_MAX_ITERATIONS = 50   # before the capacity factors its system instead


def factor_symmetric(A):
    """SuperLU factorization of a sparse CSC matrix with symmetric structure
    and a safe diagonal (symmetric positive definite, or close to it): its
    own minimum-degree ordering on A^T + A, and diagonal pivots, which keeps
    the fill of a symmetric factorization.  The factors have the precision
    of A's data, float32 or float64, and so must the right-hand sides
    passed to their `solve`.  SuperLU's default panel size and relaxation
    are kept: a panel of 6 with relaxation 3 factors the float32 capacity
    system of the 256x128 catenoid about a fifth faster, but raises the
    error of the refined full-stage step at 96x48 and mu = 1e-2 from 3.8e-5
    to 1.7e-2, and a panel of 32 with relaxation 16 corrupts the heap
    (scipy 1.17).  Raises RuntimeError when a pivot is exactly zero."""
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


@dataclass(frozen=True)
class Float32Factors:
    """Float32 SuperLU factors of a float64 matrix, from `factor_float32`."""

    lu: spla.SuperLU

    def solve(self, b: np.ndarray) -> np.ndarray:
        """LU32^-1 b for a float64 b, rounded to float32 on the way in and
        returned in float64."""
        return self.lu.solve(b.astype(np.float32)).astype(float)


def factor_float32(A) -> Float32Factors:
    """`factor_symmetric` of a float64 CSC matrix A cast to float32: its own
    fill order, about three quarters of the float64 time and half the
    memory.  Raises RuntimeError when a pivot is exactly zero."""
    return Float32Factors(factor_symmetric(
        sp.csc_matrix((A.data.astype(np.float32), A.indices, A.indptr), shape=A.shape)))


class RingPreconditioner:
    """The inverse of the ring average of the cotangent Laplacian's block
    over rings 1 .. nv - 1 of a `RingGrid`, in ring-major order: the free
    block of a capacity whose boundary loops are rings 0 and nv.

    Each coupling A[(j, i), (j', i + delta)] of the block, between rings j
    and j' at angular offset delta, is averaged around the rings,
    C(j, j', delta) = (1/nu) sum_i A[(j, i), (j', i + delta)]: T. F. Chan's
    optimal circulant approximation (SIAM J. Sci. Stat. Comput. 9, 1988) of
    each ring pair's block, the average of A over the rotations of every
    ring by one angle, so it is symmetric positive definite when A is.  On
    a ring grid j' - j and delta lie in {-1, 0, 1}, and C is summed straight
    from the per-triangle stiffness S (3, 3, M) of the grid's triangles: a
    triangle's corner pair adds S_ab to C at the pair's ring and its
    (ring step, angle step), which depend only on the diagonal split of the
    quad, the triangle in it and the two corners.  So S is first summed
    over the quads of each strip whose angle index has one parity, by one
    product with a 0/1 parity matrix, and the sums go to C by a table of
    those steps.  The DFT around the rings, `np.fft.rfft`, splits C into
    one Hermitian tridiagonal system over the rings per mode
    k = 0 .. nu // 2, with diagonal sum_delta C(j, j, delta) w^(k delta)
    and superdiagonal sum_delta C(j, j + 1, delta) w^(k delta),
    w = exp(2 pi i / nu).  The modes are stacked into one tridiagonal with
    no coupling between them, factored once by LAPACK's `zpttrf`.  Raises
    np.linalg.LinAlgError when that fails, as on an average that is not
    positive definite."""

    def __init__(self, grid: RingGrid, S: np.ndarray):
        nu, strips = grid.nu, grid.nv
        self.nu = nu
        self.rings = n = strips - 1
        # sums[a, b, j, q, i % 2]: S_ab of triangle q of the quads of strip
        # j, summed over the quads whose angle index i has one parity
        parity = (np.arange(nu)[:, None] % 2 == np.arange(2)).astype(float)
        sums = S.reshape(3, 3, strips, nu, 2).transpose(0, 1, 2, 4, 3) @ parity
        a, b, j, q, odd = np.indices(sums.shape, sparse=True)
        split = (j + odd) % 2
        corner_a, corner_b = _RING_SPLIT[split, 3 * q + a], _RING_SPLIT[split, 3 * q + b]
        ring = j + corner_a // 2 - 1                  # the free ring of corner a
        up = corner_b // 2 - corner_a // 2            # j' - j
        keep = (up >= 0) & (ring >= 0) & (ring + up < n)
        slot = 6 * ring + 3 * up + corner_b % 2 - corner_a % 2 + 1   # delta + 1
        C = np.bincount(slot[keep], weights=sums[keep], minlength=6 * n).reshape(n, 2, 3) / nu
        w = np.exp(2j * math.pi / nu * np.arange(nu // 2 + 1))
        symbol = C @ np.stack([w.conj(), np.ones_like(w), w])   # (n, 2, modes)
        # Mode-major: zpttrf reads the subdiagonal, the conjugate of the
        # superdiagonal, and the zero closing each mode's row uncouples it
        # from the next mode.
        sub = np.zeros((len(w), n), dtype=complex)
        sub[:, :-1] = symbol[:-1, 1].T.conj()
        self.d, self.e, info = lapack.zpttrf(symbol[:, 0].real.T.ravel(), sub.ravel()[:-1])
        if info:
            raise np.linalg.LinAlgError(f"zpttrf failed on the ring average (info {info})")

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The ring average's solution for the float64 right-hand side r."""
        rhat = np.fft.rfft(r.reshape(self.rings, self.nu), axis=1)   # (rings, modes)
        x, _ = lapack.zpttrs(self.d, self.e, rhat.T.reshape(-1, 1), lower=1)
        return np.fft.irfft(x.reshape(-1, self.rings).T, n=self.nu, axis=1).ravel()


def refine(factors: Float32Factors, A, b):
    """The solution x of A x = b from the float32 factors of A:
    x = LU32^-1 b, refined REFINE_STEPS times against A in float64,
    x += LU32^-1 (b - A x) (mixed-precision iterative refinement: Buttari,
    Dongarra, Kurzak, Luszczek & Tomov 2008; Carson & Higham 2018).  Each
    refinement cuts the error by a factor of about kappa(A) * u32, down to
    the error of a float64 solve."""
    x = factors.solve(b)
    for _ in range(REFINE_STEPS):
        x += factors.solve(b - A @ x)
    return x


def fixed_order_dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b for 1-D float arrays, summed in an order that does not depend
    on the BLAS thread count, unlike `a @ b` (BLAS ddot).  The long sums
    that reach an artifact are taken by it, so that reruns are
    byte-identical at any thread count (reproducible summation: Demmel &
    Nguyen 2013)."""
    return float(np.einsum("i,i", a, b))


def preconditioned_cg(A, b, preconditioner, rtol, maxiter):
    """(x, iterations): conjugate gradients on the float64 system A x = b,
    from x = 0, preconditioned by `preconditioner.solve`, which approximates
    A^-1: the `Float32Factors` of a nearby matrix, such as A at an earlier
    iterate or another damping (an inexact Newton step: Dembo, Eisenstat &
    Steihaug 1982), or a `RingPreconditioner`.  A is anything with a
    product `A @ p`: a sparse matrix, or a `LinearOperator`.

    x is returned once |b - A x| <= rtol |b|, measured on the recurred
    residual, within `maxiter` iterations; it is None on a miss: the cap
    reached, p.Ap <= 0 (A is not positive definite along p) or a
    non-finite value.  `iterations` counts the preconditioned products
    made, on a miss too."""
    x = np.zeros_like(b)
    r = b.copy()
    bound = rtol * math.sqrt(fixed_order_dot(b, b))
    p = rz = None
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(maxiter + 1):
            if math.sqrt(fixed_order_dot(r, r)) <= bound:
                return x, k
            if k == maxiter:
                break
            z = preconditioner.solve(r)
            rz_next = fixed_order_dot(r, z)
            p = z if p is None else z + (rz_next / rz) * p
            rz = rz_next
            Ap = A @ p
            pAp = fixed_order_dot(p, Ap)
            if not 0 < pAp < math.inf or not math.isfinite(rz):
                return None, k + 1
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
    return None, maxiter


def harmonic_capacity(mesh: TriMesh, loop0, loop1):
    """(energy, phi): the Dirichlet energy of the harmonic potential phi
    with phi = 0 on loop0 and phi = 1 on loop1 (both must be boundary loops
    of the mesh), and phi itself.

    In two dimensions this energy also equals the module of the family of
    curves connecting the two boundary components.

    The system is the free block of the cotangent Laplacian, from the
    per-triangle stiffness S of `_stiffness_pass`.  On a `RingGrid` of two
    strips or more, whose boundary loops are rings 0 and nv, no matrix is
    assembled: `preconditioned_cg` runs in float64 to a relative residual
    of RING_CG_TOL on the block's product with a vector, summed per
    triangle from S, preconditioned by the `RingPreconditioner` summed
    from S: 2 iterations on the 256x128 catenoid, whose block is its own
    ring average up to rounding, and 14 on the offset-0.3 annulus the
    solver makes at 96x48.  Any other mesh, and a ring grid whose
    conjugate gradients miss within RING_CG_MAX_ITERATIONS or whose ring
    average does not factor, has the block assembled as a CSC matrix,
    factored in float32 by `factor_float32` and refined against itself in
    float64 by `refine`; the factors live only for this call.  On the
    256x128 catenoid phi is within about 2e-14 of a float64
    factorization's, and the energy within about 2e-14 relative; factored
    and refined, they are within 1e-13 and 1e-14.  Warns when phi leaves
    [0, 1] by more than 1e-9, which the discrete maximum principle forbids
    on a mesh whose cotangent weights are all positive.
    """
    loop0 = np.asarray(loop0, dtype=np.int64)
    loop1 = np.asarray(loop1, dtype=np.int64)
    loop_sets = [frozenset(map(int, lp)) for lp in mesh.boundary_loops()]
    given = [frozenset(map(int, lp)) for lp in (loop0, loop1)]
    for name, lp in zip(("loop0", "loop1"), given):
        if lp not in loop_sets:
            raise MeshError(f"{name} is not a boundary loop of this mesh")
    # distinct boundary loops share no vertex: `boundary_loops` rejects branching
    if given[0] == given[1]:
        raise MeshError("loop0 and loop1 are the same boundary loop")

    # Only the corners (3, M) and S (3, 3, M) are kept: the edge arrays
    # would raise the peak memory of the solve.
    stiffness = _stiffness_pass(mesh)
    t, S = stiffness[0], stiffness[-1]
    del stiffness
    nv = mesh.n_vertices
    phi = np.zeros(nv)
    phi[loop1] = 1.0
    free = np.ones(nv, dtype=bool)
    free[loop0] = free[loop1] = False
    n_free = int(free.sum())

    def laplacian_times(x):
        xt = np.take(x, t)
        y = S[:, 0] * xt[0]                           # (3, M), summed as
        y += S[:, 1] * xt[1]                          # (S0 x0 + S1 x1) + S2 x2
        y += S[:, 2] * xt[2]
        return np.bincount(t.ravel(), weights=y.ravel(), minlength=nv)

    rhs = -laplacian_times(phi)[free]
    sol = None
    grid = RingGrid.of(mesh)
    if grid is not None and grid.nv > 1:
        try:
            ring = RingPreconditioner(grid, S)
        except np.linalg.LinAlgError:   # the ring average does not factor
            pass
        else:
            inner = slice(grid.nu, nv - grid.nu)     # the free rings 1 .. nv - 1

            def free_block_times(x):     # x is (n_free,) or (n_free, 1)
                full = np.zeros(nv)
                full[inner] = x.ravel()
                return laplacian_times(full)[inner]

            A = spla.LinearOperator((n_free, n_free), matvec=free_block_times, dtype=float)
            sol, _ = preconditioned_cg(A, rhs, ring, RING_CG_TOL, RING_CG_MAX_ITERATIONS)
    if sol is None:
        # A = L[free][:, free], with L the cotangent Laplacian: the sum of S
        # over the corner pairs of triangles whose two corners are both
        # free.  The row numbers are int32, the index type scipy stores;
        # int64 ones would be copied down only after the full-size index
        # arrays exist.
        row = (np.cumsum(free, dtype=np.int32) - 1)[t]
        pair = free[t][:, None, :] & free[t][None, :, :]
        A = sp.csc_matrix((S[pair], (np.broadcast_to(row[:, None, :], S.shape)[pair],
                                     np.broadcast_to(row[None, :, :], S.shape)[pair])),
                          shape=(n_free, n_free))
        try:
            sol = refine(factor_float32(A), A, rhs)
        except RuntimeError as exc:  # exactly singular: disconnected mesh etc.
            raise MeshError(f"harmonic solve failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise MeshError("harmonic solve produced non-finite values (singular system)")
    phi[free] = sol
    if phi.min() < -1e-9 or phi.max() > 1.0 + 1e-9:
        warnings.warn(
            "discrete maximum principle violated "
            f"(range [{phi.min():.3e}, {phi.max():.3e}]); "
            "mesh has negative cotangent weights",
            stacklevel=2,
        )
    return fixed_order_dot(phi, laplacian_times(phi)), phi


# ---------------------------------------------------------------------------
# OBJ interface


def write_obj(mesh: TriMesh, path) -> None:
    """ASCII OBJ subset (v/f records, 1-based indices, 17 significant digits)."""
    v, t = mesh.vertices, mesh.triangles + 1
    with open(path, "w", newline="\n") as fh:
        fh.write(("v %.17g %.17g %.17g\n" * len(v)) % tuple(v.ravel().tolist()))
        fh.write(("f %d %d %d\n" * len(t)) % tuple(t.ravel().tolist()))


def _parse_obj_blocks(data: bytes):
    """Parse OBJ bytes laid out as `write_obj` writes them: ASCII, a block
    of "v " lines, then a block of "f " lines with no "/" in it, LF or CRLF
    line ends.  The layout is checked by counting substrings, and each
    block is parsed by one `np.loadtxt` over the bytes, which also checks
    that every row is a tag and three numbers.  Return (vertices, 0-based
    triangles), or None for any other file or a block that fails to parse."""
    if not (data.startswith(b"v ") and data.isascii()):
        return None
    f0 = data.find(b"\nf ") + 1
    if not f0 or data.find(b"/", f0) >= 0:     # a "/" would fail the parse
        return None
    n_v = data.count(b"\n", 0, f0)
    n_f = data.count(b"\n", f0) + (not data.endswith(b"\n"))
    if data.count(b"\nv ", 0, f0) + 1 != n_v or data.count(b"\nf ", f0) + 1 != n_f:
        return None
    fh = io.BytesIO(data)
    try:
        verts = np.loadtxt(fh, _OBJ_VERTEX_ROW, comments=None, max_rows=n_v, ndmin=1)
        fh.seek(f0)
        tris = np.loadtxt(fh, _OBJ_FACE_ROW, comments=None, ndmin=1)
    except ValueError:
        return None
    # "- 1" wraps int64's lowest index to its highest: out of range either way
    return verts["xyz"], tris["idx"] - 1


def _parse_obj_lines(path, data: bytes):
    """Parse OBJ bytes line by line into vertices and 0-based triangles;
    raise the MeshError of the first bad line.  The bytes are decoded as
    UTF-8, with or without a byte-order mark, a byte that is not UTF-8
    becoming U+FFFD, and split into lines as text-mode reading splits them.
    Each line is classified by its first whitespace-separated token;
    comments, blank lines and other record types are skipped, and the
    "/vt/vn" suffixes of face indices are dropped.  A face index is checked
    against the number of vertices in the whole file, after every record
    has parsed."""
    text = data.decode("utf-8-sig", errors="replace")
    if "\r" in text:   # line ends as text-mode reading translates them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    verts, tris, flines = [], [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts or parts[0] not in ("v", "f"):
            continue
        if parts[0] == "v":
            if len(parts) != 4:
                raise MeshError(f"{path}:{lineno}: malformed vertex record")
            try:
                verts.append([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise MeshError(f"{path}:{lineno}: bad vertex coordinate") from exc
        else:
            if len(parts) != 4:
                raise MeshError(f"{path}:{lineno}: only triangular faces supported")
            try:
                tris.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
            except ValueError as exc:
                raise MeshError(f"{path}:{lineno}: bad face index") from exc
            flines.append(lineno)
    if not verts or not tris:
        raise MeshError(f"{path}: no v/f records found")
    for lineno, idx in zip(flines, tris):
        if not 0 <= min(idx) <= max(idx) < len(verts):
            raise MeshError(f"{path}:{lineno}: face index out of range")
    return np.array(verts), np.array(tris, dtype=np.int64)


def read_obj(path) -> TriMesh:
    """Read the v and f records of an OBJ file.  A file laid out as
    `write_obj` writes it, with every face index in range, is parsed in
    bulk by `_parse_obj_blocks`, with no Python object per line.  Any other
    file takes `_parse_obj_lines`, the source of every error; each error
    names the file, and the 1-based line where there is one.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    parsed = _parse_obj_blocks(data)
    if parsed is not None:
        verts, tris = parsed
        if tris.min() >= 0 and tris.max() < len(verts):
            return TriMesh(verts, tris)
    return TriMesh(*_parse_obj_lines(path, data))
