"""Oriented triangle meshes in R^3 and the discrete operators used on them:
plane slicing into cross-section cycles, vertex normals, angle-defect
curvature, the cotangent stiffness and Dirichlet-energy capacity.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

E3 = np.array([0.0, 0.0, 1.0])

DEGENERATE_AREA_FACTOR = 1e-14
SNAP_REL_TOL = 1e-9
NUDGE_REL = 1e-7
_OBJ_SLASH_SUFFIX = re.compile(r"(?<=\S)/\S*")


class MeshError(ValueError):
    """Mesh fails a structural requirement (manifoldness, orientation, ...)."""


class SliceError(ValueError):
    """Plane section of the mesh could not be extracted."""


@dataclass
class TriMesh:
    """Oriented manifold triangle mesh. Vertices (N, 3); triangles (M, 3)
    with counterclockwise winding defining the normal orientation."""

    vertices: np.ndarray
    triangles: np.ndarray
    _boundary_loops: list | None = field(default=None, repr=False, compare=False)

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

    def triangle_normals(self) -> np.ndarray:
        p0, p1, p2 = self.triangle_corners()
        n = np.cross(p1 - p0, p2 - p0)
        return n / np.linalg.norm(n, axis=1)[:, None]

    def triangle_areas(self) -> np.ndarray:
        p0, p1, p2 = self.triangle_corners()
        return 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)

    def area(self) -> float:
        return float(self.triangle_areas().sum())

    def bbox_diagonal(self) -> float:
        return float(np.linalg.norm(self.vertices.max(0) - self.vertices.min(0)))

    def mean_edge_length(self) -> float:
        p0, p1, p2 = self.triangle_corners()
        e = np.concatenate([p1 - p0, p2 - p1, p0 - p2])
        return float(np.linalg.norm(e, axis=1).mean())

    def x3_range(self):
        return float(self.vertices[:, 2].min()), float(self.vertices[:, 2].max())

    # -- topology ---------------------------------------------------------
    def _directed_edges(self) -> np.ndarray:
        t = self.triangles
        return np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])

    def validate(self, tube_axis_check: bool = False) -> None:
        """Check finiteness, manifoldness, orientation and non-degeneracy;
        raise MeshError."""
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise MeshError(f"vertex {bad} has a non-finite coordinate")
        areas = self.triangle_areas()
        thresh = DEGENERATE_AREA_FACTOR * self.bbox_diagonal() ** 2
        if np.any(areas <= thresh):
            bad = int(np.argmin(areas))
            raise MeshError(f"degenerate triangle {bad} (area {areas[bad]:.3e})")
        de = self._directed_edges()
        keys = de[:, 0] * self.n_vertices + de[:, 1]
        uniq, counts = np.unique(keys, return_counts=True)
        if np.any(counts > 1):
            k = int(uniq[np.argmax(counts > 1)])
            raise MeshError(
                f"directed edge ({k // self.n_vertices}, {k % self.n_vertices}) "
                "repeats: mesh is non-manifold or inconsistently oriented"
            )
        if tube_axis_check:
            tol = 1e-6 * (self.x3_range()[1] - self.x3_range()[0])
            for loop in self.boundary_loops():
                z = self.vertices[loop, 2]
                if z.max() - z.min() > tol:
                    raise MeshError("boundary loop is not horizontal")

    def boundary_loops(self) -> list:
        """Ordered vertex cycles of the boundary (directed edges without a
        reverse partner), each starting at its smallest vertex and listed by
        start vertex; cached."""
        if self._boundary_loops is None:
            n = self.n_vertices
            de = self._directed_edges()
            keys = np.sort(de[:, 0] * n + de[:, 1])
            rev = de[:, 1] * n + de[:, 0]
            a, b = de[keys[np.searchsorted(keys, rev) % len(keys)] != rev].T
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

    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, dtype=bool)
        for loop in self.boundary_loops():
            mask[loop] = True
        return mask


def corner_angles(mesh: TriMesh) -> np.ndarray:
    """(M, 3) interior angle of each triangle at each of its corners."""
    p = mesh.vertices[mesh.triangles]                 # (M, 3 corners, 3)
    a = np.roll(p, -1, axis=1) - p
    b = np.roll(p, -2, axis=1) - p
    cosang = np.einsum("mkj,mkj->mk", a, b) / (
        np.linalg.norm(a, axis=2) * np.linalg.norm(b, axis=2))
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def _vertex_sums(mesh: TriMesh, corner_values: np.ndarray) -> np.ndarray:
    """Sum (M, 3, ...) per-corner values onto the vertices.  The scatter
    runs corner-major (corner 0 of every triangle, then corner 1, then 2),
    so each vertex accumulates its terms in a fixed order."""
    vals = np.moveaxis(corner_values, 1, 0).reshape(3 * len(mesh.triangles), -1)
    d = vals.shape[1]
    idx = mesh.triangles.T.reshape(-1, 1) * d + np.arange(d)
    out = np.bincount(idx.ravel(), weights=vals.ravel(), minlength=mesh.n_vertices * d)
    return out.reshape((mesh.n_vertices,) + corner_values.shape[2:])


def vertex_normals(mesh: TriMesh) -> np.ndarray:
    """Angle-weighted average of incident triangle normals, normalized."""
    fn = mesh.triangle_normals()
    normals = _vertex_sums(mesh, corner_angles(mesh)[:, :, None] * fn[:, None, :])
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms < 1e-14):
        raise MeshError("vertex with zero-area star")
    return normals / norms[:, None]


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
    requested_level: float
    closed: bool
    midpoints: np.ndarray = field(repr=False)
    tangents: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    conormals: np.ndarray = field(repr=False)
    ds: np.ndarray = field(repr=False)

    @property
    def n_segments(self) -> int:
        return len(self.ds)

    def length(self) -> float:
        return float(self.ds.sum())

    def check_invariants(self, tol: float = 1e-8) -> None:
        if np.max(np.abs(np.einsum("ij,ij->i", self.conormals, self.tangents))) > tol:
            raise SliceError("conormal not orthogonal to the cycle tangent")
        if np.max(np.abs(np.einsum("ij,ij->i", self.conormals, self.normals))) > tol:
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
    return (a + b) / 2.0, tangents, gamma, nu, ds


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
    if normals is None:
        normals = vertex_normals(mesh)

    # Edge k of a triangle runs from corner k to corner k+1; a triangle
    # crosses the plane on 0 or 2 of its edges.
    below = z < level
    ends = np.stack([mesh.triangles, np.roll(mesh.triangles, -1, axis=1)])
    crossed = below[ends[0]] != below[ends[1]]
    if not crossed.any():
        raise SliceError(f"plane x3 = {level} misses the mesh")
    lo, hi = np.sort(ends[:, crossed], axis=0)
    keys, seg_nodes = np.unique(lo * mesh.n_vertices + hi, return_inverse=True)
    seg_nodes = seg_nodes.reshape(-1, 2)

    # Intersection point and interpolated unit normal per crossed edge.
    lo, hi = np.divmod(keys, mesh.n_vertices)
    s = ((level - z[lo]) / (z[hi] - z[lo]))[:, None]
    points = (1 - s) * mesh.vertices[lo] + s * mesh.vertices[hi]
    nrm = (1 - s) * normals[lo] + s * normals[hi]
    # Per-row matmul rounds like np.dot; norm(axis=1) and einsum can differ
    # in the last bit, which would change the bytes of the slice tables.
    nn = np.sqrt((nrm[:, None, :] @ nrm[:, :, None]).ravel())
    if np.any(nn < 1e-12):
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
            mids, tans, gamma, nu, ds = _segment_frames(pts, seg_normals, closed)
            if not np.linalg.det(np.stack([tans[0], nu[0], gamma[0]])) < 0:
                break
        cyc = CrossSectionCycle(pts, level, t, closed, mids, tans, gamma, nu, ds)
        cyc.check_invariants()
        cycles.append(cyc)
    cycles.sort(key=lambda c: (round(c.length(), 12), c.points[0, 0]))
    return cycles


# ---------------------------------------------------------------------------
# Gauss image and curvature


def gauss_image_diameter(normals) -> float:
    """Spherical diameter of a set of unit normals (exact pairwise scan)."""
    nrm = np.asarray(normals, dtype=float)
    if nrm.ndim == 1:
        nrm = nrm[None, :]
    if len(nrm) == 0:
        raise ValueError("need at least one normal")
    dots = np.clip(nrm @ nrm.T, -1.0, 1.0)
    return float(np.arccos(dots.min()))


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


def angle_defects(mesh: TriMesh):
    """Per-vertex angle defect 2*pi - sum(incident angles), plus the mask of
    interior vertices where the defect approximates the curvature measure."""
    defects = 2.0 * math.pi - _vertex_sums(mesh, corner_angles(mesh))
    return defects, ~mesh.boundary_vertex_mask()


def total_curvature(mesh: TriMesh):
    """(G, clamped): the total absolute Gaussian curvature G = integral of
    -K, via angle defects at interior vertices, and the total of the
    positive defects (impossible on an exact minimal surface, present as
    discretization noise), which G leaves out."""
    defects, interior = angle_defects(mesh)
    d = defects[interior]
    return float(-d[d < 0].sum()), float(d[d > 0].sum())


# ---------------------------------------------------------------------------
# Cotangent stiffness and capacity


def cot_stiffness(mesh: TriMesh) -> np.ndarray:
    """Per-triangle cotangent stiffness: out[m, i, j] = 0.5 (e_i . e_j) / |n|
    with e_i the edge opposite corner i and n the normal of triangle m.

    An off-diagonal entry is minus half the cotangent of the angle at the
    third corner, and each row sums to zero.  A floor on |n| keeps
    degenerate triangles finite.
    """
    p = mesh.vertices[mesh.triangles]                 # (M, 3 corners, 3)
    e = np.roll(p, -1, axis=1) - np.roll(p, -2, axis=1)
    nn = np.linalg.norm(np.cross(e[:, 0], e[:, 1]), axis=1)
    return (e @ e.transpose(0, 2, 1)) * (0.5 / np.maximum(nn, 1e-300))[:, None, None]


def factor_symmetric(A, ordered: bool = False):
    """SuperLU factorization of a sparse CSC matrix with symmetric structure
    and a safe diagonal (symmetric positive definite, or close to it):
    minimum-degree ordering on A^T + A and diagonal pivots, which keeps the
    fill of a symmetric factorization.  With `ordered`, A is already laid
    out in such an order (the `perm_c` of an earlier factorization of the
    same pattern) and is factored in its natural order.  Raises RuntimeError
    when a pivot is exactly zero."""
    return spla.splu(A, permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def harmonic_capacity(mesh: TriMesh, loop0, loop1):
    """(energy, phi): the Dirichlet energy of the harmonic potential phi
    with phi = 0 on loop0 and phi = 1 on loop1 (both must be boundary loops
    of the mesh), and phi itself.

    In two dimensions this energy also equals the module of the family of
    curves connecting the two boundary components.
    """
    loop0 = np.asarray(loop0, dtype=np.int64)
    loop1 = np.asarray(loop1, dtype=np.int64)
    loop_sets = [frozenset(map(int, lp)) for lp in mesh.boundary_loops()]
    for name, lp in (("loop0", loop0), ("loop1", loop1)):
        if frozenset(map(int, lp)) not in loop_sets:
            raise MeshError(f"{name} is not a boundary loop of this mesh")
    if set(map(int, loop0)) & set(map(int, loop1)):
        raise MeshError("boundary loops overlap")

    t = mesh.triangles
    S = cot_stiffness(mesh)
    phi = np.zeros(mesh.n_vertices)
    phi[loop1] = 1.0
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[loop0] = free[loop1] = False
    # A = L[free][:, free], with L the cotangent Laplacian: the sum of S
    # over the corner pairs of triangles whose two corners are both free.
    # The row numbers are int32, the index type scipy stores; int64 ones
    # would be copied down only after the full-size index arrays exist.
    row = (np.cumsum(free, dtype=np.int32) - 1)[t]
    pair = free[t][:, :, None] & free[t][:, None, :]
    n_free = int(free.sum())
    A = sp.csc_matrix((S[pair], (np.broadcast_to(row[:, :, None], S.shape)[pair],
                                 np.broadcast_to(row[:, None, :], S.shape)[pair])),
                      shape=(n_free, n_free))

    def laplacian_times(x):
        return _vertex_sums(mesh, (S @ x[t][:, :, None])[:, :, 0])

    rhs = -laplacian_times(phi)[free]
    try:
        sol = factor_symmetric(A).solve(rhs)
    except Exception as exc:  # singular system: disconnected mesh etc.
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
    return float(phi @ laplacian_times(phi)), phi


# ---------------------------------------------------------------------------
# OBJ interface


def write_obj(mesh: TriMesh, path) -> None:
    """ASCII OBJ subset (v/f records, 1-based indices, 17 significant digits)."""
    v, t = mesh.vertices, mesh.triangles + 1
    with open(path, "w", newline="\n") as fh:
        fh.write(("v %.17g %.17g %.17g\n" * len(v)) % tuple(v.ravel().tolist()))
        fh.write(("f %d %d %d\n" * len(t)) % tuple(t.ravel().tolist()))


def _parse_obj_records(path, records):
    """Parse (line number, tag, text after the tag) OBJ records one at a
    time, in line order, into vertices and 0-based triangles; raise the
    MeshError of the first bad record."""
    verts, tris = [], []
    for lineno, tag, text in records:
        parts = text.split()
        if tag == "v":
            if len(parts) != 3:
                raise MeshError(f"{path}:{lineno}: malformed vertex record")
            try:
                verts.append([float(x) for x in parts])
            except ValueError as exc:
                raise MeshError(f"{path}:{lineno}: bad vertex coordinate") from exc
        else:
            if len(parts) != 3:
                raise MeshError(f"{path}:{lineno}: only triangular faces supported")
            try:
                tris.append([int(p.split("/")[0]) - 1 for p in parts])
            except ValueError as exc:
                raise MeshError(f"{path}:{lineno}: bad face index") from exc
    return np.array(verts), np.array(tris, dtype=np.int64)


def read_obj(path) -> TriMesh:
    """Read the v and f records of an ASCII OBJ file.  Each line is
    classified by its first whitespace-separated token; comments, blank
    lines and other record types are skipped, and the "/vt/vn" suffixes of
    face indices are dropped.  Errors name the file and the 1-based line;
    a face index is checked against the number of vertices in the whole
    file, after every record has parsed.

    The records of each type are parsed in one `np.loadtxt` pass.  If a
    pass fails, the records are parsed again one at a time, which raises
    the error of the first bad line (or accepts the few spellings, such as
    "1_000", that Python's own number parsing takes and numpy's does not).
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    records = []        # (line number, tag, text after the tag)
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(None, 1)
        if parts and parts[0] in ("v", "f"):
            records.append((lineno, parts[0], parts[1] if len(parts) == 2 else ""))
    vrows = [text for _, tag, text in records if tag == "v"]
    frows = [text for _, tag, text in records if tag == "f"]
    if any("/" in row for row in frows):
        # Cut each index at its first "/"; a token that starts with "/"
        # stays whole and fails the integer parse.
        frows = [_OBJ_SLASH_SUFFIX.sub("", row) for row in frows]
    parsed = False
    if vrows and frows:     # np.loadtxt warns on an empty input
        try:
            verts = np.loadtxt(vrows, comments=None, ndmin=2)
            tris = np.loadtxt(frows, dtype=np.int64, comments=None, ndmin=2) - 1
            # np.loadtxt skips empty rows (a bare "v" or "f" tag), so the
            # row counts are checked as well as the column counts.
            parsed = verts.shape == (len(vrows), 3) and tris.shape == (len(frows), 3)
        except ValueError:
            pass
    if not parsed:
        verts, tris = _parse_obj_records(path, records)
    if not len(verts) or not len(tris):
        raise MeshError(f"{path}: no v/f records found")
    if tris.min() < 0 or tris.max() >= len(verts):
        bad = np.flatnonzero(((tris < 0) | (tris >= len(verts))).any(axis=1))[0]
        flines = [lineno for lineno, tag, _ in records if tag == "f"]
        raise MeshError(f"{path}:{flines[bad]}: face index out of range")
    return TriMesh(verts, tris)
