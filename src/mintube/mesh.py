"""Oriented triangle meshes in R^3 and the discrete operators used on them:
plane slicing into cross-section cycles, vertex normals, angle-defect
curvature, the cotangent Laplacian and Dirichlet-energy capacity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

E3 = np.array([0.0, 0.0, 1.0])

DEGENERATE_AREA_FACTOR = 1e-14
SNAP_REL_TOL = 1e-9
NUDGE_REL = 1e-7


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

    def triangle_normals(self, normalized: bool = True) -> np.ndarray:
        p0, p1, p2 = self.triangle_corners()
        n = np.cross(p1 - p0, p2 - p0)
        if normalized:
            n = n / np.linalg.norm(n, axis=1)[:, None]
        return n

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
        """Check manifoldness, orientation and non-degeneracy; raise MeshError."""
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

    below = z < level
    tri_below = below[mesh.triangles]
    crossing = np.where(tri_below.any(1) & ~tri_below.all(1))[0]
    if len(crossing) == 0:
        raise SliceError(f"plane x3 = {level} misses the mesh")

    # Intersection point and interpolated normal per crossed undirected edge.
    edge_points: dict = {}

    def edge_key(i, j):
        return (i, j) if i < j else (j, i)

    seg_edges = []  # per crossing triangle: its two crossed edge keys
    for ti in crossing:
        tri = mesh.triangles[ti]
        keys = []
        for k in range(3):
            i, j = int(tri[k]), int(tri[(k + 1) % 3])
            if below[i] != below[j]:
                key = edge_key(i, j)
                if key not in edge_points:
                    s = (level - z[key[0]]) / (z[key[1]] - z[key[0]])
                    p = (1 - s) * mesh.vertices[key[0]] + s * mesh.vertices[key[1]]
                    nrm = (1 - s) * normals[key[0]] + s * normals[key[1]]
                    nn = np.linalg.norm(nrm)
                    if nn < 1e-12:
                        raise SliceError("interpolated normal vanished on a slice edge")
                    edge_points[key] = (p, nrm / nn)
                keys.append(key)
        if len(keys) != 2:
            raise SliceError(f"triangle {int(ti)} crossed the plane degenerately")
        seg_edges.append(tuple(keys))

    # Chain segments into polylines: nodes are crossed edges, each touching
    # at most two segments (manifoldness of the section).
    by_edge: dict = {}
    for si, (ka, kb) in enumerate(seg_edges):
        by_edge.setdefault(ka, []).append(si)
        by_edge.setdefault(kb, []).append(si)
    if any(len(v) > 2 for v in by_edge.values()):
        raise SliceError("non-manifold plane section")

    def walk(start_key, unused):
        keys = [start_key]
        while True:
            cands = [s for s in by_edge[keys[-1]] if s in unused]
            if not cands:
                return keys, False
            si = cands[0]
            unused.discard(si)
            ka, kb = seg_edges[si]
            nxt = kb if ka == keys[-1] else ka
            if nxt == keys[0]:
                return keys, True
            keys.append(nxt)

    unused = set(range(len(seg_edges)))
    endpoints = sorted(k for k, v in by_edge.items() if len(v) == 1)
    cycles = []
    chains = []
    for key in endpoints:
        if any(s in unused for s in by_edge[key]):
            chains.append(walk(key, unused))
    while unused:
        si = min(unused)
        chains.append(walk(seg_edges[si][0], unused))

    for chain_keys, closed in chains:
        pts = np.array([edge_points[k][0] for k in chain_keys])
        nrms = np.array([edge_points[k][1] for k in chain_keys])
        nseg = len(pts) if closed else len(pts) - 1
        idx = np.arange(nseg)
        seg_normals = (nrms[idx] + nrms[(idx + 1) % len(pts)]) / 2.0
        mids, tans, gamma, nu, ds = _segment_frames(pts, seg_normals, closed)
        # Orient the chain so (tangent, conormal, normal) is right-handed.
        if np.linalg.det(np.stack([tans[0], nu[0], gamma[0]])) < 0:
            pts = pts[::-1].copy()
            nrms = nrms[::-1].copy()
            seg_normals = (nrms[idx] + nrms[(idx + 1) % len(pts)]) / 2.0
            mids, tans, gamma, nu, ds = _segment_frames(pts, seg_normals, closed)
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
    consecutive segment normals (closed cycles only)."""
    if not cycle.closed:
        raise ValueError("Gauss image length is defined for closed cycles")
    g = cycle.normals
    dots = np.clip(np.einsum("ij,ij->i", g, np.roll(g, -1, axis=0)), -1.0, 1.0)
    return float(np.arccos(dots).sum())


def angle_defects(mesh: TriMesh):
    """Per-vertex angle defect 2*pi - sum(incident angles), plus the mask of
    interior vertices where the defect approximates the curvature measure."""
    defects = 2.0 * math.pi - _vertex_sums(mesh, corner_angles(mesh))
    return defects, ~mesh.boundary_vertex_mask()


def total_curvature(mesh: TriMesh, return_clamped: bool = False):
    """Total absolute Gaussian curvature G = integral of -K, via angle
    defects at interior vertices.  Positive defects (impossible on an exact
    minimal surface, present as discretization noise) are clamped to zero;
    their total is available as a diagnostic."""
    defects, interior = angle_defects(mesh)
    d = defects[interior]
    G = float(-d[d < 0].sum())
    clamped = float(d[d > 0].sum())
    if return_clamped:
        return G, clamped
    return G


# ---------------------------------------------------------------------------
# Cotangent Laplacian, mass and capacity


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


def cot_laplacian(mesh: TriMesh):
    """Cotangent-weight Laplacian L (positive semidefinite, L @ 1 = 0) and
    barycentric vertex areas.  phi^T L phi is the Dirichlet energy."""
    t = mesh.triangles
    nv = mesh.n_vertices
    S = cot_stiffness(mesh)
    L = sp.csr_matrix(
        (S.ravel(), (np.broadcast_to(t[:, :, None], S.shape).ravel(),
                     np.broadcast_to(t[:, None, :], S.shape).ravel())),
        shape=(nv, nv),
    )
    mass = _vertex_sums(mesh, np.repeat(mesh.triangle_areas()[:, None] / 3.0, 3, axis=1))
    return L, mass


def dirichlet_energy(mesh: TriMesh, phi: np.ndarray, L=None) -> float:
    if L is None:
        L, _ = cot_laplacian(mesh)
    return float(phi @ (L @ phi))


def harmonic_capacity(mesh: TriMesh, loop0, loop1, return_potential: bool = False):
    """Dirichlet energy of the harmonic potential with phi = 0 on loop0 and
    phi = 1 on loop1 (both must be boundary loops of the mesh).

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

    L, _ = cot_laplacian(mesh)
    phi = np.zeros(mesh.n_vertices)
    phi[loop1] = 1.0
    fixed = np.zeros(mesh.n_vertices, dtype=bool)
    fixed[loop0] = True
    fixed[loop1] = True
    free = ~fixed
    A = L[free][:, free].tocsc()
    rhs = -L[free][:, fixed] @ phi[fixed]
    try:
        sol = spla.spsolve(A, rhs)
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
    energy = dirichlet_energy(mesh, phi, L)
    if return_potential:
        return energy, phi
    return energy


# ---------------------------------------------------------------------------
# OBJ and CSV interfaces


def write_obj(mesh: TriMesh, path) -> None:
    """ASCII OBJ subset (v/f records, 1-based indices, 17 significant digits)."""
    with open(path, "w", newline="\n") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def read_obj(path) -> TriMesh:
    verts, tris = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) != 4:
                    raise MeshError(f"{path}:{lineno}: malformed vertex record")
                try:
                    verts.append([float(x) for x in parts[1:]])
                except ValueError as exc:
                    raise MeshError(f"{path}:{lineno}: bad vertex coordinate") from exc
            elif parts[0] == "f":
                if len(parts) != 4:
                    raise MeshError(f"{path}:{lineno}: only triangular faces supported")
                try:
                    idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                except ValueError as exc:
                    raise MeshError(f"{path}:{lineno}: bad face index") from exc
                tris.append(idx)
            # other record types are ignored
    if not verts or not tris:
        raise MeshError(f"{path}: no v/f records found")
    mesh = TriMesh(np.array(verts), np.array(tris, dtype=np.int64))
    if mesh.triangles.max() >= mesh.n_vertices:
        raise MeshError(f"{path}: face index out of range")
    return mesh


def cycles_to_csv(cycles, path) -> None:
    """Per-segment slice table: level, midpoint, tangent, normal, conormal, ds."""
    cols = ("t", "mx", "my", "mz", "tx", "ty", "tz",
            "gx", "gy", "gz", "nux", "nuy", "nuz", "ds")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for cyc in cycles:
            for i in range(cyc.n_segments):
                row = ([cyc.level] + list(cyc.midpoints[i]) + list(cyc.tangents[i])
                       + list(cyc.normals[i]) + list(cyc.conormals[i]) + [cyc.ds[i]])
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
