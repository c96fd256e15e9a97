"""Shared fixtures: analytic catenoid bands at the acceptance resolutions,
a rotated band whose ends are not level, and solver-produced offset annuli
at two refinement levels; and the reference cotangent stiffness and
Laplacian, unit triangle normals, per-triangle area Hessian blocks,
per-corner angle sums and corner-major vertex sums the tests check the
stiffness-based operators, the solver's pair sums and the corner pass
against; the directed edges and the searchsorted boundary walk that
`TriMesh.boundary_loops` is checked against; and a vertex relabelling
that takes a mesh off its ring grid.

Solves are session-scoped because the two annulus solves take about 1.9 s
together on a 2-core x86 machine, 0.5 s of it the 256x128 one; every test
sees the same converged meshes.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from mintube import solver, surfaces
from mintube.mesh import MeshError, TriMesh


def cot_stiffness(mesh):
    """Reference per-triangle cotangent stiffness, from (M, 3 corners, 3)
    arrays: out[m, i, j] = 0.5 (e_i . e_j) / |n| with e_i the edge opposite
    corner i and n the normal of triangle m: the triangle-major form that
    `mesh._stiffness_pass` replaced.  An off-diagonal entry is minus half
    the cotangent of the angle at the third corner, and each row sums to
    zero.  A floor on |n| keeps degenerate triangles finite."""
    p = mesh.vertices[mesh.triangles]                 # (M, 3 corners, 3)
    e = np.roll(p, -1, axis=1) - np.roll(p, -2, axis=1)
    nn = np.linalg.norm(np.cross(e[:, 0], e[:, 1]), axis=1)
    return (e @ e.transpose(0, 2, 1)) * (0.5 / np.maximum(nn, 1e-300))[:, None, None]


def triangle_normals(mesh):
    """(M, 3) unit normals of the triangles, (p1 - p0) x (p2 - p0)
    normalized."""
    p0, p1, p2 = mesh.triangle_corners()
    n = np.cross(p1 - p0, p2 - p0)
    return n / np.linalg.norm(n, axis=1)[:, None]


def area_hessian_blocks(S, nh):
    """Exact second derivative of total triangle area, as per-triangle
    blocks, from the stiffness S and unit normals nh: out[m, i, j] is the
    3x3 block coupling corner i to corner j of triangle m, the per-triangle
    form that the solver's per-pair sums replaced.  Block (j, i) is the
    transpose of block (i, j) bit for bit, since S is symmetric and [nh]x
    antisymmetric.

    The block is S_ij nh nh^T + k_ij [nh]x with k_ii = 0, k_{i,i+1} = -1/2
    and k_{i,i+2} = +1/2: along the normal the second variation of area is
    the Dirichlet energy (Pinkall & Polthier 1993), and its in-plane part
    cancels."""
    blocks = S[:, :, :, None, None] * (nh[:, :, None] * nh[:, None, :])[:, None, None]
    half_nx = 0.5 * np.cross(np.eye(3), nh[:, None, :])     # 0.5 [nh]x
    for i in range(3):
        blocks[:, i, (i + 1) % 3] -= half_nx
        blocks[:, i, (i + 2) % 3] += half_nx
    return blocks


def vertex_sums(mesh, corner_values):
    """Sum (M, 3, ...) per-corner values onto the vertices.  The scatter
    runs corner-major (corner 0 of every triangle, then corner 1, then 2),
    so each vertex accumulates its terms in a fixed order, as the scatters
    of `mesh.corner_sums` and `mesh.edge_geometry` do."""
    vals = np.moveaxis(corner_values, 1, 0).reshape(3 * len(mesh.triangles), -1)
    d = vals.shape[1]
    idx = mesh.triangles.T.reshape(-1, 1) * d + np.arange(d)
    out = np.bincount(idx.ravel(), weights=vals.ravel(), minlength=mesh.n_vertices * d)
    return out.reshape((mesh.n_vertices,) + corner_values.shape[2:])


def cot_laplacian(mesh, S=None):
    """Reference cotangent Laplacian L (positive semidefinite, L @ 1 = 0),
    summed from the per-triangle stiffness S, (M, 3, 3) and by default
    `cot_stiffness`, into an n x n CSR matrix, and the barycentric vertex
    areas.  phi^T L phi is the Dirichlet energy."""
    t = mesh.triangles
    nv = mesh.n_vertices
    if S is None:
        S = cot_stiffness(mesh)
    L = sp.csr_matrix(
        (S.ravel(), (np.broadcast_to(t[:, :, None], S.shape).ravel(),
                     np.broadcast_to(t[:, None, :], S.shape).ravel())),
        shape=(nv, nv),
    )
    mass = vertex_sums(mesh, np.repeat(mesh.triangle_areas()[:, None] / 3.0, 3, axis=1))
    return L, mass


def corner_angles(mesh):
    """(M, 3) interior angle of each triangle at each of its corners, from
    (M, 3 corners, 3) arrays: the per-corner form `mesh.corner_sums`
    replaced."""
    p = mesh.vertices[mesh.triangles]
    a = np.roll(p, -1, axis=1) - p
    b = np.roll(p, -2, axis=1) - p
    cosang = np.einsum("mkj,mkj->mk", a, b) / (
        np.linalg.norm(a, axis=2) * np.linalg.norm(b, axis=2))
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def corner_sums(mesh):
    """Reference for `mesh.corner_sums`: the angle-weighted unit vertex
    normals and the per-vertex angle sums, from `corner_angles`."""
    angles = corner_angles(mesh)
    normals = vertex_sums(mesh, angles[:, :, None] * triangle_normals(mesh)[:, None, :])
    return normals / np.linalg.norm(normals, axis=1)[:, None], vertex_sums(mesh, angles)


def directed_edges(mesh):
    """(3 M, 2): the directed edges (t0, t1), (t1, t2), (t2, t0) of every
    triangle, edge-major."""
    t = mesh.triangles
    return np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])


def boundary_loops(mesh):
    """Reference for `TriMesh.boundary_loops`, the form it replaced: the
    sorted keys a n + b of the directed edges, searched for each edge's
    reverse b n + a; the edges without one, walked from each smallest
    start vertex.  Raises the same MeshError where the boundary branches."""
    n = mesh.n_vertices
    de = directed_edges(mesh)
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
    return loops


def relabelled(mesh, seed=0):
    """`mesh` with its vertices renumbered by a random permutation: the same
    surface, no longer laid out as a `RingGrid`."""
    perm = np.random.default_rng(seed).permutation(mesh.n_vertices)
    return TriMesh(mesh.vertices[perm], np.argsort(perm)[mesh.triangles])


def catenoid(a, v_min, v_max, nu, nv):
    return surfaces.catenoid_mesh(surfaces.CatenoidSpec(a, v_min, v_max, nu, nv))


def rotated_catenoid(beta, nu, nv):
    """The a = 1 catenoid band over [-1, 1] rotated by beta about the
    x1-axis: a minimal tube with flow vector 2 pi (0, -sin beta, cos beta),
    so alpha = beta, whose boundary loops are not level."""
    c, s = math.cos(beta), math.sin(beta)
    rotation = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    band = catenoid(1.0, -1.0, 1.0, nu, nv)
    return TriMesh(band.vertices @ rotation.T, band.triangles)


@pytest.fixture(scope="session")
def catenoid_fine():
    """a=1 band over [-1, 1] at the acceptance resolution."""
    return catenoid(1.0, -1.0, 1.0, 256, 128)


@pytest.fixture(scope="session")
def catenoid_fine_a2():
    return catenoid(2.0, -1.0, 1.0, 256, 128)


@pytest.fixture(scope="session")
def catenoid_coarse():
    """One refinement level below catenoid_fine."""
    return catenoid(1.0, -1.0, 1.0, 128, 64)


@pytest.fixture(scope="session")
def catenoid_wide():
    """a=1 band over the doubled slab [-2, 2], same vertical density."""
    return catenoid(1.0, -2.0, 2.0, 256, 256)


def offset_problem(nu, nv):
    return solver.AnnulusProblem(
        solver.Circle((0.0, 0.0, 0.0), 1.0),
        solver.Circle((0.3, 0.0, 1.0), 1.0),
        nu=nu, nv=nv,
    )


@pytest.fixture(scope="session")
def annulus_coarse():
    """(mesh, report) for the offset-0.3 problem at 128x64."""
    return solver.solve_annulus(offset_problem(128, 64))


@pytest.fixture(scope="session")
def annulus_fine():
    """(mesh, report) for the offset-0.3 problem at 256x128."""
    return solver.solve_annulus(offset_problem(256, 128))


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
