"""Mesh structure, slicing, curvature, capacity and file round-trips."""

import math

import numpy as np
import pytest

from mintube import mesh as meshmod
from mintube import surfaces
from mintube.mesh import (
    MeshError,
    SliceError,
    TriMesh,
    cot_laplacian,
    dirichlet_energy,
    gauss_image_diameter,
    gauss_image_length,
    harmonic_capacity,
    read_obj,
    slice_mesh,
    total_curvature,
    vertex_normals,
    write_obj,
)


def square_patch():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(verts, tris)


def test_trimesh_shape_validation():
    with pytest.raises(MeshError):
        TriMesh(np.zeros((3, 2)), np.zeros((1, 3), dtype=int))
    with pytest.raises(MeshError):
        TriMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))


def test_validate_catches_degenerate_and_nonmanifold():
    mesh = square_patch()
    mesh.validate()
    bad = TriMesh(mesh.vertices, np.array([[0, 1, 2], [0, 1, 3]]))
    with pytest.raises(MeshError, match="repeats"):
        bad.validate()
    degen = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]),
                    np.array([[0, 1, 2]]))
    with pytest.raises(MeshError, match="degenerate"):
        degen.validate()


def test_boundary_loops_of_annulus():
    mesh = surfaces.flat_annulus_mesh(1.0, 2.0, 32, 8)
    loops = mesh.boundary_loops()
    assert len(loops) == 2
    assert sorted(len(lp) for lp in loops) == [32, 32]
    mask = mesh.boundary_vertex_mask()
    assert mask.sum() == 64


@pytest.mark.parametrize("which", ["flat_annulus", "half_tube"])
def test_boundary_loops_contract(which):
    if which == "flat_annulus":
        mesh, n_loops = surfaces.flat_annulus_mesh(1.0, 2.0, 17, 5), 2
    else:
        mesh, n_loops = half_tube()[1], 1
    directed = {tuple(e) for e in mesh._directed_edges().tolist()}
    boundary = {(a, b) for a, b in directed if (b, a) not in directed}
    loops = mesh.boundary_loops()
    assert len(loops) == n_loops
    walked = set()
    for lp in loops:
        assert lp[0] == lp.min()
        walked |= set(zip(lp.tolist(), np.roll(lp, -1).tolist()))
    assert walked == boundary
    assert [int(lp[0]) for lp in loops] == sorted(int(lp[0]) for lp in loops)


def test_boundary_loops_bowtie_branches():
    # two triangles sharing only vertex 0
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]])
    bowtie = TriMesh(verts, np.array([[0, 1, 2], [0, 3, 4]]))
    with pytest.raises(MeshError, match="boundary branches at vertex 0"):
        bowtie.boundary_loops()


def test_area_and_edge_length():
    mesh = square_patch()
    assert mesh.area() == pytest.approx(1.0)
    assert mesh.bbox_diagonal() == pytest.approx(math.sqrt(2.0))


# -- slicing ----------------------------------------------------------------

def test_slice_catenoid_single_closed_cycle():
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 128, 64))
    cycles = slice_mesh(mesh, 0.25)
    assert len(cycles) == 1
    assert cycles[0].closed
    cycles[0].check_invariants()
    # conormal of the catenoid slice is axial+radial with positive x3 part
    assert np.all(cycles[0].conormals[:, 2] > 0.5)


def test_slice_level_snap_nudge():
    # a vertex ring sits exactly at the neck level z=0
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 64, 32))
    (cycle,) = slice_mesh(mesh, 0.0)
    assert cycle.requested_level == 0.0
    assert cycle.level != 0.0
    assert abs(cycle.level) < 1e-6


def test_slice_outside_range_raises():
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 64, 32))
    with pytest.raises(SliceError):
        slice_mesh(mesh, 2.0)


def test_slice_orientation_right_handed():
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 128, 64))
    for cycle in slice_mesh(mesh, 0.3):
        for i in (0, cycle.n_segments // 2):
            frame = np.stack([cycle.tangents[i], cycle.conormals[i], cycle.normals[i]])
            assert np.linalg.det(frame) > 0.9


def half_tube():
    """A 64x32 catenoid and its y > 0 half, cut lengthwise (one boundary loop)."""
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 64, 32))
    half = [ti for ti, tri in enumerate(mesh.triangles)
            if mesh.vertices[tri][:, 1].mean() > 0]
    return mesh, TriMesh(mesh.vertices, mesh.triangles[half])


def test_slice_open_chain_on_half_tube():
    # cut the catenoid lengthwise: the section is an open polyline
    mesh, sub = half_tube()
    cycles = slice_mesh(sub, 0.25, normals=vertex_normals(mesh))
    assert any(not c.closed for c in cycles)


def test_slice_non_manifold_section_raises():
    # three triangles share the edge 0-1, which crosses the level
    verts = np.array([[0.0, 0, 0], [0, 0, 1], [1, 0, 0.2], [0, 1, 0.3], [-1, -1, 0.4]])
    fan = TriMesh(verts, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))
    with pytest.raises(SliceError, match="non-manifold plane section"):
        slice_mesh(fan, 0.5, normals=np.tile([1.0, 0, 0], (5, 1)))


def test_slice_between_disjoint_patches_raises():
    lower = square_patch()
    upper = TriMesh(lower.vertices + [0, 0, 1.0], lower.triangles)
    two = TriMesh(np.concatenate([lower.vertices, upper.vertices]),
                  np.concatenate([lower.triangles, upper.triangles + 4]))
    with pytest.raises(SliceError, match="misses the mesh"):
        slice_mesh(two, 0.5)


def dict_slice_mesh(mesh, t, normals=None):
    """The edge-dictionary slicer that `slice_mesh` replaced, kept as the
    oracle for its arithmetic and its traversal order."""
    z = mesh.vertices[:, 2]
    zmin, zmax = mesh.x3_range()
    zrange = zmax - zmin
    level = t
    if np.min(np.abs(z - level)) < meshmod.SNAP_REL_TOL * zrange:
        level = t + meshmod.NUDGE_REL * zrange
    if normals is None:
        normals = vertex_normals(mesh)
    below = z < level
    tri_below = below[mesh.triangles]
    crossing = np.where(tri_below.any(1) & ~tri_below.all(1))[0]
    edge_points = {}
    seg_edges = []
    for ti in crossing:
        tri = mesh.triangles[ti]
        keys = []
        for k in range(3):
            i, j = int(tri[k]), int(tri[(k + 1) % 3])
            if below[i] != below[j]:
                key = (i, j) if i < j else (j, i)
                if key not in edge_points:
                    s = (level - z[key[0]]) / (z[key[1]] - z[key[0]])
                    p = (1 - s) * mesh.vertices[key[0]] + s * mesh.vertices[key[1]]
                    nrm = (1 - s) * normals[key[0]] + s * normals[key[1]]
                    edge_points[key] = (p, nrm / np.linalg.norm(nrm))
                keys.append(key)
        seg_edges.append(tuple(keys))
    by_edge = {}
    for si, (ka, kb) in enumerate(seg_edges):
        by_edge.setdefault(ka, []).append(si)
        by_edge.setdefault(kb, []).append(si)

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
    chains = []
    for key in sorted(k for k, v in by_edge.items() if len(v) == 1):
        if any(s in unused for s in by_edge[key]):
            chains.append(walk(key, unused))
    while unused:
        chains.append(walk(seg_edges[min(unused)][0], unused))
    cycles = []
    for chain_keys, closed in chains:
        pts = np.array([edge_points[k][0] for k in chain_keys])
        nrms = np.array([edge_points[k][1] for k in chain_keys])
        nseg = len(pts) if closed else len(pts) - 1
        idx = np.arange(nseg)
        seg_normals = (nrms[idx] + nrms[(idx + 1) % len(pts)]) / 2.0
        frames = meshmod._segment_frames(pts, seg_normals, closed)
        if np.linalg.det(np.stack([frames[1][0], frames[3][0], frames[2][0]])) < 0:
            pts = pts[::-1].copy()
            nrms = nrms[::-1].copy()
            seg_normals = (nrms[idx] + nrms[(idx + 1) % len(pts)]) / 2.0
            frames = meshmod._segment_frames(pts, seg_normals, closed)
        cycles.append(meshmod.CrossSectionCycle(pts, level, t, closed, *frames))
    cycles.sort(key=lambda c: (round(c.length(), 12), c.points[0, 0]))
    return cycles


def slice_oracle_case(name):
    """(mesh, levels, normals) for one oracle comparison."""
    def cat(a, nu, nv):
        return surfaces.catenoid_mesh(surfaces.CatenoidSpec(a, -1.0, 1.0, nu, nv))
    if name == "catenoid_256x128":
        mesh = cat(1.0, 256, 128)
        zmin, zmax = mesh.x3_range()
        pad = 0.05 * (zmax - zmin)  # the levels of flux.analyze_tube
        return mesh, np.linspace(zmin + pad, zmax - pad, 10), vertex_normals(mesh)
    if name == "perturbed_48x24":
        mesh = cat(1.0, 48, 24)
        rng = np.random.default_rng(11)
        mesh = TriMesh(mesh.vertices + rng.normal(scale=0.005, size=mesh.vertices.shape),
                       mesh.triangles)
        return mesh, np.linspace(-0.8, 0.8, 7), None
    if name == "half_tube":
        mesh, sub = half_tube()
        return sub, [-0.6, 0.25, 0.7], vertex_normals(mesh)
    if name == "snap_nudge":
        return cat(1.0, 64, 32), [0.0], None
    # two catenoids side by side, the one at larger x stored first
    left, right = cat(1.0, 32, 16), cat(1.3, 40, 16)
    return TriMesh(np.concatenate([right.vertices + [5.0, 0, 0], left.vertices]),
                   np.concatenate([right.triangles, left.triangles + right.n_vertices])), \
        [-0.5, 0.1, 0.45], None


@pytest.mark.parametrize("name", ["catenoid_256x128", "perturbed_48x24", "half_tube",
                                  "snap_nudge", "two_catenoids"])
def test_slice_matches_dict_oracle(name):
    mesh, levels, normals = slice_oracle_case(name)
    for t in levels:
        got, want = slice_mesh(mesh, t, normals), dict_slice_mesh(mesh, t, normals)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.closed, g.level, g.requested_level) == (w.closed, w.level, w.requested_level)
            for attr in ("points", "midpoints", "tangents", "normals", "conormals", "ds"):
                assert np.array_equal(getattr(g, attr), getattr(w, attr)), (t, attr)


# -- Gauss image ------------------------------------------------------------

def test_gauss_image_diameter_antipodal():
    normals = np.array([[0, 0, 1.0], [0, 0, -1.0], [1, 0, 0]])
    assert gauss_image_diameter(normals) == pytest.approx(math.pi)
    assert gauss_image_diameter([[1.0, 0, 0]]) == 0.0


def test_gauss_image_length_matches_latitude():
    # normals of the slice at level t sweep the latitude circle of radius
    # sech(t): length 2*pi*sech(t)
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 256, 128))
    t = 0.5
    (cycle,) = slice_mesh(mesh, t)
    expect = 2.0 * math.pi / math.cosh(t)
    assert gauss_image_length(cycle) == pytest.approx(expect, rel=2e-3)
    with pytest.raises(ValueError):
        gauss_image_length(
            meshmod.CrossSectionCycle(cycle.points, t, t, False, cycle.midpoints,
                                      cycle.tangents, cycle.normals,
                                      cycle.conormals, cycle.ds))


def test_corner_angles_and_vertex_sums_match_add_at_loop():
    mesh = surfaces.flat_annulus_mesh(1.0, 2.0, 24, 6)
    rng = np.random.default_rng(7)
    mesh = TriMesh(mesh.vertices + rng.normal(scale=0.02, size=mesh.vertices.shape),
                   mesh.triangles)
    angles = meshmod.corner_angles(mesh)
    assert angles.shape == (len(mesh.triangles), 3)
    assert np.max(np.abs(angles.sum(axis=1) - math.pi)) < 1e-12
    # Reference: one corner at a time, summed by np.add.at.
    p = mesh.triangle_corners()
    fn = mesh.triangle_normals()
    normals = np.zeros((mesh.n_vertices, 3))
    angle_sum = np.zeros(mesh.n_vertices)
    mass = np.zeros(mesh.n_vertices)
    for k in range(3):
        a = p[(k + 1) % 3] - p[k]
        b = p[(k + 2) % 3] - p[k]
        cosang = np.einsum("ij,ij->i", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        np.add.at(normals, mesh.triangles[:, k], ang[:, None] * fn)
        np.add.at(angle_sum, mesh.triangles[:, k], ang)
        np.add.at(mass, mesh.triangles[:, k], mesh.triangle_areas() / 3.0)
    expect = normals / np.linalg.norm(normals, axis=1)[:, None]
    assert np.all(vertex_normals(mesh) == expect)
    assert np.all(meshmod.angle_defects(mesh)[0] == 2.0 * math.pi - angle_sum)
    assert np.all(cot_laplacian(mesh)[1] == mass)


def test_total_curvature_flat_patch_zero():
    G, clamped = total_curvature(square_patch(), return_clamped=True)
    assert G == 0.0
    assert clamped == 0.0


def test_total_curvature_catenoid_band():
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 256, 128))
    expect = surfaces.catenoid_total_curvature(1.0, -1.0, 1.0)
    G, clamped = total_curvature(mesh, return_clamped=True)
    assert G == pytest.approx(expect, rel=1e-2)
    assert clamped < 0.01 * G


# -- Laplacian and capacity -------------------------------------------------

def test_cot_laplacian_basic_properties():
    mesh = surfaces.flat_annulus_mesh(1.0, 2.0, 64, 16)
    L, mass = cot_laplacian(mesh)
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(L @ ones)) < 1e-12
    assert np.max(np.abs((L - L.T).data)) < 1e-12 if (L - L.T).nnz else True
    assert mass.sum() == pytest.approx(mesh.area())


def test_dirichlet_energy_linear_potential():
    # phi = x on the unit square has energy 1
    mesh = square_patch()
    phi = mesh.vertices[:, 0].copy()
    assert dirichlet_energy(mesh, phi) == pytest.approx(1.0)


def test_harmonic_capacity_flat_annulus_log():
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 256, 64)
    lp0, lp1 = mesh.boundary_loops()
    cap = harmonic_capacity(mesh, lp0, lp1)
    assert cap == pytest.approx(2.0 * math.pi / math.log(3.0), rel=1e-3)


def test_harmonic_capacity_rejects_non_boundary_loop():
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 64, 16)
    lp0, lp1 = mesh.boundary_loops()
    with pytest.raises(MeshError):
        harmonic_capacity(mesh, lp0[:-1], lp1)


def test_harmonic_capacity_potential_range():
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 64, 16)
    lp0, lp1 = mesh.boundary_loops()
    cap, phi = harmonic_capacity(mesh, lp0, lp1, return_potential=True)
    assert phi.min() >= -1e-9 and phi.max() <= 1 + 1e-9
    assert np.allclose(phi[lp0], 0.0) and np.allclose(phi[lp1], 1.0)


# -- I/O --------------------------------------------------------------------

def test_obj_roundtrip(tmp_path):
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 16, 8))
    path = tmp_path / "band.obj"
    write_obj(mesh, path)
    back = read_obj(path)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.vertices, mesh.vertices)  # 17 digits: exact


def test_obj_write_deterministic(tmp_path):
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 16, 8))
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    write_obj(mesh, p1)
    write_obj(mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_obj_error_reporting(tmp_path):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n")
    with pytest.raises(MeshError, match="bad.obj:4"):
        read_obj(bad)
    empty = tmp_path / "empty.obj"
    empty.write_text("# nothing\n")
    with pytest.raises(MeshError):
        read_obj(empty)

