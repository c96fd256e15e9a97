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


def test_cycles_to_csv(tmp_path):
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 32, 16))
    cycles = slice_mesh(mesh, 0.25)
    path = tmp_path / "slices.csv"
    meshmod.cycles_to_csv(cycles, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,mx,my,mz")
    assert len(lines) == 1 + sum(c.n_segments for c in cycles)
