"""Mesh structure, slicing, curvature, capacity and file round-trips."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from conftest import cot_laplacian

from mintube import mesh as meshmod
from mintube import surfaces
from mintube.mesh import (
    MeshError,
    SliceError,
    TriMesh,
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_vertex(value):
    mesh = surfaces.flat_annulus_mesh(1.0, 2.0, 16, 4)
    verts = mesh.vertices.copy()
    verts[[7, 30], 1] = value
    with pytest.raises(MeshError, match="^vertex 7 has a non-finite coordinate$"):
        TriMesh(verts, mesh.triangles).validate()


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


def test_gauss_image_length_keeps_digits_of_small_angles():
    # normals around a great circle: 2000 steps of 1e-7 rad, then 200
    # coarse steps closing the circle; arccos of the dot products of the
    # small steps would lose about half of their digits
    fine = 1e-7 * np.arange(2000)
    theta = np.concatenate([fine, np.linspace(2000e-7, 2.0 * math.pi, 200, endpoint=False)])
    g = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    cycle = meshmod.CrossSectionCycle(g, 0.0, 0.0, True, g, g, g, g, np.ones(len(g)))
    assert abs(gauss_image_length(cycle) - 2.0 * math.pi) <= 1e-12 * 2.0 * math.pi


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
    # the barycentric vertex areas, summed as the solver's residual sums them
    thirds = np.repeat(mesh.triangle_areas()[:, None] / 3.0, 3, axis=1)
    assert np.all(meshmod._vertex_sums(mesh, thirds) == mass)


def test_total_curvature_flat_patch_zero():
    G, clamped = total_curvature(square_patch())
    assert G == 0.0
    assert clamped == 0.0


def test_total_curvature_catenoid_band():
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 256, 128))
    expect = surfaces.catenoid_total_curvature(1.0, -1.0, 1.0)
    G, clamped = total_curvature(mesh)
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


def test_harmonic_capacity_flat_annulus_log():
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 256, 64)
    lp0, lp1 = mesh.boundary_loops()
    cap, _ = harmonic_capacity(mesh, lp0, lp1)
    assert cap == pytest.approx(2.0 * math.pi / math.log(3.0), rel=1e-3)


def test_harmonic_capacity_rejects_non_boundary_loop():
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 64, 16)
    lp0, lp1 = mesh.boundary_loops()
    with pytest.raises(MeshError):
        harmonic_capacity(mesh, lp0[:-1], lp1)


def test_harmonic_capacity_potential_range():
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 64, 16)
    lp0, lp1 = mesh.boundary_loops()
    cap, phi = harmonic_capacity(mesh, lp0, lp1)
    assert phi.min() >= -1e-9 and phi.max() <= 1 + 1e-9
    assert np.allclose(phi[lp0], 0.0) and np.allclose(phi[lp1], 1.0)


def spsolve_capacity(mesh, loop0, loop1):
    """Reference harmonic potential and energy: general LU (`spsolve`) on
    the free block of the cotangent Laplacian."""
    L, _ = cot_laplacian(mesh)
    phi = np.zeros(mesh.n_vertices)
    phi[loop1] = 1.0
    fixed = np.zeros(mesh.n_vertices, dtype=bool)
    fixed[loop0] = fixed[loop1] = True
    free = ~fixed
    phi[free] = spla.spsolve(L[free][:, free].tocsc(), -L[free][:, fixed] @ phi[fixed])
    return float(phi @ (L @ phi)), phi


def capacity_case(name):
    if name == "flat_annulus_256x64":
        return surfaces.flat_annulus_mesh(1.0, 3.0, 256, 64)
    if name == "catenoid_128x64":
        return surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 128, 64))
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 96, 24)
    z = np.random.default_rng(5).normal(scale=0.02, size=mesh.n_vertices)
    return TriMesh(mesh.vertices + np.outer(z, [0.0, 0.0, 1.0]), mesh.triangles)


@pytest.mark.parametrize("name", ["flat_annulus_256x64", "catenoid_128x64",
                                  "perturbed_annulus_96x24"])
def test_harmonic_capacity_matches_spsolve(name):
    mesh = capacity_case(name)
    lp0, lp1 = mesh.boundary_loops()
    cap, phi = harmonic_capacity(mesh, lp0, lp1)
    want_cap, want_phi = spsolve_capacity(mesh, lp0, lp1)
    assert abs(cap - want_cap) <= 1e-12 * want_cap
    assert np.max(np.abs(phi - want_phi)) <= 1e-12
    assert np.array_equal(phi[lp0], want_phi[lp0]) and np.array_equal(phi[lp1], want_phi[lp1])


@pytest.mark.parametrize("name", ["flat_annulus_256x64", "catenoid_128x64",
                                  "perturbed_annulus_96x24"])
def test_harmonic_capacity_free_block_matches_reference(name, monkeypatch):
    mesh = capacity_case(name)
    lp0, lp1 = mesh.boundary_loops()
    factored = []
    factor_symmetric = meshmod.factor_symmetric

    def capture(A, **kwargs):
        factored.append(A)
        return factor_symmetric(A, **kwargs)

    monkeypatch.setattr(meshmod, "factor_symmetric", capture)
    harmonic_capacity(mesh, lp0, lp1)
    (A,) = factored
    L, _ = cot_laplacian(mesh)
    free = ~mesh.boundary_vertex_mask()
    want = L[free][:, free].tocsc()
    assert A.format == "csc" and A.indices.dtype == np.int32
    assert np.array_equal(A.indptr, want.indptr)
    assert np.array_equal(A.indices, want.indices)
    assert np.all(np.abs(A.data - want.data) <= 1e-15 * np.abs(want.data))


def test_harmonic_capacity_factorization_failure(monkeypatch):
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 32, 8)
    lp0, lp1 = mesh.boundary_loops()

    def singular(A, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(meshmod.spla, "splu", singular)
    with pytest.raises(MeshError, match="^harmonic solve failed: Factor is exactly singular$"):
        harmonic_capacity(mesh, lp0, lp1)


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


def loop_write_obj(mesh, path):
    """Reference writer: one formatted line per record."""
    with open(path, "w", newline="\n") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def loop_read_obj(path):
    """Reference reader: one line at a time, Python number parsing."""
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
                tris.append((lineno, idx))
    if not verts or not tris:
        raise MeshError(f"{path}: no v/f records found")
    for lineno, idx in tris:
        if min(idx) < 0 or max(idx) >= len(verts):
            raise MeshError(f"{path}:{lineno}: face index out of range")
    tris = [idx for _, idx in tris]
    return TriMesh(np.array(verts), np.array(tris, dtype=np.int64))


def obj_outcome(reader, path):
    """(vertices, triangles) read from path, or the MeshError text."""
    try:
        mesh = reader(path)
    except MeshError as exc:
        return str(exc)
    return mesh.vertices, mesh.triangles


def assert_same_outcome(path):
    got, want = obj_outcome(read_obj, path), obj_outcome(loop_read_obj, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
            assert np.array_equal(g.view(np.int64), w.view(np.int64))  # -0.0 too


@pytest.mark.parametrize("name", ["catenoid_16x8", "special_values"])
def test_write_obj_matches_line_writer(tmp_path, name):
    if name == "catenoid_16x8":
        mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 16, 8))
    else:
        mesh = TriMesh(np.array([[-0.0, 1e-300, 1e17], [0.1, -0.0, -1e-300],
                                 [1e17, 0.1, -0.1], [2.5, -1e17, 0.0]]),
                       np.array([[0, 1, 2], [0, 2, 3]]))
    write_obj(mesh, tmp_path / "got.obj")
    loop_write_obj(mesh, tmp_path / "want.obj")
    assert (tmp_path / "got.obj").read_bytes() == (tmp_path / "want.obj").read_bytes()


OBJ_TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"

OBJ_ACCEPTED = {
    "comments_and_blank_lines": "# header\n\n" + OBJ_TRIANGLE + "   \n# faces\nf 1 2 3\n\n",
    "whitespace_and_tabs": "  v 0 0 0\n\tv 1\t0 0\nv  0   1 0 \n \t f\t1 2  3\t\n",
    "crlf": OBJ_TRIANGLE.replace("\n", "\r\n") + "f 1 2 3\r\n",
    "other_records": "o tri\n" + OBJ_TRIANGLE + "vn 0 0 1\nvt 0 0\nvt 1 0\nvt 0 1\n"
                     "s off\nf 1 2 3\n",
    "face_texture_normal": OBJ_TRIANGLE + "v 1 1 0\nf 1/1/1 2/2/1 3/3/1\nf 2/2/1 4/4/1 3/3/1\n",
    "face_normal_only": OBJ_TRIANGLE + "v 1 1 0\nf 1//1 2//1 3//1\nf 2//1 4//1 3//1\n",
    "no_final_newline": OBJ_TRIANGLE + "f 1 2 3",
    "python_number_spellings": "v 1_0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "exponents_and_specials": "v 1e-300 -0.0 +5\nv 1E3 .5 1.\nv 0 1 -0\nf 1 2 3\n",
}

OBJ_REJECTED = {
    "bad_coordinate": OBJ_TRIANGLE + "v 0 x 1\nf 1 2 3\n",
    "three_token_vertex": "v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n",
    "two_index_face": OBJ_TRIANGLE + "f 1 2\n",
    "quad_face": OBJ_TRIANGLE + "v 1 1 0\nf 1 2 4 3\n",
    "four_coordinate_vertices": "v 0 0 0 1\nv 1 0 0 1\nv 0 1 0 1\nf 1 2 3\n",
    "slash_first_fourth_index": OBJ_TRIANGLE + "f 1 2 3 /4\n",
    "non_integer_face": OBJ_TRIANGLE + "f 1 2 3.0\n",
    "slash_first_face": OBJ_TRIANGLE + "f 1 2 /3\n",
    "index_out_of_range": OBJ_TRIANGLE + "f 1 2 4\n",
    "index_zero": OBJ_TRIANGLE + "f 0 1 2\n",
    # loadtxt fails on "1_0", so the per-record parse reads this file
    "index_out_of_range_record_parse": "v 1_0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 3 2 4\n",
    "no_records": "# nothing\n\n",
    "no_faces": OBJ_TRIANGLE,
    "first_bad_line_wins": "v 0 0 0\nf 1 2\nv 1 0\nv 0 1 0\nf 1 2 3\n",
    "bad_line_before_no_faces": "v 0 0 0\nv 1 0\n",
    "trailing_comment": OBJ_TRIANGLE + "f 1 2 3 # tri\n",
    "bare_v": "v 0 0 0\nv\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "bare_f": OBJ_TRIANGLE + "f 1 2 3\nf\n",
    "bare_f_with_spaces": OBJ_TRIANGLE + "f 1 2 3\nf   \n",
}


@pytest.mark.parametrize("name", sorted(OBJ_ACCEPTED) + sorted(OBJ_REJECTED))
def test_read_obj_matches_line_reader(tmp_path, name):
    path = tmp_path / "case.obj"
    path.write_bytes(OBJ_ACCEPTED.get(name, OBJ_REJECTED.get(name)).encode())
    assert isinstance(obj_outcome(loop_read_obj, path), str) == (name in OBJ_REJECTED)
    assert_same_outcome(path)


def test_read_obj_matches_line_reader_on_random_files(tmp_path):
    # Files of good lines with a bad one now and then, so that both readers
    # accept some files and take every error branch on others.
    rng = np.random.default_rng(3)
    good = ["v 0 0 0", "v 1 0 0", "v 0.5 1 -0.0", "v 1e17 -1e-300 2", "\tv 1 2 3",
            "f 1 2 3", " f 3 2 1", "f 1/1 2/2 3/3", "f 1//4 2//4 3//4",
            "vn 0 0 1", "vt 0 1", "# c", "", "  ", "g grp"]
    bad = ["v 1 2", "v 1 2 3 4", "v a 0 0", "f 1 2", "f 1 2 3 4", "f 1 2 x",
           "f 1 2 /3", "f 3 1 99", "v", "f"]
    outcomes = set()
    for k in range(200):
        lines = [rng.choice(bad) if rng.random() < 0.03 else rng.choice(good)
                 for _ in range(rng.integers(1, 25))]
        path = tmp_path / f"r{k}.obj"
        path.write_text("\n".join(lines) + "\n")
        assert_same_outcome(path)
        want = obj_outcome(loop_read_obj, path)
        outcomes.add(want.split(": ")[-1] if isinstance(want, str) else "read")
    assert len(outcomes) == 7


def test_obj_roundtrip_256x128_matches_line_reader(tmp_path):
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 256, 128))
    path = tmp_path / "band.obj"
    write_obj(mesh, path)
    assert_same_outcome(path)
    assert np.array_equal(read_obj(path).vertices, mesh.vertices)
