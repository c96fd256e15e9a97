"""Area minimization: analytic oracle, convergence contract, failure modes."""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (area_hessian_blocks, cot_laplacian, cot_stiffness, relabelled,
                      triangle_normals, vertex_sums)
from scipy.optimize import brentq

from mintube import mesh as meshmod
from mintube import solver, surfaces
from mintube.mesh import MeshError, RingGrid, TriMesh, factor_symmetric


def test_problem_validation():
    with pytest.raises(ValueError):
        solver.Circle((0.0, 0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        solver.Circle((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        solver.AnnulusProblem(solver.Circle((0, 0, 1.0), 1.0),
                              solver.Circle((0, 0, 0.0), 1.0))
    with pytest.raises(ValueError):
        solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                              solver.Circle((0, 0, 1.0), 1.0), nu=4)
    # coaxial circles this close are spanned, but the ruled start is flat
    with pytest.raises(ValueError, match="ruled start"):
        solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                              solver.Circle((0, 0, 1e-300), 1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            solver.Circle((0.0, 0.0, 0.0), bad)
        with pytest.raises(ValueError, match="finite"):
            solver.Circle((bad, 0.0, 0.0), 1.0)


def test_initial_annulus_boundary_circles():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.3, 0, 1.0), 0.8), nu=32, nv=8)
    mesh = solver.initial_annulus(prob)
    mesh.validate()
    r_bottom = np.hypot(mesh.vertices[:32, 0], mesh.vertices[:32, 1])
    assert np.allclose(r_bottom, 1.0)
    top = mesh.vertices[-32:]
    assert np.allclose(np.hypot(top[:, 0] - 0.3, top[:, 1]), 0.8)


def test_coaxial_solution_matches_catenoid():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, -0.5), 1.0),
                                 solver.Circle((0, 0, 0.5), 1.0), nu=64, nv=32)
    mesh, report = solver.solve_annulus(prob)
    assert report.converged
    assert report.residual_history[-1] <= solver.TOLERANCE
    a = brentq(lambda x: x * math.cosh(0.5 / x) - 1.0, 0.5, 1.0)
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    expect = a * np.cosh(mesh.vertices[:, 2] / a)
    assert np.max(np.abs(r - expect)) < 2e-3


def test_boundary_vertices_bit_identical():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.2, 0, 1.0), 1.0), nu=48, nv=16)
    initial = solver.initial_annulus(prob)
    mesh, _ = solver.minimize_area(initial)
    fixed = initial.boundary_vertex_mask()
    assert np.array_equal(mesh.vertices[fixed], initial.vertices[fixed])


def mean_edge_length(mesh):
    """Oracle: the mean length of the 3 M directed triangle edges."""
    p0, p1, p2 = mesh.triangle_corners()
    e = np.concatenate([p1 - p0, p2 - p1, p0 - p2])
    return float(np.linalg.norm(e, axis=1).mean())


def test_area_monotone_and_residual_reported():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.3, 0, 1.0), 1.0), nu=48, nv=16)
    mesh, report = solver.solve_annulus(prob)
    areas = np.array(report.area_history)
    assert np.all(np.diff(areas) <= 1e-12 * areas[0])
    assert len(report.residual_history) >= 1
    # the returned mesh realizes the reported final residual
    L, mass = cot_laplacian(mesh)
    interior = ~mesh.boundary_vertex_mask()
    h = np.linalg.norm((L @ mesh.vertices)[interior], axis=1) / mass[interior]
    assert h.max() * mean_edge_length(mesh) == pytest.approx(
        report.residual_history[-1], rel=1e-9)


def test_report_json():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0, 0, 1.0), 1.0), nu=48, nv=16)
    _, report = solver.solve_annulus(prob)
    doc = json.loads(report.to_json())
    assert doc["converged"] is True
    assert doc["final_residual"] == report.residual_history[-1]
    assert doc["iterations"] == report.iterations


def test_each_solve_keeps_its_own_histories():
    # the report's lists are its fields' defaults: one new list per report
    reports = [solver.solve_annulus(solver.AnnulusProblem(
        solver.Circle((0, 0, 0.0), 1.0), solver.Circle((d, 0, 1.0), 1.0), nu=32, nv=16))[1]
        for d in (0.0, 0.3)]
    assert reports[0].area_history is not reports[1].area_history
    assert reports[0].residual_history is not reports[1].residual_history
    assert reports[0].area_history is not reports[0].residual_history
    for report in reports:
        assert report.converged
        steps = 1 + report.stack_iterations + report.iterations
        assert len(report.area_history) == len(report.residual_history) == steps
    assert len(reports[0].area_history) != len(reports[1].area_history)


def test_coaxial_circles_below_critical_height_converge():
    # a catenoid spans coaxial unit circles up to h ~ 1.3255
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0, 0, 1.3), 1.0), nu=64, nv=32)
    _, report = solver.solve_annulus(prob)
    assert report.converged
    assert report.residual_history[-1] <= solver.TOLERANCE


def test_far_circles_pinch_detected():
    # distance 4 between unit circles: no embedded annulus; the neck pinches
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0, 0, 4.0), 1.0), nu=48, nv=24)
    with pytest.raises(solver.NoAnnulusError):
        solver.solve_annulus(prob)


def test_iteration_cap_raises_with_report(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
    monkeypatch.setattr(solver, "TOLERANCE", 1e-14)
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.3, 0, 1.0), 1.0), nu=48, nv=16)
    with pytest.raises(solver.ConvergenceError) as err:
        solver.solve_annulus(prob)
    assert err.value.report is not None
    assert err.value.report.converged is False


def test_minimize_area_requires_two_loops():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    disk = TriMesh(verts, np.array([[0, 1, 2]]))
    with pytest.raises(MeshError):
        solver.minimize_area(disk)
    # a closed mesh has no boundary loop
    tetrahedron = TriMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                          np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]))
    with pytest.raises(MeshError, match="found 0$"):
        solver.minimize_area(tetrahedron)


def small_annulus():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.2, 0, 1.0), 1.0), nu=16, nv=6)
    return solver.initial_annulus(prob)


def perturbed_annulus(nu, nv, seed):
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.2, 0, 1.0), 1.0), nu=nu, nv=nv)
    mesh = solver.initial_annulus(prob)
    interior = ~mesh.boundary_vertex_mask()
    verts = mesh.vertices.copy()
    rng = np.random.default_rng(seed)
    verts[interior] += (0.2 / nv) * rng.standard_normal(verts[interior].shape)
    return TriMesh(verts, mesh.triangles), interior


def mesh_hessian_blocks(mesh):
    return area_hessian_blocks(cot_stiffness(mesh), triangle_normals(mesh))


def coo_matrices(mesh, blocks, S, dof_mask):
    """Reference H and kron(L, I3) on the coordinates of the vertices in
    `dof_mask`: every entry of the per-triangle blocks, and S on the
    diagonal of each corner pair's block, summed by a COO -> CSR
    conversion, as CSR matrices."""
    tris = mesh.triangles
    rows = 3 * tris[:, :, None, None, None] + np.arange(3)[:, None]
    cols = 3 * tris[:, None, :, None, None] + np.arange(3)
    rows, cols = np.broadcast_to(rows, blocks.shape), np.broadcast_to(cols, blocks.shape)
    n = 3 * mesh.n_vertices
    H = sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()
    lap = S[:, :, :, None, None] * np.eye(3)
    L = sp.coo_matrix((lap.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()
    idx = np.flatnonzero(dof_mask)
    dofs = (3 * idx[:, None] + np.arange(3)).ravel()
    return H[dofs][:, dofs], L[dofs][:, dofs]


def band_to_dense(band):
    """The square matrix of LAPACK band storage with `solver.BAND`
    diagonals on each side: A[i, j] = band[BAND + i - j, j]."""
    n = band.shape[1]
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= solver.BAND
    A = np.zeros((n, n))
    A[inside] = band[(solver.BAND + i - j)[inside], j[inside]]
    return A


def cross_matrices(v):
    """(..., 3) vectors -> (..., 3, 3) cross-product matrices [v]x."""
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def batched_area_hessian(verts, tris):
    """Oracle: the area Hessian blocks by differentiating the corner
    gradient 0.5 (p_{i+1}-p_{i+2}) x nh, which gives
    -0.5 [e_i]x (I - nh nh^T) [e_j]x / |n| plus the +-0.5 [nh]x terms from
    the cyclic edge dependence on p_j."""
    p = verts[tris]                                   # (M, 3 corners, 3)
    e = np.roll(p, -1, axis=1) - np.roll(p, -2, axis=1)
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    nn = np.linalg.norm(n, axis=1)
    nh = n / nn[:, None]
    proj = np.eye(3) - nh[:, :, None] * nh[:, None, :]
    ex = cross_matrices(e)                            # (M, 3, 3, 3)
    left = ex @ proj[:, None]
    blocks = left[:, :, None] @ ex[:, None, :]        # (M, 3, 3, 3, 3)
    blocks *= (-0.5 / nn)[:, None, None, None, None]
    half_nx = 0.5 * cross_matrices(nh)
    for i in range(3):
        blocks[:, i, (i + 1) % 3] -= half_nx
        blocks[:, i, (i + 2) % 3] += half_nx
    return blocks


@pytest.mark.parametrize("nu, nv", [(16, 6), (96, 48)])
def test_area_hessian_closed_form_matches_batched_oracle(nu, nv):
    mesh, _ = perturbed_annulus(nu, nv, seed=7)
    got = mesh_hessian_blocks(mesh)
    want = batched_area_hessian(mesh.vertices, mesh.triangles)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_area_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    mesh = small_annulus()
    verts = mesh.vertices

    def grad(v):
        L, _ = cot_laplacian(TriMesh(v, mesh.triangles))
        return L @ v

    # every vertex a dof: the full (3N, 3N) Hessian, summed per vertex pair
    full = solver._HessianPattern(mesh.triangles, np.ones(len(verts), bool))
    geo = meshmod.edge_geometry(mesh)
    H = full.matrix(full.data(geo.stiffness, geo.normals)[0])
    assert H.shape == (3 * len(verts), 3 * len(verts))
    d = rng.standard_normal(verts.shape) * 1e-6
    fd = grad(verts + d) - grad(verts - d)
    hd = 2.0 * (H @ d.ravel()).reshape(-1, 3)
    assert np.abs(fd - hd).max() < 1e-4 * np.abs(hd).max()


def test_offset_annulus_converges(annulus_coarse):
    mesh, report = annulus_coarse
    assert report.converged
    assert report.residual_history[-1] <= 1e-6
    mesh.validate()
    # the iterates, pinned: a change of rounding moves the area by ~1e-14
    assert (report.stack_iterations, report.iterations) == (7, 5)
    assert report.area_history[-1] == pytest.approx(6.094712776147, rel=1e-11)


def test_offset_annulus_iterations_at_96x48(monkeypatch):
    conversions = []
    matrix = solver._HessianPattern.matrix

    def counted_matrix(pattern, blocks):
        conversions.append(blocks.shape)
        return matrix(pattern, blocks)

    monkeypatch.setattr(solver._HessianPattern, "matrix", counted_matrix)
    _, report = solver.solve_annulus(unit_circles(1.0, 0.3, 96, 48))
    assert report.converged
    assert (report.stack_iterations, report.iterations) == (7, 4)
    # the first full-stage step is factored; conjugate gradients on those
    # factors take the other three
    assert (report.factorizations, report.cg_iterations) == (1, 18)
    assert report.area_history[-1] == pytest.approx(6.09412677913332, rel=1e-11)
    # one entry for the start and one per iteration, every one accepted here
    assert len(report.area_history) == len(report.residual_history) == 12
    assert len(report.area_history) == 1 + report.stack_iterations + report.iterations
    # the full stage multiplies by its BSR blocks and converts them to CSC
    # only to factor
    assert len(conversions) == report.factorizations


@pytest.mark.parametrize("nu, nv", [(32, 16), (128, 64)])
def test_stack_stage_converges_below_the_area_rounding_floor(monkeypatch, nu, nv):
    # At a tight tolerance the last stack steps predict area decreases
    # below what the area sum resolves.  Judged by the measured area, the
    # damping grew until rounding noise passed a step, or the stage gave
    # up unconverged; judged by the stack residual, they converge the
    # stage with the damping unchanged.
    monkeypatch.setattr(solver, "TOLERANCE", 1e-9)
    descent = stack_descent(1.0, 0.3, nu, nv)
    assert stack_residual(descent) <= solver.STACK_TOL_RATIO * 1e-9
    assert descent.mu < 1e-3


def test_tight_tolerance_full_stage_starts_from_the_stack_damping(monkeypatch):
    # With the damping the area's rounding noise used to inflate, the full
    # stage took 11 iterations here.
    monkeypatch.setattr(solver, "TOLERANCE", 1e-8)
    _, report = solver.solve_annulus(unit_circles(1.0, 0.3, 96, 48))
    assert report.converged
    assert report.iterations < 11
    areas = np.array(report.area_history)
    assert np.all(np.diff(areas) <= solver.AREA_ROUNDING * areas[0])


@pytest.mark.parametrize("nu, nv", [(16, 6), (96, 48)])
def test_edge_geometry_matches_formulas(nu, nv):
    mesh, _ = perturbed_annulus(nu, nv, seed=5)
    geo = meshmod.edge_geometry(mesh)
    S = cot_stiffness(mesh)                 # e @ e^T over the normal's length
    p = mesh.vertices[mesh.triangles]
    thirds = np.repeat(mesh.triangle_areas()[:, None] / 3.0, 3, axis=1)
    pairs = [(geo.stiffness, S),
             (geo.gradient, vertex_sums(mesh, S @ p)),
             (geo.vertex_areas, vertex_sums(mesh, thirds)),
             (geo.normals, triangle_normals(mesh)),
             (geo.double_areas, 2.0 * mesh.triangle_areas()),
             (geo.area, mesh.area()),
             (geo.mean_edge_length, mean_edge_length(mesh))]
    for got, want in pairs:
        assert np.shape(got) == np.shape(want)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("nu, nv", [(16, 6), (96, 48), (16, 2), (16, 3)])
def test_stack_reduced_matrices_match_sparse_products(nu, nv):
    ruled = solver.initial_annulus(unit_circles(1.0, 0.2, nu, nv))
    basis = solver._stack_basis(ruled)
    mesh, interior = perturbed_annulus(nu, nv, seed=9)
    geo = meshmod.edge_geometry(mesh)
    S = cot_stiffness(mesh)
    B = basis.matrix
    for got, M in zip(basis.reduced(geo),
                      coo_matrices(mesh, mesh_hessian_blocks(mesh), S, interior)):
        assert got.shape == (2 * solver.BAND + 1, 3 * (nv - 1))
        want = (B.T @ M @ B).toarray()
        assert np.abs(band_to_dense(got) - want).max() <= 1e-13 * np.abs(want).max()
        # the band's corners outside the matrix are zeros
        k, j = np.indices(got.shape)
        i = j + k - solver.BAND
        assert not got[(i < 0) | (i >= got.shape[1])].any()


@pytest.mark.parametrize("nu, nv", [(16, 6), (96, 48), (16, 2), (16, 3)])
@pytest.mark.parametrize("mu", [1e-6, 1e-2, 1.0, 30.0])
def test_banded_stack_step_matches_dense_solve(nu, nv, mu):
    # on a stack of circles with random radii and centers, where B^T H B
    # is indefinite, so small mu leaves the system indefinite too; with one
    # or two interior rings (nv = 2, 3) it is definite here
    start = unit_circles(1.0, 0.2, nu, nv).start
    rng = np.random.default_rng(13)
    rings = start.vertices.reshape(nv + 1, nu, 3).copy()
    scale = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, (nv - 1, 1, 1))
    shift = 0.3 * rng.uniform(-1.0, 1.0, (nv - 1, 1, 2))
    rings[1:-1, :, :2] = scale * rings[1:-1, :, :2] + shift
    mesh = TriMesh(rings.reshape(-1, 3), start.triangles)
    basis = solver._stack_basis(mesh)
    descent = solver._Descent(mesh)
    step, predicted = descent._stack_solve(basis)(mu)
    Hr, Lr = (band_to_dense(m) for m in basis.reduced(descent.geo))
    eigenvalues = np.linalg.eigvalsh(Hr)
    assert (eigenvalues.min() < 0) == (nv > 3) and eigenvalues.max() > 0
    gr = basis.matrix.T @ descent.grad.ravel()
    A = Hr + mu * Lr
    t = np.linalg.solve(A, -gr)
    want = (basis.matrix @ t).reshape(-1, 3)
    # Two backward-stable solves agree to about cond(A) u.  At 96x48 and
    # mu = 1e-6, cond(A) is 2e6 and they differ by 4.8e-12; every other
    # system here has cond(A) below 2e5 and agrees within 6.4e-13.
    bound = max(1e-12, 1e-16 * np.linalg.cond(A))
    assert np.abs(step - want).max() <= bound * np.abs(want).max()
    # the banded step solves the dense system to rounding: its backward error
    B = basis.matrix
    banded = np.linalg.solve((B.T @ B).toarray(), B.T @ step.ravel())
    assert (np.abs(A @ banded + gr).max()
            <= 1e-14 * np.abs(A).sum(axis=1).max() * np.abs(banded).max())
    assert predicted == pytest.approx(-(gr @ t + 0.5 * t @ (Hr @ t)), rel=1e-12)


def test_hessian_pattern_matches_coo_assembly():
    mesh = small_annulus()
    rng = np.random.default_rng(5)
    interior = ~mesh.boundary_vertex_mask()
    verts = mesh.vertices.copy()
    verts[interior] += 0.02 * rng.standard_normal(verts[interior].shape)
    tris = mesh.triangles
    perturbed = TriMesh(verts, tris)
    geo = meshmod.edge_geometry(perturbed)
    S, nh = geo.stiffness, geo.normals
    L, _ = cot_laplacian(perturbed, S)
    # the solver's interior dofs, and every vertex a dof as in
    # `test_area_hessian_matches_finite_differences`
    for dof_mask in (interior, np.ones(len(verts), bool)):
        H, _ = coo_matrices(perturbed, area_hessian_blocks(S, nh), S, dof_mask)
        H = H.toarray()
        # every 3x3 block of a vertex pair that shares a triangle, summed
        # from ones so that no entry cancels
        ones, _ = coo_matrices(perturbed, np.ones((len(tris), 3, 3, 3, 3)), S, dof_mask)
        want = ones.tocsc()
        pattern = solver._HessianPattern(tris, dof_mask)
        blocks, lap = pattern.data(S, nh)
        assert blocks.shape == (len(want.indices) // 9, 3, 3) and lap.shape == blocks.shape[:1]
        # in C order: a BSR matrix on strided blocks copies them at every product
        assert blocks.flags.c_contiguous
        assert np.shares_memory(pattern.bsr(blocks).data, blocks)
        got = pattern.matrix(blocks)
        assert got.format == "csc" and got.has_sorted_indices
        assert got.indptr.dtype == got.indices.dtype == np.int32
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        # H summed per vertex pair, against the per-triangle blocks' COO sum
        assert np.abs(got.toarray() - H).max() <= 1e-13 * np.abs(H).max()
        # symmetric bit for bit: the CSR arrays are the CSC arrays
        assert np.array_equal(got.data, got.T.tocsc().data)
        # L bit for bit: S summed over each pair's triangles in triangle
        # order, one entry per pair, the pairs sorted row-major
        layout = want.tobsr(blocksize=(3, 3))
        layout.sort_indices()
        n_verts = int(dof_mask.sum())
        block_rows = np.repeat(np.arange(n_verts), np.diff(layout.indptr))
        vmap = np.cumsum(dof_mask) - 1
        corner_keys = vmap[tris][:, :, None] * n_verts + vmap[tris][:, None, :]
        valid = dof_mask[tris][:, :, None] & dof_mask[tris][:, None, :]
        pair_of = np.searchsorted(block_rows * n_verts + layout.indices, corner_keys[valid])
        pair_sums = np.bincount(pair_of, weights=S[valid], minlength=len(layout.indices))
        assert np.array_equal(lap, pair_sums)
        idx = np.flatnonzero(dof_mask)
        kron = sp.kron(L[idx][:, idx], sp.identity(3)).toarray()
        got = pattern.matrix(lap[:, None, None] * np.eye(3))
        assert np.abs(got.toarray() - kron).max() <= 1e-13 * np.abs(kron).max()
        # the solver multiplies by the BSR blocks of H and of the damped
        # systems, and factors their CSC form: the products agree bit for bit
        for mu in (0.0, 1e-6, 1e-2, 30.0):
            damped = blocks + mu * (lap[:, None, None] * np.eye(3)) if mu else blocks
            bsr, csc = pattern.bsr(damped), pattern.matrix(damped)
            assert bsr.format == "bsr" and bsr.blocksize == (3, 3)
            for v in rng.standard_normal((3, csc.shape[0])):
                assert np.array_equal(bsr @ v, csc @ v)


# Relative error of the full-stage step (float32 factors, two float64
# refinements) against a float64 factorization of the same system, as
# measured on x86-64 with scipy 1.17's SuperLU; the test allows 10x.  The
# rough start of the perturbed annuli is far from minimal, so H is
# indefinite there and small mu leaves the system nearly singular: at 96x48
# and mu = 1e-6, kappa * u32 is about 1/2 and the worst error is 4.7e-2.
# On solver iterates each refinement gains about three digits.
REFINED_STEP_ERROR = {
    (16, 6): {1e-6: 7.1e-11, 1e-2: 3.8e-14, 1.0: 9.2e-16, 30.0: 9.7e-16},
    (96, 48): {1e-6: 4.7e-2, 1e-2: 3.8e-5, 1.0: 8.3e-15, 30.0: 8.2e-15},
}


@pytest.mark.parametrize("nu, nv", [(16, 6), (96, 48)])
@pytest.mark.parametrize("mu", [1e-6, 1e-2, 1.0, 30.0])
def test_refined_float32_step_matches_float64_solve(monkeypatch, nu, nv, mu):
    mesh, interior = perturbed_annulus(nu, nv, seed=11)
    descent = solver._Descent(mesh)
    descent.pattern = pattern = solver._HessianPattern(mesh.triangles, interior)
    factored = []

    def recorded_factor(A):
        factored.append(A)
        return meshmod.factor_float32(A)

    monkeypatch.setattr(solver, "factor_float32", recorded_factor)
    step, _ = descent._factored_solve()(mu)
    (A,) = factored
    # the damped matrix is H + mu kron(L, I3) bit for bit
    blocks, lap = pattern.data(descent.geo.stiffness, descent.geo.normals)
    damped = pattern.matrix(blocks) + mu * pattern.matrix(lap[:, None, None] * np.eye(3))
    assert A.shape == damped.shape and (A != damped).nnz == 0
    want = factor_symmetric(A).solve(-descent.grad.ravel())
    err = np.abs(step.ravel() - want).max() / np.abs(want).max()
    assert err <= 10 * REFINED_STEP_ERROR[nu, nv][mu]


def full_stage_system(descent, mu):
    """H + mu kron(L, I3) at the descent's current surface."""
    pattern = solver._HessianPattern(descent.cur.triangles, descent.interior)
    blocks, lap = pattern.data(descent.geo.stiffness, descent.geo.normals)
    return pattern.matrix(blocks + mu * lap[:, None, None] * np.eye(3))


def test_preconditioned_cg_on_the_exact_factors():
    # the full-stage systems of the stack minimizer, where the solver runs
    # them: the float32 factors of the system itself leave little to do
    descent = stack_descent(1.0, 0.3, 96, 48)
    b = -descent.grad.ravel()
    for mu in (1e-6, 1e-2, 1.0, 30.0):
        A = full_stage_system(descent, mu)
        x, iterations = meshmod.preconditioned_cg(A, b, meshmod.factor_float32(A),
                                                  solver.CG_TOL, solver.CG_MAX_ITERATIONS)
        assert x is not None and 1 <= iterations <= 3
        assert np.linalg.norm(b - A @ x) <= solver.CG_TOL * np.linalg.norm(b)


def test_preconditioned_cg_misses():
    descent = stack_descent(1.0, 0.3, 96, 48)
    b = -descent.grad.ravel()
    A = full_stage_system(descent, 30.0)
    far = meshmod.factor_float32(full_stage_system(descent, 1e-6))
    cap = solver.CG_MAX_ITERATIONS
    # the factors of a far damping: the cap is reached
    assert meshmod.preconditioned_cg(A, b, far, solver.CG_TOL, cap) == (None, cap)
    # -A is negative definite: the first p.Ap is negative
    lu = meshmod.factor_float32(A)
    assert meshmod.preconditioned_cg(-A, b, lu, solver.CG_TOL, cap) == (None, 1)
    # no iteration allowed
    assert meshmod.preconditioned_cg(A, b, lu, solver.CG_TOL, 0) == (None, 0)


@pytest.mark.parametrize("h, d, nu, nv", [(1.0, 0.3, 96, 48), (0.5, 0.4, 64, 32)])
def test_conjugate_gradient_steps_match_factored_steps(monkeypatch, h, d, nu, nv):
    # an inexact step passes the same ratio test against the float64 model:
    # the iterates are those of a factorization at every step
    _, report = solver.solve_annulus(unit_circles(h, d, nu, nv))
    monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 0)
    _, factored = solver.solve_annulus(unit_circles(h, d, nu, nv))
    assert (report.stack_iterations, report.iterations) == (
        factored.stack_iterations, factored.iterations)
    assert report.factorizations < factored.factorizations
    assert report.cg_iterations > 0 and factored.cg_iterations == 0
    assert report.area_history[-1] == pytest.approx(factored.area_history[-1], rel=1e-12)


def test_sheared_degeneration_still_fails():
    # (h, d) = (0.5, 0.5) degenerates in the full stage with factored steps
    # too; conjugate-gradient steps do not make it converge
    with pytest.raises(solver.ConvergenceError, match="^mesh degenerated") as err:
        solver.solve_annulus(unit_circles(0.5, 0.5, 64, 32))
    assert err.value.report.factorizations >= 1


def test_every_factorization_is_float32(monkeypatch):
    # and orders itself: no factorization reuses an earlier one's order.
    # The solver factors its first full-stage system and takes its later
    # steps by conjugate gradients on those factors.
    splu = meshmod.spla.splu
    dtypes, specs, layouts = [], [], []

    def recorded_splu(A, **kwargs):
        dtypes.append(A.dtype)
        specs.append(kwargs["permc_spec"])
        layouts.append((A.format, A.indptr.dtype, A.indices.dtype))
        return splu(A, **kwargs)

    monkeypatch.setattr(meshmod.spla, "splu", recorded_splu)
    mesh, report = solver.solve_annulus(unit_circles(1.0, 0.3, 48, 16))
    assert report.iterations > 1 and len(dtypes) == report.factorizations == 1
    # the capacity factors off its ring grid, and runs conjugate gradients
    # on it
    meshmod.harmonic_capacity(mesh, *mesh.boundary_loops())
    assert len(dtypes) == 1
    off_grid = relabelled(mesh)
    meshmod.harmonic_capacity(off_grid, *off_grid.boundary_loops())
    assert len(dtypes) == 2
    assert set(dtypes) == {np.dtype(np.float32)}
    assert set(specs) == {"MMD_AT_PLUS_A"}
    # the solver's block layout and the capacity's COO assembly alike
    assert set(layouts) == {("csc", np.dtype(np.int32), np.dtype(np.int32))}


def test_safety_slice_interpolates_the_cached_vertex_normals(monkeypatch):
    calls = []

    def recorded_slice(*args, **kwargs):
        calls.append((args[2:], kwargs))
        return meshmod.slice_mesh(*args, **kwargs)

    monkeypatch.setattr(solver, "slice_mesh", recorded_slice)
    _, report = solver.solve_annulus(unit_circles(1.0, 0.3, 48, 16))
    assert report.converged and report.iterations > 0 and calls
    assert all(call == ((), {}) for call in calls)      # no normals passed


def test_unreferenced_vertex_is_rejected():
    # its missing normal would make the safety slice report a tear
    start = unit_circles(1.0, 0.3, 16, 6).start
    mesh = TriMesh(np.vstack([start.vertices, [[0.0, 0.0, 0.5]]]), start.triangles)
    with pytest.raises(MeshError, match=f"^vertex {start.n_vertices} is referenced by no triangle$"):
        solver.minimize_area(mesh)


@pytest.mark.parametrize("failing", [1, 2])
def test_singular_factor_escalates_damping(monkeypatch, failing):
    # the first factorization of the solve, or a later one, is singular
    # once.  Later steps run conjugate gradients on the first factors;
    # with none allowed, every step is factored.
    if failing > 1:
        monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 0)
    splu = meshmod.spla.splu
    shifts = []

    def splu_singular_once(A, **kwargs):
        shifts.append(A.diagonal())
        if len(shifts) == failing:
            raise RuntimeError("Factor is exactly singular")
        return splu(A, **kwargs)

    monkeypatch.setattr(meshmod.spla, "splu", splu_singular_once)
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.3, 0, 1.0), 1.0), nu=48, nv=16)
    mesh, report = solver.solve_annulus(prob)
    assert report.converged
    assert report.residual_history[-1] <= solver.TOLERANCE
    # the retry factors the same Hessian with a larger diagonal shift
    assert len(shifts) > failing + 1 if failing > 1 else len(shifts) >= 2
    assert np.all(shifts[failing] > shifts[failing - 1])


def unit_circles(h, d, nu, nv):
    """Unit circles at heights 0 and h, the upper one offset by d along x."""
    return solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((d, 0, h), 1.0), nu=nu, nv=nv)


def test_coaxial_stack_minimizer_is_critical():
    # rotational symmetry: the stack minimizer needs no full iteration, and
    # it has the area the full solve converged to from the ruled start
    _, report = solver.solve_annulus(unit_circles(1.2, 0.0, 64, 32))
    assert report.converged and report.iterations == 0
    assert report.stack_iterations > 0
    assert abs(report.area_history[-1] - 6.99575808156) <= 1e-9


def test_pinch_found_before_any_factorization(monkeypatch):
    calls = []
    splu = meshmod.spla.splu
    monkeypatch.setattr(meshmod.spla, "splu",
                        lambda *a, **k: calls.append(1) or splu(*a, **k))
    with pytest.raises(solver.NoAnnulusError):
        solver.solve_annulus(unit_circles(1.5, 0.0, 64, 32))
    assert calls == []


def stack_descent(h, d, nu, nv):
    descent = solver._Descent(unit_circles(h, d, nu, nv).start)
    descent.stack_stage()
    return descent


def stack_residual(descent):
    """The stack residual of the descent's current surface, which the
    stack stage drives below STACK_TOL_RATIO * TOLERANCE."""
    return solver._stack_basis(descent.start).residual(descent.geo, descent.interior)


def test_stack_basis_recognizes_circle_stacks():
    ruled = solver.initial_annulus(unit_circles(1.0, 0.3, 16, 6))
    B = solver._stack_basis(ruled).matrix
    assert B.shape == (3 * 16 * 5, 3 * 5)
    # the interior vertices are the image of the ring parameters under B
    rings = ruled.vertices.reshape(7, 16, 3)[1:-1, :, :2]
    centers = rings.mean(axis=1)
    radii = np.linalg.norm(rings[:, 0] - centers, axis=1)
    moved = B @ np.column_stack([centers, radii]).ravel()
    interior = ~ruled.boundary_vertex_mask()
    flat = ruled.vertices[interior].copy()
    flat[:, 2] = 0.0
    assert np.allclose(moved.reshape(-1, 3), flat, atol=1e-14)
    catenoid = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -0.5, 0.5, 32, 8))
    assert solver._stack_basis(catenoid) is not None
    perturbed, _ = perturbed_annulus(16, 6, seed=3)
    assert solver._stack_basis(perturbed) is None
    flipped = TriMesh(ruled.vertices, ruled.triangles[:, [0, 2, 1]])
    assert solver._stack_basis(flipped) is None


def test_residuals_are_inf_on_zero_vertex_area():
    # collapsed triangles: no NaN (nor a warning) reaches the >= of `_iterate`
    ruled = solver.initial_annulus(unit_circles(1.0, 0.3, 16, 6))
    interior = ~ruled.boundary_vertex_mask()
    geo = meshmod.edge_geometry(TriMesh(np.zeros_like(ruled.vertices), ruled.triangles))
    assert solver.mean_curvature_residual(geo, interior)[1] == math.inf
    assert solver._stack_basis(ruled).residual(geo, interior) == math.inf


def test_minimize_area_runs_the_stack_stage_on_circle_stacks():
    catenoid = surfaces.catenoid_mesh(surfaces.CatenoidSpec(0.9, -0.5, 0.5, 48, 16))
    _, report = solver.minimize_area(catenoid)
    assert report.converged and report.stack_iterations > 0
    perturbed, _ = perturbed_annulus(16, 6, seed=3)
    _, report = solver.minimize_area(perturbed)
    assert report.converged and report.stack_iterations == 0


def test_stack_stage_keeps_horizontal_circles():
    nu, nv = 48, 16
    descent = stack_descent(1.0, 0.3, nu, nv)
    assert stack_residual(descent) <= solver.STACK_TOL_RATIO * solver.TOLERANCE
    assert descent.report.stack_iterations > 0
    assert descent.report.area_history[-1] < descent.report.area_history[0]
    start = descent.start.vertices.reshape(nv + 1, nu, 3)
    rings = descent.cur.vertices.reshape(nv + 1, nu, 3)
    assert np.array_equal(rings[:, :, 2], start[:, :, 2])   # heights held
    for ring in rings[1:-1]:
        center = ring[:, :2].mean(axis=0)
        radii = np.linalg.norm(ring[:, :2] - center, axis=1)
        assert np.ptp(radii) <= 1e-12 * radii.mean()
    # the centers moved off the straight line of the ruled start
    assert np.abs(rings[1:-1, :, :2].mean(axis=1)
                  - start[1:-1, :, :2].mean(axis=1)).max() > 1e-3


def test_ruled_start_built_once(monkeypatch):
    calls = []
    build = solver._revolution_mesh
    monkeypatch.setattr(solver, "_revolution_mesh",
                        lambda *a, **k: calls.append(1) or build(*a, **k))
    prob = unit_circles(1.0, 0.3, 32, 8)
    _, report = solver.solve_annulus(prob)
    assert report.converged and len(calls) == 1
    # the start is no part of the problem's value
    twin = unit_circles(1.0, 0.3, 32, 8)
    assert prob == twin and hash(prob) == hash(twin)
    assert "start" not in repr(prob)


def test_problems_at_one_resolution_share_one_triangle_array():
    a, b = unit_circles(1.0, 0.3, 32, 8), unit_circles(1.0, 0.5, 32, 8)
    assert a.start.triangles is b.start.triangles
    assert not a.start.triangles.flags.writeable


def squeezed_ring(descent, j, factor):
    """The descent's current surface with interior ring j shrunk about its
    center by `factor`, accepted as its iterate."""
    grid = RingGrid.of(descent.start)
    verts = descent.cur.vertices.copy().reshape(grid.nv + 1, grid.nu, 3)
    ring = verts[j, :, :2]
    verts[j, :, :2] = ring.mean(axis=0) + factor * (ring - ring.mean(axis=0))
    squeezed = TriMesh(verts.reshape(-1, 3), descent.cur.triangles)
    descent._accept(squeezed, meshmod.edge_geometry(squeezed))


def test_degeneration_in_stack_stage_is_no_annulus(monkeypatch):
    # a stack degenerates only as a ring collapses: in the stack stage that
    # is the verdict that no annulus exists, in the full stage the solver's
    # failure
    descent = stack_descent(1.0, 0.3, 32, 8)
    squeezed_ring(descent, 1, 1e-6)             # the ring above the lower circle
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)   # each stage only checks
    with pytest.raises(solver.NoAnnulusError,
                       match=r"^no annulus: mesh degenerated \(min/mean"):
        descent.stack_stage()
    with pytest.raises(solver.ConvergenceError, match=r"^mesh degenerated \(min/mean") as err:
        descent.full_stage()
    assert err.value.report is not None


def test_pinch_after_stack_stage_is_degeneration(monkeypatch):
    # a pinch in the full stage is the solver's failure (ConvergenceError),
    # not NoAnnulusError: only the stack stage says that no annulus exists
    descent = stack_descent(1.0, 0.3, 32, 8)
    squeezed_ring(descent, 4, 1e-3)             # the ring at h / 2
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
    with pytest.raises(solver.ConvergenceError, match="^mesh degenerated: neck pinched"):
        descent.full_stage()


def test_pinch_of_a_start_that_is_no_stack_is_degeneration():
    # a mesh that is not a stack of circles gets the full stage alone, so
    # its pinch says nothing about existence
    start = unit_circles(2.0, 0.0, 32, 16).start
    interior = ~start.boundary_vertex_mask()
    verts = start.vertices.copy()
    verts[interior] += 1e-3 * np.random.default_rng(0).standard_normal(verts[interior].shape)
    mesh = TriMesh(verts, start.triangles)
    assert solver._stack_basis(mesh) is None
    with pytest.raises(solver.ConvergenceError,
                       match="^mesh degenerated: neck pinched below 2% of the "
                             "boundary circumference$"):
        solver.minimize_area(mesh)


def test_sheared_annulus_converges():
    # inside the existence region of the Riemann examples (ROADMAP item 2);
    # from the ruled start the solve pinched
    mesh, report = solver.solve_annulus(unit_circles(0.5, 0.4, 64, 32))
    assert report.converged
    assert report.residual_history[-1] <= 1e-6
    mesh.validate()


# The exit map of the two-circle problem at 32x16: a unit circle at height
# 0, a circle of radius R1 at height h offset by d along x.  An entry is 0
# with the stack and full iterations of a converged solve, or the exit code
# of a failure with its class (p a pinch, t a tear, d a degeneration, n no
# convergence): 2 no annulus (the stack stage failed), 3 the full stage's
# mesh degenerated.  A failure has no counts here: the iteration at which
# a degeneration check fires follows the rounding of a diverging run.  A
# change that moves an entry updates this literal, and its diff is the list
# of changed exit codes.
EXIT_MAP_32X16 = {
    (1.0, 0.2): "0:6+0  3d     3d     3d     3d",
    (1.0, 0.5): "0:6+0  0:7+5  3d     3d     3d",
    (1.0, 1.0): "0:6+0  0:7+2  0:7+3  0:8+4  0:8+6",
    (1.0, 1.3): "0:8+0  0:9+2  2p     2p     2p",
    (1.0, 1.5): "2p     2p     2p     2p     2p",
    (0.5, 0.2): "0:8+0  0:9+4  3d     3d     3d",
    (0.5, 0.5): "0:7+0  0:8+3  3d     3d     3d",
    (0.5, 1.0): "2p     2p     2p     2p     2p",
    (0.5, 1.3): "2p     2p     2p     2p     2p",
    (0.5, 1.5): "2p     2p     2p     2p     2p",
}


def exit_class(problem):
    """The exit-map entry of one solve: see EXIT_MAP_32X16."""
    try:
        _, report = solver.solve_annulus(problem)
        return f"0:{report.stack_iterations}+{report.iterations}"
    except solver.NoAnnulusError as exc:
        code, message = 2, str(exc)
    except solver.ConvergenceError as exc:
        code, message = 3, str(exc)
    kind = ("p" if "pinched" in message else "t" if "tore" in message
            else "d" if "degenerated" in message else "n")
    return f"{code}{kind}"


def test_exit_map_at_32x16_is_pinned():
    got = {}
    for (r1, h), row in EXIT_MAP_32X16.items():
        got[r1, h] = [exit_class(solver.AnnulusProblem(
            solver.Circle((0, 0, 0.0), 1.0), solver.Circle((d, 0, h), r1), nu=32, nv=16))
            for d in (0.0, 0.2, 0.4, 0.6, 0.8)]
    assert got == {key: row.split() for key, row in EXIT_MAP_32X16.items()}
