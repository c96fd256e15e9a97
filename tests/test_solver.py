"""Area minimization: analytic oracle, convergence contract, failure modes."""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import brentq

from mintube import solver
from mintube.mesh import MeshError, TriMesh, cot_laplacian


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


def test_offset_property():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.3, 0.4, 1.0), 1.0))
    assert prob.offset == pytest.approx(0.5)


def test_initial_annulus_boundary_circles():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.3, 0, 1.0), 0.8), nu=32, nv=8)
    mesh = solver.initial_annulus(prob)
    mesh.validate(tube_axis_check=True)
    r_bottom = np.hypot(mesh.vertices[:32, 0], mesh.vertices[:32, 1])
    assert np.allclose(r_bottom, 1.0)
    top = mesh.vertices[-32:]
    assert np.allclose(np.hypot(top[:, 0] - 0.3, top[:, 1]), 0.8)


def test_coaxial_solution_matches_catenoid():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, -0.5), 1.0),
                                 solver.Circle((0, 0, 0.5), 1.0), nu=64, nv=32)
    mesh, report = solver.solve_annulus(prob)
    assert report.converged
    assert report.residual_history[-1] <= prob.options.tolerance
    a = brentq(lambda x: x * math.cosh(0.5 / x) - 1.0, 0.5, 1.0)
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    expect = a * np.cosh(mesh.vertices[:, 2] / a)
    assert np.max(np.abs(r - expect)) < 2e-3


def test_boundary_vertices_bit_identical():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.2, 0, 1.0), 1.0), nu=48, nv=16)
    initial = solver.initial_annulus(prob)
    mesh, _ = solver.minimize_area(initial, prob.options)
    fixed = initial.boundary_vertex_mask()
    assert np.array_equal(mesh.vertices[fixed], initial.vertices[fixed])


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
    assert h.max() * mesh.mean_edge_length() == pytest.approx(
        report.residual_history[-1], rel=1e-9)


def test_report_json():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0, 0, 1.0), 1.0), nu=48, nv=16)
    _, report = solver.solve_annulus(prob)
    doc = json.loads(report.to_json())
    assert doc["converged"] is True
    assert doc["final_residual"] == report.residual_history[-1]
    assert doc["iterations"] == report.iterations


def test_coaxial_circles_below_critical_height_converge():
    # a catenoid spans coaxial unit circles up to h ~ 1.3255
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0, 0, 1.3), 1.0), nu=64, nv=32)
    _, report = solver.solve_annulus(prob)
    assert report.converged
    assert report.residual_history[-1] <= prob.options.tolerance


def test_far_circles_pinch_detected():
    # distance 4 between unit circles: no embedded annulus; the neck pinches
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0, 0, 4.0), 1.0), nu=48, nv=24)
    with pytest.raises(solver.NoAnnulusError):
        solver.solve_annulus(prob)


def test_iteration_cap_raises_with_report():
    prob = solver.AnnulusProblem(
        solver.Circle((0, 0, 0.0), 1.0), solver.Circle((0.3, 0, 1.0), 1.0),
        nu=48, nv=16,
        options=solver.SolverOptions(max_iterations=2, tolerance=1e-14))
    with pytest.raises(solver.ConvergenceError) as err:
        solver.solve_annulus(prob)
    assert err.value.report is not None
    assert err.value.report.converged is False


def test_minimize_area_requires_two_loops():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    disk = TriMesh(verts, np.array([[0, 1, 2]]))
    with pytest.raises(MeshError):
        solver.minimize_area(disk)


def small_annulus():
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.2, 0, 1.0), 1.0), nu=16, nv=6)
    return solver.initial_annulus(prob)


def test_area_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    mesh = small_annulus()
    verts = mesh.vertices

    def grad(v):
        L, _ = cot_laplacian(TriMesh(v, mesh.triangles))
        return L @ v

    # every vertex a dof: the full (3N, 3N) Hessian
    full = solver._HessianPattern(mesh.triangles, np.ones(len(verts), bool))
    H = full.matrix(full.values(solver._area_hessian(verts, mesh.triangles)))
    assert H.shape == (3 * len(verts), 3 * len(verts))
    d = rng.standard_normal(verts.shape) * 1e-6
    fd = grad(verts + d) - grad(verts - d)
    hd = 2.0 * (H @ d.ravel()).reshape(-1, 3)
    assert np.abs(fd - hd).max() < 1e-4 * np.abs(hd).max()


def test_offset_annulus_converges(annulus_coarse):
    mesh, report = annulus_coarse
    assert report.converged
    assert report.residual_history[-1] <= 1e-6
    mesh.validate(tube_axis_check=True)


def test_hessian_pattern_matches_coo_assembly():
    mesh = small_annulus()
    rng = np.random.default_rng(5)
    interior = ~mesh.boundary_vertex_mask()
    verts = mesh.vertices.copy()
    verts[interior] += 0.02 * rng.standard_normal(verts[interior].shape)
    tris = mesh.triangles
    perturbed = TriMesh(verts, tris)
    blocks = solver._area_hessian(verts, tris)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            for a in range(3):
                for b in range(3):
                    rows.append(3 * tris[:, i] + a)
                    cols.append(3 * tris[:, j] + b)
                    vals.append(blocks[:, i, j, a, b])
    n = 3 * len(verts)
    H = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    idx = np.flatnonzero(interior)
    dofs = (3 * idx[:, None] + np.arange(3)).ravel()
    L, _ = cot_laplacian(perturbed)
    mu = 0.37
    expect = (H[dofs][:, dofs]
              + mu * sp.kron(L[idx][:, idx], sp.identity(3))).toarray()
    pattern = solver._HessianPattern(tris, interior)
    got = pattern.matrix(pattern.values(blocks) + mu * pattern.values(
        solver._laplacian_blocks(perturbed)))
    assert got.format == "csc" and got.has_sorted_indices
    assert np.abs(got.toarray() - expect).max() <= 1e-13 * np.abs(expect).max()


def test_singular_factor_escalates_damping(monkeypatch):
    splu = solver.spla.splu
    shifts = []

    def splu_singular_once(A, **kwargs):
        shifts.append(A.diagonal())
        if len(shifts) == 1:
            raise RuntimeError("Factor is exactly singular")
        return splu(A, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", splu_singular_once)
    prob = solver.AnnulusProblem(solver.Circle((0, 0, 0.0), 1.0),
                                 solver.Circle((0.3, 0, 1.0), 1.0), nu=48, nv=16)
    mesh, report = solver.solve_annulus(prob)
    assert report.converged
    assert report.residual_history[-1] <= prob.options.tolerance
    # the retry factors the same Hessian with a larger diagonal shift
    assert len(shifts) > 2
    assert np.all(shifts[1] > shifts[0])
