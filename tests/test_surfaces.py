"""Analytic catenoids, rotational profile curves, control surfaces."""

import math

import numpy as np
import pytest

from mintube import solver, surfaces
from mintube.mesh import cot_stiffness, slice_mesh, total_curvature, vertex_normals


def residual(mesh):
    """The solver's stopping measure, max |H| * mean edge length."""
    interior = ~mesh.boundary_vertex_mask()
    return solver.mean_curvature_residual(mesh, interior, cot_stiffness(mesh))[1]


def test_catenoid_spec_validation():
    with pytest.raises(ValueError):
        surfaces.CatenoidSpec(-1.0, -1.0, 1.0, 64, 32)
    with pytest.raises(ValueError):
        surfaces.CatenoidSpec(1.0, 1.0, -1.0, 64, 32)
    with pytest.raises(ValueError):
        surfaces.CatenoidSpec(1.0, -1.0, 1.0, 4, 32)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            surfaces.CatenoidSpec(bad, -1.0, 1.0, 64, 32)
        with pytest.raises(ValueError, match="finite"):
            surfaces.CatenoidSpec(1.0, -bad, 1.0, 64, 32)


def test_catenoid_mesh_counts_and_loops():
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 64, 32))
    assert mesh.n_vertices == 64 * 33
    assert len(mesh.boundary_loops()) == 2
    mesh.validate(tube_axis_check=True)


@pytest.mark.parametrize("nu", [9, 12])
def test_revolution_mesh_triangles_match_quad_loop(nu):
    nv = 5
    mesh = surfaces._revolution_mesh(np.ones(nv + 1), np.arange(nv + 1.0), nu)
    # Reference: the quad loop, diagonals alternating with the parity of i + j.
    tris = []
    for j in range(nv):
        for i in range(nu):
            i1 = (i + 1) % nu
            v00, v10 = j * nu + i, j * nu + i1
            v01, v11 = (j + 1) * nu + i, (j + 1) * nu + i1
            if (i + j) % 2 == 0:
                tris += [(v00, v11, v10), (v00, v01, v11)]
            else:
                tris += [(v00, v01, v10), (v10, v01, v11)]
    assert mesh.triangles.dtype == np.int64
    assert np.array_equal(mesh.triangles, np.array(tris))


def test_catenoid_vertices_on_surface():
    a = 1.3
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(a, -0.7, 1.1, 64, 32))
    r2 = mesh.vertices[:, 0] ** 2 + mesh.vertices[:, 1] ** 2
    expect = a ** 2 * np.cosh(mesh.vertices[:, 2] / a) ** 2
    assert np.max(np.abs(r2 - expect)) < 1e-12


def test_catenoid_mean_curvature_residual_second_order():
    # cotangent residual of the analytic surface decreases ~ h^2
    res = []
    for nu, nv in ((64, 32), (128, 64), (256, 128)):
        mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, nu, nv))
        res.append(residual(mesh))
    assert res[0] > res[1] > res[2]
    assert res[2] < res[0] / 8.0  # at least cubic-in-h drop over 2 refinements


def test_catenoid_normals_match_analytic():
    a = 1.0
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(a, -1.0, 1.0, 128, 64))
    normals = vertex_normals(mesh)
    expect = np.array([surfaces.catenoid_normal(p, a) for p in mesh.vertices])
    interior = ~mesh.boundary_vertex_mask()  # one-sided stars bias the rim
    assert np.max(np.linalg.norm((normals - expect)[interior], axis=1)) < 5e-3


def test_catenoid_flux_value():
    J = surfaces.catenoid_flux(2.5)
    assert np.allclose(J, [0.0, 0.0, 5.0 * math.pi])
    with pytest.raises(ValueError):
        surfaces.catenoid_flux(0.0)


def test_catenoid_total_curvature_oracle():
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, 256, 128))
    expect = surfaces.catenoid_total_curvature(1.0, -1.0, 1.0)
    assert expect == pytest.approx(2.0 * math.pi * 2.0 * math.tanh(1.0))
    assert total_curvature(mesh)[0] == pytest.approx(expect, rel=1e-2)


def test_catenoid_slice_circumference():
    a, t = 1.0, 0.4
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(a, -1.0, 1.0, 256, 128))
    (cycle,) = slice_mesh(mesh, t)
    assert cycle.closed
    assert cycle.length() == pytest.approx(2 * math.pi * a * math.cosh(t / a), rel=1e-3)


# -- rotational profiles ----------------------------------------------------

def test_profile_first_integral_enforced():
    prof = surfaces.ncatenoid_profile(4, 1.0, f_cap=3.0)
    m = prof.n - 2
    fi = prof.f ** m / np.sqrt(1.0 + prof.fp ** 2)
    assert np.max(np.abs(fi - 1.0)) < 1e-6
    with pytest.raises(ValueError):
        surfaces.ProfileCurve(4, 1.0, prof.t, prof.f * 1.01, prof.fp)


def test_profile_argument_validation():
    with pytest.raises(ValueError):
        surfaces.ncatenoid_profile(2, 1.0, f_cap=2.0)
    with pytest.raises(ValueError):
        surfaces.ncatenoid_profile(4, 1.0)
    with pytest.raises(ValueError):
        surfaces.ncatenoid_profile(4, 1.0, f_cap=2.0, t_span=1.0)
    with pytest.raises(ValueError):
        surfaces.ncatenoid_profile(4, 1.0, f_cap=0.5)


def test_profile_t_span_inversion():
    prof = surfaces.ncatenoid_profile(4, 1.0, t_span=1.0)
    assert prof.t[-1] == pytest.approx(1.0, abs=1e-9)


def test_profile_t_span_beyond_lifetime_rejected():
    half_life = 0.5 * surfaces.ncatenoid_lifetime(4, 1.0)
    with pytest.raises(ValueError):
        surfaces.ncatenoid_profile(4, 1.0, t_span=half_life * 1.01)


def test_lifetime_oracle_and_monotonicity():
    assert surfaces.ncatenoid_lifetime(4, 1.0) == pytest.approx(2.62206, rel=1e-4)
    values = [surfaces.ncatenoid_lifetime(n, 1.0) for n in range(4, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        surfaces.ncatenoid_lifetime(3, 1.0)


def test_lifetime_large_n_is_finite_and_decreasing():
    # the integrands are written in negative powers of s, so that s^(2m)
    # cannot overflow; 68 is the first n that overflowed in positive powers
    values = [surfaces.ncatenoid_lifetime(n, 1.0) for n in range(66, 71)]
    assert all(math.isfinite(v) and v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    # for large n the life-time tends to pi/(n - 2)
    assert surfaces.ncatenoid_lifetime(1000, 1.0) == pytest.approx(math.pi / 998, rel=2e-3)


def test_lifetime_small_n_values_kept():
    # the values the positive-power integrands gave
    expect = {4: 2.6220575542921205, 5: 1.402182105325454,
              6: 0.96395164815037737, 7: 0.73581879608117617}
    for n, value in expect.items():
        assert surfaces.ncatenoid_lifetime(n, 1.0) == pytest.approx(value, rel=1e-13)


def test_lifetime_scales_linearly_in_neck():
    base = surfaces.ncatenoid_lifetime(5, 1.0)
    assert surfaces.ncatenoid_lifetime(5, 3.0) == pytest.approx(3.0 * base, rel=1e-9)


def test_n3_profile_is_standard_catenoid():
    # n=3 first integral gives f = f0*cosh(t/f0)
    prof = surfaces.ncatenoid_profile(3, 2.0, f_cap=10.0)
    assert np.max(np.abs(prof.f - 2.0 * np.cosh(prof.t / 2.0))) < 1e-6


def test_ncatenoid_mesh_minimal():
    prof = surfaces.ncatenoid_profile(3, 1.0, t_span=1.0, samples=80)
    mesh = surfaces.ncatenoid_mesh(prof, nu=128)
    mesh.validate()
    assert residual(mesh) < 2e-3
    with pytest.raises(ValueError):
        surfaces.ncatenoid_mesh(surfaces.ncatenoid_profile(4, 1.0, f_cap=2.0))


def test_flat_annulus_mesh():
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 128, 48)
    mesh.validate()
    assert len(mesh.boundary_loops()) == 2
    with pytest.raises(ValueError):
        surfaces.flat_annulus_mesh(3.0, 1.0, 64, 16)
