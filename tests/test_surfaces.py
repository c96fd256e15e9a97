"""Analytic catenoids, rotational profile curves, control surfaces."""

import math
import sys

import numpy as np
import pytest

from mintube import flux, solver, surfaces
from mintube.mesh import (RingGrid, TriMesh, edge_geometry, slice_mesh,
                          total_curvature, vertex_normals)


def residual(mesh):
    """The solver's stopping measure, max |H| * mean edge length."""
    interior = ~mesh.boundary_vertex_mask()
    return solver.mean_curvature_residual(edge_geometry(mesh), interior)[1]


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
    mesh.validate()


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
    assert np.array_equal(RingGrid(nu, nv).triangles, np.array(tris))


@pytest.mark.parametrize("nu", [9, 12])
def test_ring_grid_strips_repeat_by_parity(nu):
    # the stack stage reads every strip off the first two
    tris = RingGrid(nu, 5).triangles.reshape(5, 2 * nu, 3)
    for s, strip in enumerate(tris):
        assert set(np.unique(strip // nu)) == {s, s + 1}
        assert np.array_equal(strip, tris[s % 2] + nu * (s - s % 2))


def test_ring_grid_of_recognizes_the_grid():
    sheared = solver.initial_annulus(solver.AnnulusProblem(
        solver.Circle((0, 0, 0.0), 1.0), solver.Circle((0.4, 0, 0.5), 0.7), nu=16, nv=6))
    catenoid = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -0.5, 0.5, 32, 8))
    flat = surfaces.flat_annulus_mesh(1.0, 3.0, 24, 5)
    for mesh, nu, nv in ((sheared, 16, 6), (catenoid, 32, 8), (flat, 24, 5)):
        assert RingGrid.of(mesh) == RingGrid(nu, nv)
    flipped = TriMesh(sheared.vertices, sheared.triangles[:, [0, 2, 1]])
    extra = TriMesh(np.vstack([sheared.vertices, [5.0, 5.0, 5.0]]), sheared.triangles)
    closed = TriMesh(np.eye(4, 3), [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    assert closed.boundary_loops() == []
    for mesh in (flipped, extra, closed):
        assert RingGrid.of(mesh) is None


def test_catenoid_vertices_on_surface():
    a = 1.3
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(a, -0.7, 1.1, 64, 32))
    r2 = mesh.vertices[:, 0] ** 2 + mesh.vertices[:, 1] ** 2
    expect = a ** 2 * np.cosh(mesh.vertices[:, 2] / a) ** 2
    assert np.max(np.abs(r2 - expect)) < 1e-12


def test_catenoid_residual_flux_and_curvature_convergence_orders():
    # a = 1, v in [-1, 1]: per halving of h the residual falls by 8, the
    # flux error at the slice v = 0.25 by 4 and the total-curvature error by 2
    G = surfaces.catenoid_total_curvature(1.0, -1.0, 1.0)
    errors = []
    for nu in (64, 128, 256):
        mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(1.0, -1.0, 1.0, nu, nu // 2))
        J = flux.flow_vector_total(slice_mesh(mesh, 0.25))
        errors.append((residual(mesh), abs(J[2] / (2.0 * math.pi) - 1.0),
                       abs(total_curvature(mesh)[0] / G - 1.0)))
    ratios = np.array(errors[:-1]) / errors[1:]     # one row per halving of h
    assert np.all(np.array(errors[0]) < [4e-4, 6e-4, 2e-2])
    assert np.all((ratios > [7.5, 3.8, 1.9]) & (ratios < [8.5, 4.2, 2.1])), ratios


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


def test_profile_overflow_and_nan_rejected():
    # s^(n-2) overflows here: the profile is refused, with no warning (the
    # suite turns warnings into errors) and no NaN slipping past the check
    with pytest.raises(ValueError, match="overflows"):
        surfaces.ncatenoid_profile(200, 1.0, f_cap=100.0)
    prof = surfaces.ncatenoid_profile(150, 1.0, f_cap=100.0)
    assert np.all(np.isfinite(prof.fp)) and prof.fp[-1] > 1e295
    for bad in (np.nan, np.inf):
        fp = prof.fp.copy()
        fp[-1] = bad
        with pytest.raises(ValueError, match="first integral"):
            surfaces.ProfileCurve(150, 1.0, prof.t, prof.f, fp)


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


def quadrature_axial_distance(m, s):
    """integral_1^s ds/sqrt(s^(2m) - 1) by adaptive quadrature to 1e-9, the
    reference for the closed form.  Near the neck it substitutes s = 1 + w^2, which
    removes the inverse-square-root singularity, and writes the integrand
    2w/sqrt(e^(2mL) - 1), L = log(s), in negative powers of e^L so that it
    cannot overflow.  For m >= 2 past s = 2 it adds the life-time's far
    integrand s^-m/sqrt(1 - s^(-2m)) over [2, inf) and takes away its tail
    over [s, inf), written with sigma = s y so that quad integrates at unit
    scale."""
    from scipy.integrate import quad

    def near(w):
        if w == 0.0:
            return 2.0 / math.sqrt(2.0 * m)
        L = math.log1p(w * w)
        return 2.0 * w * math.exp(-m * L) / math.sqrt(-math.expm1(-2.0 * m * L))

    def far(sigma, scale=1.0):
        return sigma ** -m / math.sqrt(1.0 - (scale * sigma) ** (-2 * m))

    tol = dict(epsabs=1e-9, epsrel=1e-9, limit=200)
    if m == 1 or s <= 2.0:
        return quad(near, 0.0, math.sqrt(s - 1.0), **tol)[0]
    tail = math.exp((1 - m) * math.log(s)) * quad(far, 1.0, np.inf, args=(s,), **tol)[0]
    return quad(near, 0.0, 1.0, **tol)[0] + quad(far, 2.0, np.inf, **tol)[0] - tail


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 66, 148, 500])
def test_axial_distance_matches_quadrature(m):
    # from just past the neck to far out; the quadrature's own error
    # reaches 1.2e-12 for m = 1 (at s = 1e6)
    s = np.array([1 + 1e-15, 1 + 1e-12, 1 + 1e-8, 1 + 1e-4, 1.01, 1.1, 1.5, 2.0,
                  3.0, 10.0, 1e3, 1e6, 1e15, 1e50, 1e100])
    s = s[m * np.log(s) < 700]
    expect = [quadrature_axial_distance(m, si) for si in s]
    got = surfaces._axial_distance(m, s)
    assert np.allclose(got, expect, rtol=5e-12 if m == 1 else 1e-12, atol=0.0)
    assert surfaces._axial_distance(m, np.array([1.0]))[0] == 0.0


@pytest.mark.parametrize("n", [4, 5, 7, 12])
def test_profile_t_span_round_trip(n):
    half_life = 0.5 * surfaces.ncatenoid_lifetime(n, 1.0)
    for frac in np.linspace(0.01, 0.9999, 25):
        prof = surfaces.ncatenoid_profile(n, 1.0, t_span=frac * half_life)
        assert prof.t[-1] == pytest.approx(frac * half_life, rel=1e-11)


def test_profile_t_span_at_the_float_limits_rejected():
    # cosh(1000) is past the float range
    with pytest.raises(ValueError, match="overflows"):
        surfaces.ncatenoid_profile(3, 1.0, t_span=1000.0)
    # a t_span just below the half life-time whose ratio to it rounds to 1
    f0 = 2.75
    t_span = np.nextafter(f0 * surfaces._half_lifetime(2), 0.0)
    assert t_span / f0 / surfaces._half_lifetime(2) == 1.0
    with pytest.raises(ValueError, match="overflows"):
        surfaces.ncatenoid_profile(4, f0, t_span=t_span)


def test_lifetime_oracle_and_monotonicity():
    # the Beta values 2 B(1/2 - 1/(2m), 1/2)/(2m), m = n - 2, from 50 digits
    exact = {4: 2.6220575542921196, 5: 1.4021821053254542,
             6: 0.9639516481503774, 7: 0.7358187960811762}
    for n, value in exact.items():
        assert surfaces.ncatenoid_lifetime(n, 1.0) == pytest.approx(value, rel=1e-15)
    values = [surfaces.ncatenoid_lifetime(n, 1.0) for n in range(4, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        surfaces.ncatenoid_lifetime(3, 1.0)


def test_lifetime_large_n_is_finite_and_decreasing():
    # 68 is the first n whose life-time quadrature overflowed, when its
    # integrand was written in positive powers of s
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


def test_flat_annulus_mesh():
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 128, 48)
    mesh.validate()
    assert len(mesh.boundary_loops()) == 2
    with pytest.raises(ValueError):
        surfaces.flat_annulus_mesh(3.0, 1.0, 64, 16)


def test_lifetime_below_the_normal_range_rejected():
    # pi f0 (1 + O(1/n)) for large n: 3.14e-311 here, a subnormal with
    # digits lost
    with pytest.raises(ValueError, match="underflows"):
        surfaces.ncatenoid_lifetime(10**6, 1e-305)
    assert surfaces.ncatenoid_lifetime(10**6, 1e-300) >= sys.float_info.min
