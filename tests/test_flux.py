"""Flow vectors, inequality verifiers and the whole-tube report."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mintube import exterior, flux, surfaces
from mintube.mesh import (
    TriMesh,
    gauss_image_diameter,
    gauss_image_length,
    slice_mesh,
    total_curvature,
)


def catenoid(a=1.0, v=(-1.0, 1.0), res=(128, 64)):
    return surfaces.catenoid_mesh(surfaces.CatenoidSpec(a, v[0], v[1], *res))


# -- flow vector ------------------------------------------------------------

def test_flow_vector_matches_analytic_flux():
    mesh = catenoid()
    (cycle,) = slice_mesh(mesh, 0.3)
    J = flux.flow_vector(cycle)
    assert np.linalg.norm(J - surfaces.catenoid_flux(1.0)) < 1e-3 * np.linalg.norm(J)


def test_flow_vector_additive_over_components():
    mesh = catenoid()
    cycles = slice_mesh(mesh, 0.3)
    total = flux.flow_vector_total(cycles)
    assert np.allclose(total, sum(flux.flow_vector(c) for c in cycles))
    with pytest.raises(ValueError):
        flux.flow_vector_total([])


def test_flow_angle_domain():
    assert flux.flow_angle([0.0, 0.0, 2.0]) == 0.0
    assert flux.flow_angle([1.0, 0.0, 1.0]) == pytest.approx(math.pi / 4)
    with pytest.raises(ValueError):
        flux.flow_angle([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        flux.flow_angle([0.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        flux.flow_angle([0.0, 0.0, 0.0])


def test_flow_invariance_across_levels():
    mesh = catenoid()
    J = surfaces.catenoid_flux(1.0)
    dev = flux.analyze_tube(mesh, levels=[-0.5, 0.0, 0.5],
                            compute_capacity=False).flow_level_deviation
    assert dev < 1e-3 * np.linalg.norm(J)


def test_orthogonal_tilt_direction():
    J = np.array([1.0, 0.0, 2.0])
    q = flux.orthogonal_tilt_direction(J)
    assert abs(q @ J) < 1e-12
    assert np.linalg.norm(q) == pytest.approx(1.0)
    # the largest q3 over unit q _|_ J is sin(alpha)
    assert q[2] == pytest.approx(math.sin(flux.flow_angle(J)), abs=1e-12)
    # axial J: any horizontal direction; e1 is the deterministic pick
    assert np.allclose(flux.orthogonal_tilt_direction([0, 0, 1.0]), [1, 0, 0])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_sin_alpha_maximization_random(seed):
    rng = np.random.default_rng(seed)
    J = rng.standard_normal(3)
    J[2] = abs(J[2]) + 0.1
    expect = math.sin(flux.flow_angle(J))
    assert flux.orthogonal_tilt_direction(J)[2] == pytest.approx(expect, abs=1e-12)


# -- identities -------------------------------------------------------------

def test_axial_cycle_identity_closed():
    mesh = catenoid()
    (cycle,) = slice_mesh(mesh, 0.3)
    q = np.array([0.3, -1.1, 0.7])
    resid = flux.verify_axial_cycle_identity(cycle, q)
    assert resid < 1e-10 * cycle.length() * np.linalg.norm(q)


def test_conormal_cycle_identity_closed():
    mesh = catenoid()
    (cycle,) = slice_mesh(mesh, 0.3)
    q = np.array([1.0, 0.4, -0.2])
    plus, minus = flux.verify_conormal_cycle_identity(cycle, q)
    scale = cycle.length() * np.linalg.norm(q)
    assert plus < 1e-10 * scale and minus < 1e-10 * scale


def test_tangent_contraction_matches_exterior_operator():
    # the closed form t x q against pi_T(q) = *(sigma(T) ^ q), per segment
    mesh = catenoid(res=(64, 32))
    q = np.array([0.6, -0.8, 0.4])
    for level in (0.3, -0.4):
        for cycle in slice_mesh(mesh, level):
            expect = np.array([
                exterior.pi_V(exterior.SubspaceFrame(3, t[None, :]), q).to_vector()
                for t in cycle.tangents])
            got = flux._tangent_contraction(cycle, q)
            assert np.abs(got - expect).max() <= 1e-15


def test_identities_require_closed_cycles():
    mesh = catenoid()
    (cycle,) = slice_mesh(mesh, 0.3)
    import dataclasses
    open_cycle = dataclasses.replace(cycle, closed=False)
    with pytest.raises(ValueError):
        flux.verify_axial_cycle_identity(open_cycle, [1.0, 0, 0])
    with pytest.raises(ValueError):
        flux.verify_conormal_cycle_identity(open_cycle, [1.0, 0, 0])


# -- inequality verifiers ---------------------------------------------------

def test_diameter_bound_on_catenoid():
    mesh = catenoid()
    (cycle,) = slice_mesh(mesh, 0.3)
    diameter = gauss_image_diameter(cycle.normals)
    alpha = flux.flow_angle(flux.flow_vector(cycle))
    # axial flow: alpha ~ 0 while the Gauss image of a full slice has
    # diameter bounded away from zero -> large positive margin
    assert alpha < 1e-5
    assert diameter > 0.1
    (s,) = flux.analyze_tube(mesh, levels=[0.3], compute_capacity=False).slices
    assert s.gauss_diameter == diameter
    assert s.diameter_margin == diameter - 2.0 * alpha
    assert s.diameter_margin > 0.1


def test_slice_curvature_bound_latitude_length():
    mesh = catenoid(res=(256, 128))
    (cycle,) = slice_mesh(mesh, 0.5)
    length = gauss_image_length(cycle)
    four_alpha = 4.0 * flux.flow_angle(flux.flow_vector(cycle))
    assert length == pytest.approx(2 * math.pi / math.cosh(0.5), rel=2e-3)
    assert four_alpha < 1e-4
    (s,) = flux.analyze_tube(mesh, levels=[0.5], compute_capacity=False).slices
    assert s.gauss_length == length
    assert s.curvature_margin == length - four_alpha
    assert s.curvature_margin > 0


def test_slice_records_measure_each_cycle():
    # two sheared catenoid bands side by side: every slice has two tilted
    # components, each with its own alpha
    band = catenoid(res=(64, 32))
    v, t = band.vertices, band.triangles
    left = v + np.outer(v[:, 2], [0.3, 0.0, 0.0])
    right = v * [0.5, 0.5, 1.0] + np.outer(v[:, 2], [0.0, -0.1, 0.0]) + [4.0, 0.0, 0.0]
    mesh = TriMesh(np.vstack([left, right]), np.vstack([t, t + len(v)]))
    levels = [-0.4, 0.1, 0.6]
    report = flux.analyze_tube(mesh, levels=levels, compute_capacity=False)
    for level, s in zip(levels, report.slices):
        cycles = slice_mesh(mesh, level)
        js = [flux.flow_vector(c) for c in cycles]
        alphas = [flux.flow_angle(j) for j in js]
        diameters = [gauss_image_diameter(c.normals) for c in cycles]
        lengths = [gauss_image_length(c) for c in cycles]
        assert s.components == 2 and min(alphas) > 0.01
        assert s.flow_vector == pytest.approx(np.sum(js, axis=0), rel=1e-14)
        assert s.two_alpha == pytest.approx(2.0 * flux.flow_angle(np.sum(js, axis=0)))
        assert s.gauss_diameter == max(diameters)
        assert s.gauss_length == pytest.approx(sum(lengths), rel=1e-14)
        assert s.diameter_margin == pytest.approx(
            min(d - 2.0 * a for d, a in zip(diameters, alphas)), rel=1e-14)
        assert s.curvature_margin == pytest.approx(
            min(gl - 4.0 * a for gl, a in zip(lengths, alphas)), rel=1e-14)


def test_capacity_check_on_catenoid_slab():
    mesh = catenoid(res=(192, 96))
    check = flux.verify_capacity_law(mesh, -1.0, 1.0)
    # measured energy tracks J3/(t2-t1) = pi on the unit catenoid
    assert check.flux_over_height == pytest.approx(math.pi, rel=1e-3)
    assert check.rel_error_flux_over_height < 1e-2
    assert check.height_over_flux == pytest.approx(1.0 / math.pi, rel=1e-3)


def test_capacity_check_level_mismatch_raises():
    mesh = catenoid()
    with pytest.raises(ValueError):
        flux.verify_capacity_law(mesh, -2.0, 1.0)


def test_lifetime_bound_values():
    lb = flux.lifetime_bound([0.1, 0.0, 1.0], 2.0)
    alpha = flux.flow_angle([0.1, 0.0, 1.0])
    expect = np.linalg.norm([0.1, 0, 1.0]) * 2.0 * math.cos(alpha) / (16 * alpha ** 2)
    assert not lb.unbounded
    assert lb.value == pytest.approx(expect)
    assert lb.to_json_value() == lb.value


def test_lifetime_bound_axial_is_unbounded():
    lb = flux.lifetime_bound([0.0, 0.0, 1.0], 2.0)
    assert lb.unbounded and lb.value == math.inf
    assert lb.to_json_value() == "unbounded"
    with pytest.raises(ValueError):
        flux.lifetime_bound([0.0, 0.0, 1.0], -1.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8), st.integers(2, 5))
def test_sum_angle_bound_random(seed, count, dim):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(dim)
    e /= np.linalg.norm(e)
    vs = []
    for _ in range(count):
        v = rng.standard_normal(dim)
        if v @ e < 0:
            v = v - 2.0 * (v @ e) * e  # reflect into the admissible halfspace
        vs.append(v)
    alpha, alpha_max = flux.sum_angle_bound(vs, e)
    assert alpha <= alpha_max + 1e-12


def test_sum_angle_bound_rejects_obtuse():
    with pytest.raises(ValueError):
        flux.sum_angle_bound([[0.0, 0.0, -1.0]], [0.0, 0.0, 1.0])


# -- whole-tube report ------------------------------------------------------

def test_analyze_tube_catenoid_report():
    mesh = catenoid()
    report = flux.analyze_tube(mesh, n_levels=5)
    assert report.alpha < 1e-4
    assert report.flow_vector[2] == pytest.approx(2 * math.pi, rel=1e-3)
    assert len(report.slices) == 5
    assert report.lifetime_bound.unbounded
    assert report.min_diameter_margin() > 0
    assert report.min_curvature_margin() > 0
    assert report.slab_height == pytest.approx(2.0)


def test_report_json_roundtrip_and_determinism():
    mesh = catenoid(res=(64, 32))
    report = flux.analyze_tube(mesh, n_levels=3)
    text = report.to_json()
    assert text == flux.analyze_tube(mesh, n_levels=3).to_json()
    doc = json.loads(text)
    assert doc["schema"] == flux.SCHEMA_VERSION
    assert doc["angle_unit"] == "radians"
    assert len(doc["slices"]) == 3
    assert doc["lifetime_bound"] == "unbounded"


def test_report_csv_shape():
    mesh = catenoid(res=(64, 32))
    report = flux.analyze_tube(mesh, n_levels=4)
    lines = report.slices_csv().splitlines()
    assert len(lines) == 5
    assert lines[0].split(",")[0] == "level"


def test_analyze_tube_explicit_levels():
    mesh = catenoid(res=(64, 32))
    report = flux.analyze_tube(mesh, levels=[-0.25, 0.25], compute_capacity=False)
    assert [s.level for s in report.slices] == pytest.approx([-0.25, 0.25])
    assert report.capacity is None


def test_total_curvature_feeds_lifetime_bound():
    mesh = catenoid(res=(128, 64))
    report = flux.analyze_tube(mesh, n_levels=3, compute_capacity=False)
    assert report.total_curvature == pytest.approx(total_curvature(mesh)[0])
