"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with -s to see them).

Criterion 4 is split: the two sub-claims asserting that the measured
Dirichlet energy of the catenoid slab equals (height/flux) are marked
strict-xfail because direct computation yields the reciprocal flux/height
(the flat-annulus control, which passes, is consistent with the measured
convention).  See the decisions ledger for the analysis.
"""

import math

import numpy as np
import pytest

from mintube import cli, exterior as ext, flux, surfaces
from mintube.mesh import harmonic_capacity, slice_mesh, vertex_normals


def emit(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag}: {name}{suffix}")
    return ok


# -- criterion 1: multivector identity suite --------------------------------

def exterior_case_error(rng, n):
    """Max error over all identity checks for one random draw in dim n."""
    grades = np.array([bin(i).count("1") for i in range(1 << n)])

    def kform(k):
        return ext.Multivector(n, np.where(grades == k, rng.standard_normal(1 << n), 0.0))

    err = 0.0
    k = int(rng.integers(0, n + 1))
    x, y = kform(k), kform(k)
    # double Hodge star is +-1 gradewise
    sign = (-1.0) ** (k * (n - k))
    err = max(err, float(np.max(np.abs(
        ext.hodge(ext.hodge(x)).coeffs - sign * x.coeffs))))
    # wedge against the Hodge dual recovers the inner product
    lhs = ext.wedge(x, ext.hodge(y))
    rhs = ext.inner(x, y) * ext.Multivector.volume(n)
    err = max(err, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    # the Hodge star is an isometry
    err = max(err, abs(ext.inner(ext.hodge(x), ext.hodge(y)) - ext.inner(x, y)))
    # interior product adjoint to wedging: <x, u _| y> = <u ^ x, y>
    u, xm, ym = (ext.Multivector(n, rng.standard_normal(1 << n)) for _ in range(3))
    err = max(err, abs(ext.inner(xm, ext.interior(u, ym))
                       - ext.inner(ext.wedge(u, xm), ym)))
    # contraction of a Hodge dual: a _| (*b) = *(b ^ a)
    r_grade = int(rng.integers(0, n + 1))
    k_grade = int(rng.integers(0, n + 1 - r_grade))
    a, b = kform(r_grade), kform(k_grade)
    lhs = ext.interior(a, ext.hodge(b))
    rhs = ext.hodge(ext.wedge(b, a))
    err = max(err, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    # complement projection vs Gram-projection oracle
    kdim = int(rng.integers(1, n))
    frame = ext.SubspaceFrame.orthonormalize(rng.standard_normal((kdim, n)))
    vec = rng.standard_normal(n)
    oracle = vec - frame.vectors.T @ (frame.vectors @ vec)
    err = max(err, float(np.max(np.abs(
        ext.project_complement(frame, vec) - oracle))))
    # hyperplane-pair contraction, absolute form: |<q, xi>| = |<eta, pi_T(q)>|
    basis = ext.SubspaceFrame.orthonormalize(rng.standard_normal((n, n)))
    vs = basis.vectors.copy()
    if np.linalg.det(vs) < 0:
        vs[-1] = -vs[-1]
    xi, eta, taus = vs[0], vs[1], vs[2:]
    t_frame = ext.SubspaceFrame(n, taus)
    q = rng.standard_normal(n)
    err = max(err, abs(abs(q @ xi)
                       - abs(eta @ ext.pi_V(t_frame, q).to_vector())))
    return err


def test_criterion_1_exterior_suite():
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (3, 4, 5, 6):
        for _ in range(1000):
            worst = max(worst, exterior_case_error(rng, n))
    ok = worst <= 1e-10
    assert emit("criterion 1 - exterior-algebra suite, 1000 cases per n in 3..6",
                ok, f"max error {worst:.2e}")


# -- criterion 2: catenoid flow vector --------------------------------------

def test_criterion_2_catenoid_flow(catenoid_fine, catenoid_fine_a2):
    ok = True
    details = []
    for a, mesh in ((1.0, catenoid_fine), (2.0, catenoid_fine_a2)):
        J = flux.flow_vector_total(slice_mesh(mesh, 0.25))
        j_norm = float(np.linalg.norm(J))
        rel_j3 = abs(J[2] - 2 * math.pi * a) / (2 * math.pi * a)
        horiz = float(np.hypot(J[0], J[1]))
        alpha = flux.flow_angle(J)
        dev = flux.analyze_tube(mesh, levels=[-0.5, 0.0, 0.5],
                                compute_capacity=False).flow_level_deviation
        ok &= rel_j3 <= 1e-3 and horiz <= 1e-6 * j_norm
        ok &= alpha <= 1e-5 and dev <= 1e-3 * j_norm
        details.append(f"a={a:g}: dJ3 {rel_j3:.1e}, alpha {alpha:.1e}, "
                       f"level dev {dev / j_norm:.1e}")
    assert emit("criterion 2 - catenoid flow vector and level invariance",
                ok, "; ".join(details))


# -- criterion 3: cycle identities ------------------------------------------

def identity_residuals(mesh, level, q):
    normals = vertex_normals(mesh)
    worst = 0.0
    for cycle in slice_mesh(mesh, level, normals):
        if not cycle.closed:
            continue
        scale = cycle.length() * float(np.linalg.norm(q))
        r11 = flux.verify_axial_cycle_identity(cycle, q)
        r12a, r12b = flux.verify_conormal_cycle_identity(cycle, q)
        worst = max(worst, r11 / scale, r12a / scale, r12b / scale)
    return worst


def test_criterion_3_identities(catenoid_fine, catenoid_coarse,
                                annulus_fine, annulus_coarse):
    q = np.array([0.6, -0.8, 0.4])
    ok = True
    details = []
    pairs = (("catenoid", catenoid_fine, catenoid_coarse, (0.3, -0.4)),
             ("annulus", annulus_fine[0], annulus_coarse[0], (0.35, 0.6)))
    for name, fine, coarse, levels in pairs:
        fine_res = max(identity_residuals(fine, t, q) for t in levels)
        coarse_res = max(identity_residuals(coarse, t, q) for t in levels)
        ok &= fine_res <= 1e-3
        # The discrete identities hold to rounding; halving is satisfied
        # outright or trivially once both residuals sit at the noise floor.
        ok &= fine_res <= max(0.5 * coarse_res, 1e-12)
        details.append(f"{name}: residual {fine_res:.1e}")
    assert emit("criterion 3 - cycle identities at 256x128 with refinement halving",
                ok, "; ".join(details))


# -- criterion 4: capacity law ----------------------------------------------

@pytest.mark.xfail(strict=True, reason="the measured Dirichlet energy of the "
                   "unit catenoid slab is flux/height = pi, the reciprocal of "
                   "the height/flux value this sub-criterion expects")
def test_criterion_4_catenoid_expected_value(catenoid_fine):
    check = flux.verify_capacity_law(catenoid_fine, -1.0, 1.0)
    ok = abs(check.measured - 1.0 / math.pi) <= 0.02 / math.pi
    emit("criterion 4a - catenoid slab capacity equals 1/pi",
         ok, f"measured {check.measured:.5f}, expected {1.0 / math.pi:.5f}")
    assert ok


@pytest.mark.xfail(strict=True, reason="measured capacity scales as 1/height: "
                   "doubling the slab halves the Dirichlet energy")
def test_criterion_4_doubling_doubles(catenoid_fine, catenoid_wide):
    cap1 = flux.verify_capacity_law(catenoid_fine, -1.0, 1.0).measured
    cap2 = flux.verify_capacity_law(catenoid_wide, -2.0, 2.0).measured
    ok = abs(cap2 - 2.0 * cap1) <= 0.02 * 2.0 * cap1
    emit("criterion 4b - doubling the slab doubles capacity",
         ok, f"cap[-1,1] {cap1:.5f}, cap[-2,2] {cap2:.5f}")
    assert ok


def test_criterion_4_flat_annulus_control():
    mesh = surfaces.flat_annulus_mesh(1.0, 3.0, 256, 64)
    lp0, lp1 = mesh.boundary_loops()
    cap, _ = harmonic_capacity(mesh, lp0, lp1)
    expect = 2.0 * math.pi / math.log(3.0)
    ok = abs(cap - expect) <= 0.01 * expect
    assert emit("criterion 4c - flat annulus capacity 2*pi/log(3)",
                ok, f"measured {cap:.5f}, expected {expect:.5f}")


def test_criterion_4_measured_convention(catenoid_fine, catenoid_wide):
    # companion check: the energy actually follows flux/height, halving
    # when the slab doubles
    c1 = flux.verify_capacity_law(catenoid_fine, -1.0, 1.0)
    c2 = flux.verify_capacity_law(catenoid_wide, -2.0, 2.0)
    ok = c1.rel_error_flux_over_height <= 0.02 and c2.rel_error_flux_over_height <= 0.02
    ok &= abs(c2.measured - 0.5 * c1.measured) <= 0.02 * 0.5 * c1.measured
    assert emit("criterion 4 (companion) - energy follows flux/height",
                ok, f"measured {c1.measured:.5f} vs pi, "
                    f"doubled slab {c2.measured:.5f} vs pi/2")


# -- criterion 5: rotational catenoid life-times ----------------------------

def test_criterion_5_lifetimes():
    value = surfaces.ncatenoid_lifetime(4, 1.0)
    ok = abs(value - 2.62206) <= 1e-3 * 2.62206
    seq = [surfaces.ncatenoid_lifetime(n, 1.0) for n in (4, 5, 6, 7)]
    ok &= all(math.isfinite(v) for v in seq)
    ok &= all(a > b for a, b in zip(seq, seq[1:]))
    partial = surfaces.ncatenoid_profile(3, 1.0, f_cap=1e3).t[-1]
    ok &= partial > 5.0
    scaled = surfaces.ncatenoid_lifetime(4, 2.5)
    ok &= abs(scaled - 2.5 * value) <= 1e-6 * scaled
    assert emit("criterion 5 - n-catenoid life-times",
                ok, f"n=4 {value:.5f}; n=3 partial {partial:.2f}; "
                    f"sequence {'/'.join(f'{v:.3f}' for v in seq)}")


# -- criteria 6 and 7: solver annulus end-to-end ----------------------------

def test_criterion_6_diameter_bound_end_to_end(annulus_coarse, annulus_fine):
    mesh_c, rep_c = annulus_coarse
    mesh_f, rep_f = annulus_fine
    ok = rep_c.residual_history[-1] <= 1e-6 and rep_f.residual_history[-1] <= 1e-6
    report_c = flux.analyze_tube(mesh_c, n_levels=10, compute_capacity=False)
    report_f = flux.analyze_tube(mesh_f, n_levels=10, compute_capacity=False)
    ok &= report_f.alpha > 0.01
    eps_d = max(abs(f.diameter_margin - c.diameter_margin)
                for f, c in zip(report_f.slices, report_c.slices))
    eps_k = max(abs(f.curvature_margin - c.curvature_margin)
                for f, c in zip(report_f.slices, report_c.slices))
    ok &= all(s.diameter_margin >= -eps_d for s in report_f.slices)
    ok &= all(s.curvature_margin >= -eps_k for s in report_f.slices)
    assert emit("criterion 6 - diameter and curvature bounds on the offset annulus",
                ok, f"residual {rep_f.residual_history[-1]:.1e}, "
                    f"alpha {report_f.alpha:.4f}, "
                    f"min margins {report_f.min_diameter_margin():.3f}/"
                    f"{report_f.min_curvature_margin():.3f}, "
                    f"eps_disc {eps_d:.1e}/{eps_k:.1e}")


def test_criterion_7_lifetime_direction(annulus_fine, catenoid_fine):
    mesh, _ = annulus_fine
    report = flux.analyze_tube(mesh, n_levels=10, compute_capacity=False)
    bound = report.lifetime_bound
    ok = (not bound.unbounded) and bound.value >= report.slab_height
    cat_report = flux.analyze_tube(catenoid_fine, n_levels=5, compute_capacity=False)
    ok &= cat_report.lifetime_bound.unbounded
    ok &= cat_report.lifetime_bound.to_json_value() == "unbounded"
    assert emit("criterion 7 - life-time bound dominates the slab height",
                ok, f"bound {bound.value:.2f} vs height "
                    f"{report.slab_height:g}; catenoid unbounded")


# -- criterion 8: vector-sum angle bound ------------------------------------

def test_criterion_8_sum_angle_and_sin_alpha():
    rng = np.random.default_rng(8)
    slack_min = math.inf
    for _ in range(1000):
        dim = int(rng.integers(2, 6))
        e = rng.standard_normal(dim)
        e /= np.linalg.norm(e)
        vs = []
        for _ in range(int(rng.integers(1, 9))):
            v = rng.standard_normal(dim)
            if v @ e < 0:
                v = v - 2.0 * (v @ e) * e
            vs.append(v)
        alpha, alpha_max = flux.sum_angle_bound(vs, e)
        slack_min = min(slack_min, alpha_max - alpha)
    ok = slack_min >= -1e-12
    # brute-force the sin-alpha identity on a 10^4-point circle of q _|_ J
    J = np.array([0.3, -0.2, 1.1])
    b1 = flux.orthogonal_tilt_direction(J)
    b2 = np.cross(J / np.linalg.norm(J), b1)
    thetas = np.linspace(0.0, 2 * math.pi, 10_000, endpoint=False)
    qs = np.outer(np.cos(thetas), b1) + np.outer(np.sin(thetas), b2)
    brute = float(np.max(qs[:, 2] / np.linalg.norm(qs, axis=1)))
    gap = abs(brute - math.sin(flux.flow_angle(J)))
    ok &= gap <= 1e-6
    assert emit("criterion 8 - vector-sum angle bound and sin-alpha identity",
                ok, f"min slack {slack_min:.1e}, brute-force gap {gap:.1e}")


# -- criterion 9: CLI determinism -------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["catenoid", "--res", "96x48", "--levels", "4"],
        ["ncatenoid", "--n", "3..6"],
        ["solve-annulus", "--res", "48x16", "--offset", "0.2", "--levels", "3"],
        ["sweep", "--res", "48x16", "--offsets", "0.0", "0.2", "--levels", "3"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        d1, d2 = tmp_path / f"{i}a", tmp_path / f"{i}b"
        ok &= cli.main(argv + ["--outdir", str(d1)]) == 0
        ok &= cli.main(argv + ["--outdir", str(d2)]) == 0
        files1 = {p.name: p.read_bytes() for p in sorted(d1.iterdir())}
        files2 = {p.name: p.read_bytes() for p in sorted(d2.iterdir())}
        ok &= files1 == files2 and len(files1) > 0
    # analyze consumes the catenoid OBJ emitted above
    src = tmp_path / "0a" / "catenoid.obj"
    d1, d2 = tmp_path / "za", tmp_path / "zb"
    argv = ["analyze", str(src), "--levels", "3"]
    ok &= cli.main(argv + ["--outdir", str(d1)]) == 0
    ok &= cli.main(argv + ["--outdir", str(d2)]) == 0
    ok &= {p.name: p.read_bytes() for p in d1.iterdir()} == \
          {p.name: p.read_bytes() for p in d2.iterdir()}
    assert emit("criterion 9 - CLI reruns are byte-identical", ok)
