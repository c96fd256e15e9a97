"""Analytic and ODE-generated minimal tubes with known invariants.

The 2-D catenoid in R^3 is the main ground-truth surface: its flow vector,
slice circumferences, Gauss image and total curvature are all closed-form.
Rotational hypersurfaces of revolution in R^n (n >= 4) supply the
finite-life-time examples via their profile ODE first integral
f^(n-2) / sqrt(1 + f'^2) = f0^(n-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .mesh import TriMesh

QUAD_TOL = 1e-9


@dataclass(frozen=True)
class CatenoidSpec:
    """Catenoid band x1^2 + x2^2 = a^2 cosh^2(x3/a), x3 in [v_min, v_max]."""

    neck_radius: float
    v_min: float
    v_max: float
    nu: int
    nv: int

    def __post_init__(self):
        if not 0 < self.neck_radius < math.inf:
            raise ValueError("neck_radius must be finite and positive")
        if not math.isfinite(self.v_min) or not math.isfinite(self.v_max):
            raise ValueError("v_min and v_max must be finite")
        if not self.v_min < self.v_max:
            raise ValueError("v_min must be below v_max")
        if self.nu < 8 or self.nv < 2:
            raise ValueError("resolution too coarse: need nu >= 8, nv >= 2")


def _revolution_mesh(radii: np.ndarray, heights: np.ndarray, nu: int,
                     centers: np.ndarray | None = None) -> TriMesh:
    """Closed-in-u grid surface of revolution; rows may be offset by centers.

    Triangles are wound so that vertex normals point toward the axis at a
    neck (matching gamma = (-cos u, -sin u, sinh v)/cosh v on the catenoid).
    Diagonals alternate per quad for isotropy.
    """
    nv = len(radii) - 1
    u = np.arange(nu) * (2.0 * math.pi / nu)
    cos_u, sin_u = np.cos(u), np.sin(u)
    verts = np.empty(((nv + 1) * nu, 3))
    for j in range(nv + 1):
        row = slice(j * nu, (j + 1) * nu)
        verts[row, 0] = radii[j] * cos_u
        verts[row, 1] = radii[j] * sin_u
        verts[row, 2] = heights[j]
        if centers is not None:
            verts[row, 0] += centers[j, 0]
            verts[row, 1] += centers[j, 1]
    j, i = np.indices((nv, nu))
    v00, v10 = j * nu + i, j * nu + (i + 1) % nu
    quad = np.stack([v00, v10, v00 + nu, v10 + nu], axis=-1)  # v00 v10 v01 v11
    # Two triangles per quad as corners of `quad`, by the parity of i + j.
    split = np.array([[0, 3, 1, 0, 2, 3], [0, 2, 1, 1, 2, 3]])
    tris = np.take_along_axis(quad, split[(i + j) % 2], axis=2).reshape(-1, 3)
    return TriMesh(verts, tris)


def catenoid_mesh(spec: CatenoidSpec) -> TriMesh:
    """Triangulated catenoid band with two boundary loops."""
    a = spec.neck_radius
    v = np.linspace(spec.v_min, spec.v_max, spec.nv + 1)
    return _revolution_mesh(a * np.cosh(v / a), v, spec.nu)


def catenoid_normal(point: np.ndarray, a: float) -> np.ndarray:
    """Unit normal of the catenoid at a surface point (analytic)."""
    x, y, z = point
    c = math.cosh(z / a)
    u = math.atan2(y, x)
    return np.array([-math.cos(u), -math.sin(u), math.sinh(z / a)]) / c


def catenoid_flux(a: float) -> np.ndarray:
    """Flow vector of the catenoid: (0, 0, 2*pi*a), independent of level."""
    if a <= 0:
        raise ValueError("neck radius must be positive")
    return np.array([0.0, 0.0, 2.0 * math.pi * a])


def catenoid_total_curvature(a: float, v1: float, v2: float) -> float:
    """Integral of -K over the band v in [v1, v2]: 2*pi*(tanh(v2/a) - tanh(v1/a))."""
    if v1 > v2:
        raise ValueError("v1 must not exceed v2")
    return 2.0 * math.pi * (math.tanh(v2 / a) - math.tanh(v1 / a))


# ---------------------------------------------------------------------------
# Rotational (n-1)-dimensional catenoids


@dataclass(frozen=True)
class ProfileCurve:
    """Profile f(t) of a rotational minimal hypersurface in R^n.

    Samples hold (t, f, f') on t >= 0; the surface is symmetric in t.
    """

    n: int
    neck: float
    t: np.ndarray = field(repr=False)
    f: np.ndarray = field(repr=False)
    fp: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("ambient dimension must be >= 3")
        if self.neck <= 0:
            raise ValueError("neck radius must be positive")
        if np.any(self.f <= 0):
            raise ValueError("profile radius must stay positive")
        m = self.n - 2
        first_integral = self.f**m / np.sqrt(1.0 + self.fp**2)
        rel = np.abs(first_integral - self.neck**m) / self.neck**m
        if np.max(rel) > 1e-6:
            raise ValueError(
                f"first integral violated: max relative error {np.max(rel):.3e}"
            )

    def mirrored(self):
        """(t, f) samples extended symmetrically to t < 0."""
        t = np.concatenate([-self.t[:0:-1], self.t])
        f = np.concatenate([self.f[:0:-1], self.f])
        return t, f


def _arclength_integrand(m: int):
    # t(s) = integral of ds/sqrt(s^(2m) - 1); substituting s = 1 + w^2
    # removes the inverse-square-root singularity at the neck.  With
    # L = log(s), the integrand 2w/sqrt(e^(2mL) - 1) is written in negative
    # powers, 2w e^(-mL)/sqrt(1 - e^(-2mL)), so that it cannot overflow for
    # large m; expm1/log1p keep 1 - e^(-2mL) accurate where w^2 is below
    # double rounding.
    def g(w: float) -> float:
        if w == 0.0:
            return 2.0 / math.sqrt(2.0 * m)
        L = math.log1p(w * w)
        return 2.0 * w * math.exp(-m * L) / math.sqrt(-math.expm1(-2.0 * m * L))

    return g


def _axial_distance(m: int, s: float) -> float:
    """t/f0 as a function of s = f/f0 >= 1."""
    if s < 1.0:
        raise ValueError("s must be >= 1")
    if s == 1.0:
        return 0.0
    val, _ = quad(_arclength_integrand(m), 0.0, math.sqrt(s - 1.0),
                  epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    return val


def ncatenoid_profile(n: int, f0: float, f_cap: float | None = None,
                      t_span: float | None = None, samples: int = 200) -> ProfileCurve:
    """Profile of the (n-1)-dimensional catenoid from the neck outward.

    Exactly one of f_cap (radius cap) or t_span (axial cap) must be given.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    if (f_cap is None) == (t_span is None):
        raise ValueError("give exactly one of f_cap or t_span")
    m = n - 2
    if f_cap is not None:
        if f_cap <= f0:
            raise ValueError("f_cap must exceed the neck radius")
        s_cap = f_cap / f0
    else:
        if t_span <= 0:
            raise ValueError("t_span must be positive")
        target = t_span / f0
        if n >= 4 and t_span >= 0.5 * ncatenoid_lifetime(n, f0):
            raise ValueError("t_span exceeds the life-time of this catenoid")
        hi = 2.0
        while _axial_distance(m, hi) < target:
            hi *= 2.0
            if hi > 1e15:
                raise ValueError("failed to bracket the requested t_span")
        s_cap = brentq(lambda s: _axial_distance(m, s) - target, 1.0 + 1e-14, hi)
    # Uniform grid in w = sqrt(s - 1) clusters samples at the neck where the
    # profile turns fastest.
    w = np.linspace(0.0, math.sqrt(s_cap - 1.0), samples)
    s = 1.0 + w * w
    t = f0 * np.array([_axial_distance(m, si) for si in s])
    f = f0 * s
    fp = np.sqrt(np.maximum(s ** (2 * m) - 1.0, 0.0))
    return ProfileCurve(n, f0, t, f, fp)


def ncatenoid_lifetime(n: int, f0: float) -> float:
    """Life-time 2*f0*integral_1^inf ds/sqrt(s^(2(n-2)) - 1); finite for n >= 4."""
    if n < 4:
        raise ValueError("life-time is infinite for n = 3; need n >= 4")
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    m = n - 2
    near, _ = quad(_arclength_integrand(m), 0.0, 1.0,
                   epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    # 1/sqrt(s^(2m) - 1) in negative powers of s, which cannot overflow
    far, _ = quad(lambda s: s ** -m / math.sqrt(1.0 - s ** (-2 * m)), 2.0, np.inf,
                  epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    return 2.0 * f0 * (near + far)


def ncatenoid_mesh(profile: ProfileCurve, nu: int = 64) -> TriMesh:
    """Surface of revolution of a 3-D profile (n == 3 only)."""
    if profile.n != 3:
        raise ValueError("meshing is only supported for surfaces in R^3")
    t, f = profile.mirrored()
    return _revolution_mesh(f, t, nu)


def flat_annulus_mesh(r_inner: float, r_outer: float, nu: int, nr: int) -> TriMesh:
    """Planar annulus in the x3 = 0 plane; control surface for capacity tests.

    Radial rings are geometrically spaced so the log-potential is resolved
    uniformly.
    """
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    radii = np.geomspace(r_inner, r_outer, nr + 1)
    return _revolution_mesh(radii, np.zeros(nr + 1), nu)
