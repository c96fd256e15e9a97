"""Analytic and ODE-generated minimal tubes with known invariants.

The 2-D catenoid in R^3 is the main ground-truth surface: its flow vector,
slice circumferences, Gauss image and total curvature are all closed-form.
Rotational hypersurfaces of revolution in R^n (n >= 4) supply the
finite-life-time examples via their profile ODE first integral
f^(n-2) / sqrt(1 + f'^2) = f0^(n-2): in closed form, the life-time is a Beta
function and the axial distance an incomplete Beta integral.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .mesh import RingGrid, TriMesh

# scipy.special is imported where used, so importing the CLI does not load it.

PROFILE_SAMPLES = 200


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
        a, ends = self.neck_radius, np.array([self.v_min, self.v_max])
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(a * np.cosh(ends / a))):
                raise ValueError(f"the radius a cosh(v/a) overflows on [{self.v_min:.6g}, "
                                 f"{self.v_max:.6g}]; ask for a larger a or a shorter band")


def _revolution_mesh(radii: np.ndarray, heights: np.ndarray, nu: int,
                     centers: np.ndarray | None = None) -> TriMesh:
    """Surface of revolution on `RingGrid(nu, len(radii) - 1)`: ring j is
    the circle of radius radii[j] at height heights[j], about the axis or,
    given centers (nv + 1, 2), about centers[j]."""
    grid = RingGrid(nu, len(radii) - 1)
    verts = radii[:, None, None] * grid.directions
    verts[:, :, 2] = heights[:, None]
    if centers is not None:
        verts[:, :, :2] += centers[:, None, :]
    return TriMesh(verts.reshape(-1, 3), grid.triangles)


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
        # log of f^m / (neck^m sqrt(1 + f'^2)), which cannot overflow; its
        # size is the relative error of the first integral, and NaN fails it
        m = self.n - 2
        err = np.abs(m * np.log(self.f / self.neck) - np.log(np.hypot(1.0, self.fp)))
        if not np.all(err <= 1e-6):
            raise ValueError(
                f"first integral violated: max relative error {np.max(err):.3e}"
            )


def _half_lifetime(m: int) -> float:
    a = 0.5 - 0.5 / m
    return math.gamma(a) * math.sqrt(math.pi) / math.gamma(a + 0.5) / (2 * m)


def _axial_distance(m: int, s: np.ndarray) -> np.ndarray:
    """t/f0 = integral_1^s ds/sqrt(s^(2m) - 1) at each s = f/f0 >= 1: acosh(s)
    for m = 1, else the half life-time times I_x(1/2, a), x = 1 - s^(-2m)
    (DLMF 8.17), taken past x = 1/2 as 1 - I_u(a, 1/2), u = s^(-2m), so that
    neither end cancels its digits."""
    if m == 1:
        return np.arccosh(s)
    from scipy.special import betainc

    a, log_u = 0.5 - 0.5 / m, -2.0 * m * np.log(s)
    x = -np.expm1(log_u)
    return _half_lifetime(m) * np.where(x < 0.5, betainc(0.5, a, x),
                                        1.0 - betainc(a, 0.5, np.exp(log_u)))


def ncatenoid_profile(n: int, f0: float, f_cap: float | None = None,
                      t_span: float | None = None) -> ProfileCurve:
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
    elif t_span <= 0:
        raise ValueError("t_span must be positive")
    elif m == 1:
        with np.errstate(over="ignore"):
            s_cap = float(np.cosh(t_span / f0))
    elif t_span >= f0 * _half_lifetime(m):
        raise ValueError("t_span exceeds the life-time of this catenoid")
    else:
        from scipy.special import betainc, betaincinv

        # invert _axial_distance on the side of x = 1/2 it evaluates on; u is
        # 0 only for a t_span within rounding of the half life-time
        a, p = 0.5 - 0.5 / m, t_span / f0 / _half_lifetime(m)
        with np.errstate(divide="ignore"):
            log_u = (np.log1p(-betaincinv(0.5, a, p)) if p < betainc(0.5, a, 0.5)
                     else np.log(betaincinv(a, 0.5, max(1.0 - p, 0.0))))
        s_cap = math.exp(-log_u / (2 * m))
    if m * math.log(s_cap) >= math.log(sys.float_info.max):
        raise ValueError(f"the profile slope (f/f0)^{m} overflows at "
                         f"f/f0 = {s_cap:.6g}; ask for a smaller cap")
    # Uniform grid in w = sqrt(s - 1) clusters samples at the neck where the
    # profile turns fastest.
    w = np.linspace(0.0, math.sqrt(s_cap - 1.0), PROFILE_SAMPLES)
    s = 1.0 + w * w
    t = f0 * _axial_distance(m, s)
    f = f0 * s
    # f' = sqrt(s^(2m) - 1) = s^m sqrt(1 - s^(-2m)), accurate at the neck
    log_s = np.log(s)
    fp = np.exp(m * log_s) * np.sqrt(-np.expm1(-2 * m * log_s))
    return ProfileCurve(n, f0, t, f, fp)


def ncatenoid_lifetime(n: int, f0: float) -> float:
    """Life-time 2*f0*integral_1^inf ds/sqrt(s^(2m) - 1), m = n - 2, finite for
    n >= 4; u = s^(-2m) makes it the Beta value 2*f0*B(1/2 - 1/(2m), 1/2)/(2m)."""
    if n < 4:
        raise ValueError("life-time is infinite for n = 3; need n >= 4")
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    lifetime = f0 * (2.0 * _half_lifetime(n - 2))
    if lifetime == math.inf:
        raise ValueError(f"the life-time overflows at f0 = {f0:.6g}; ask for a smaller f0")
    if 0 < lifetime < sys.float_info.min:
        raise ValueError(f"the life-time underflows at f0 = {f0:.6g}; ask for a larger f0")
    return lifetime


def flat_annulus_mesh(r_inner: float, r_outer: float, nu: int, nr: int) -> TriMesh:
    """Planar annulus in the x3 = 0 plane; control surface for capacity tests.

    Radial rings are geometrically spaced so the log-potential is resolved
    uniformly.
    """
    if not 0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    radii = np.geomspace(r_inner, r_outer, nr + 1)
    return _revolution_mesh(radii, np.zeros(nr + 1), nu)
