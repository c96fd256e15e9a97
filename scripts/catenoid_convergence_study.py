#!/usr/bin/env python3
"""Refinement study on the analytic catenoid band: discrete mean-curvature
residual, flux error and total-curvature error at a ladder of resolutions.

Usage: python3 scripts/catenoid_convergence_study.py [a] [v_half]
"""

import math
import sys

from mintube import flux, surfaces
from mintube.mesh import edge_geometry, slice_mesh, total_curvature
from mintube.solver import mean_curvature_residual


def convergence_row(a: float, v: float, nu: int, nv: int):
    """(mean-curvature residual, relative flux error, relative total-curvature
    error) of the catenoid band of neck radius a over [-v, v] at nu x nv."""
    mesh = surfaces.catenoid_mesh(surfaces.CatenoidSpec(a, -v, v, nu, nv))
    _, residual = mean_curvature_residual(edge_geometry(mesh),
                                          ~mesh.boundary_vertex_mask())
    J = flux.flow_vector_total(slice_mesh(mesh, 0.25 * v))
    flux_err = abs(J[2] - 2 * math.pi * a) / (2 * math.pi * a)
    G_expect = surfaces.catenoid_total_curvature(a, -v, v)
    G_err = abs(total_curvature(mesh)[0] - G_expect) / G_expect
    return residual, flux_err, G_err


def main() -> int:
    a = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    v = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    print(f"catenoid a={a:g}, band [-{v:g}, {v:g}]")
    print(f"{'res':>10} {'mc residual':>12} {'flux rel err':>13} {'G rel err':>10}")
    for nu in (32, 64, 128, 256, 512):
        nv = nu // 2
        residual, flux_err, G_err = convergence_row(a, v, nu, nv)
        print(f"{nu:>5}x{nv:<4} {residual:>12.3e} {flux_err:>13.3e} {G_err:>10.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
