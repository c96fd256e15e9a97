"""Smoke tests for the scripts under scripts/: each runs one small case
through the same functions as the script, so that an API change in mintube
fails here instead of in the script."""

import importlib.util
import math
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catenoid_convergence_study_row():
    study = load_script("catenoid_convergence_study")
    residual, flux_err, G_err = study.convergence_row(1.0, 1.0, 32, 16)
    assert all(math.isfinite(x) and x >= 0 for x in (residual, flux_err, G_err))
    assert residual < 1e-2 and flux_err < 5e-3 and G_err < 5e-2
