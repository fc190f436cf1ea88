"""Sense-preserving univalent harmonic maps of the disk by shearing.

Closed-form mapping families, Weierstrass-Enneper minimal-surface lifts,
quadrature oracles, numerical verification, and SVG/OBJ/JSON export.
"""

from ._kernels import BACKEND
from .analytic import QuadratureConfig, DEFAULT_QUADRATURE
from .errors import (ConvergenceError, DilatationNotSquareError, DomainError,
                     InvalidDilatationError, UnsupportedDomainError,
                     UnsupportedParameterError)
from .families import (FAMILY_NAMES, FamilyParams, PartialFractionCoeffs,
                       coeffs_f1n, coeffs_f2n, derivatives_array, evaluate,
                       evaluate_array)
from .shear import (DilatationSpec, MapSample, PrevertexSpec, grid_points,
                    sample_grid, shear_array, shear_at)
from .special import F1Params, appell_f1, gauss_2f1, hyp2f1_1c, pochhammer
from .surface import (GridSpec, SurfaceMesh, SurfaceSample, build_mesh,
                      lift_array, lift_sample)
from .verify import VerificationReport, run_checks

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "__version__",
    "QuadratureConfig", "DEFAULT_QUADRATURE",
    "ConvergenceError", "DilatationNotSquareError", "DomainError",
    "InvalidDilatationError", "UnsupportedDomainError",
    "UnsupportedParameterError",
    "FAMILY_NAMES", "FamilyParams", "PartialFractionCoeffs",
    "coeffs_f1n", "coeffs_f2n", "derivatives_array", "evaluate",
    "evaluate_array",
    "DilatationSpec", "MapSample", "PrevertexSpec", "grid_points",
    "sample_grid", "shear_array", "shear_at",
    "F1Params", "appell_f1", "gauss_2f1", "hyp2f1_1c", "pochhammer",
    "GridSpec", "SurfaceMesh", "SurfaceSample", "build_mesh", "lift_array",
    "lift_sample",
    "VerificationReport", "run_checks",
]
