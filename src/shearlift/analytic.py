"""Disk-point checks, segment quadrature and Cauchy derivatives.

Every multivalued function in the package uses the principal branch.  All
logarithm arguments that arise from the mapping families (1-z, 1+z,
(1+z)/(1-z), 1 - z*e^{i*theta}, 1 - 2z*cos(theta) + z^2) have positive real
part on the open unit disk, so no branch tracking is needed anywhere.
"""

import cmath
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import fallback
from .errors import DomainError

DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-12
DEFAULT_MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()


# Grids build their points as r*exp(i*theta); the rounded modulus of such a
# point can exceed r by a few ulps, which the near-boundary cutoff forgives.
_ROUNDING_SLACK = 1.0 + 8.0 * sys.float_info.epsilon


def require_disk_point(z, r_max=0.999):
    """Validate |z| < 1 (and below the near-boundary cutoff, up to a few
    ulps of rounding) and return z as a complex number."""
    z = complex(z)
    if not (abs(z) < 1.0):
        raise DomainError(f"point {z} is not inside the unit disk")
    if abs(z) > r_max * _ROUNDING_SLACK:
        raise DomainError(
            f"point {z} is too close to the boundary (|z| > {r_max})")
    return z


def require_disk_points(z, r_max=0.999):
    """Array form of require_disk_point: check every point at once and
    return z as a complex ndarray.  The DomainError names the first
    offending point in C order."""
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    bad = ~(r < 1.0) | (r > r_max * _ROUNDING_SLACK)
    if bad.any():
        # the scalar check has the last word on a point at the edge
        for p in z[bad].tolist():
            require_disk_point(p, r_max)
    return z


def integrate_segment(integrand, z0, z1, cfg=DEFAULT_QUADRATURE):
    """Adaptive G7/K15 line integral of ``integrand`` along the straight
    segment [z0, z1].

    The integrand must be analytic on the closed segment.  It is called
    with an ndarray of points when it accepts one, otherwise point-wise.
    Scalar ends give a complex number (one segment, one panel per call);
    array ends give an ndarray of their broadcast shape, all segments
    going through one batched quadrature.  A ConvergenceError of the
    batched call carries the flat index of the first failing segment.
    """
    fvec = vectorize(integrand)
    if np.ndim(z0) == 0 and np.ndim(z1) == 0:
        return fallback.adaptive_segment(fvec, z0, z1, cfg.abs_tol,
                                         cfg.rel_tol, cfg.max_subdivisions)
    return fallback.adaptive_segments(fvec, z0, z1, cfg.abs_tol, cfg.rel_tol,
                                      cfg.max_subdivisions)


def vectorize(f):
    """f as a function of ndarrays of points: called on the whole array
    when it accepts one and returns values of its shape, otherwise point
    by point."""
    def pointwise(zs):
        return np.array([f(complex(z)) for z in zs.ravel()],
                        dtype=complex).reshape(zs.shape)

    def call(zs):
        try:
            out = f(zs)
        except TypeError:
            return pointwise(zs)
        out = np.asarray(out, dtype=complex)
        if out.shape != np.shape(zs):
            return pointwise(zs)
        return out

    return call


def cauchy_derivative(f, z, radius, order=32):
    """Derivative of an analytic function by trapezoidal Cauchy quadrature
    on a circle of the given radius.

    Converges geometrically in ``order`` as long as f is analytic on the
    closed circle, so the radius can be a fixed fraction of the distance
    to the nearest singularity; this reaches near machine precision where
    finite differences top out around sqrt(eps).
    """
    z = complex(z)
    if radius <= 0:
        raise ValueError("radius must be positive")
    total = 0j
    for m in range(order):
        w = cmath.exp(2j * cmath.pi * m / order)
        total += f(z + radius * w) / w
    return total / (order * radius)


def cauchy_derivatives(f, z, radius, order=32):
    """cauchy_derivative at an array of centres z with radii of the same
    shape, for several analytic functions at once.

    f takes an array of points and returns a tuple of value arrays of its
    shape; it is called once, on all order * z.size circle nodes.  Returns
    one derivative array per function.
    """
    z = np.asarray(z, dtype=complex)
    radius = np.asarray(radius, dtype=float)
    if np.any(radius <= 0):
        raise ValueError("radius must be positive")
    w = np.array([cmath.exp(2j * cmath.pi * m / order)
                  for m in range(order)])
    values = f(z[..., None] + radius[..., None] * w)
    return tuple((v / w).sum(axis=-1) / (order * radius) for v in values)
