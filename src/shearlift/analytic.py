"""Disk-point checks, the complex logarithm, segment quadrature and Cauchy
derivatives.

Every multivalued function in the package uses the principal branch.  All
logarithm arguments that arise from the mapping families (1-z, 1+z,
(1+z)/(1-z), 1 - z*e^{i*theta}, 1 - 2z*cos(theta) + z^2) have positive real
part on the open unit disk, so no branch tracking is needed anywhere.
"""

import cmath
import sys
from functools import lru_cache

import numpy as np

from ._kernels import fallback
from .errors import DomainError

DEFAULT_ABS_TOL = 1e-12
DEFAULT_REL_TOL = 1e-12
DEFAULT_MAX_SUBDIVISIONS = 2000
CIRCLE_NODES = 32  # the nodes of every Cauchy-circle rule


# The near-boundary cutoff of the quadrature oracle, and the largest grid
# radius that map and surface accept.
R_MAX = 0.999

# Grids build their points as r*exp(i*theta); the rounded modulus of such a
# point can exceed r by a few ulps, which the near-boundary cutoff forgives.
_ROUNDING_SLACK = 1.0 + 8.0 * sys.float_info.epsilon


def require_disk_point(z, r_max=R_MAX):
    """Validate |z| < 1 (and below the near-boundary cutoff, up to a few
    ulps of rounding) and return z as a complex number."""
    z = complex(z)
    if not (abs(z) < 1.0):
        raise DomainError(f"point {z} is not inside the unit disk")
    if abs(z) > r_max * _ROUNDING_SLACK:
        raise DomainError(
            f"point {z} is too close to the boundary (|z| > {r_max})")
    return z


def require_disk_points(z, r_max=R_MAX):
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


def clog(w):
    """Principal logarithm of w != 0, the one complex log of the package:
    cmath.log for a number (a Python or numpy scalar), and on an ndarray
    log|w| + i atan2(Im w, Re w) from numpy's real loops, which take a
    fraction of the time of numpy's complex log.

    With m = max(|Re w|, |Im w|) and q = min(|Re w|, |Im w|)/m,
    log|w| = log m + log1p(q^2)/2.  log(hypot(Re w, Im w)) would carry
    the rounding of |w|, up to eps/2, which near w = 1 is many ulps of
    log|w|, and the power families' root terms magnify it in F3.  Both
    parts depend on |Re w| and |Im w| alone and atan2 is odd in Im w, so
    clog(conj(w)) is conj(clog(w)) bit for bit."""
    if not isinstance(w, np.ndarray):
        return cmath.log(w)
    if not w.ndim:
        # numpy's unary loops give a number, not an array, on a 0-d array
        return clog(w.reshape(1)).reshape(())
    out = np.empty(w.shape, dtype=complex)
    re, im, log_r = w.real, w.imag, out.real
    ax = np.abs(re)
    ay = np.abs(im)
    big = np.maximum(ax, ay)
    q = np.minimum(ax, ay)
    q /= big
    q *= q
    np.log1p(q, out=q)
    q *= 0.5
    np.log(big, out=log_r)
    log_r += q
    np.arctan2(im, re, out=out.imag)
    return out


def integrate_segment(integrand, z0, z1):
    """Adaptive G7/K15 line integral of ``integrand`` along the straight
    segment [z0, z1], to DEFAULT_ABS_TOL and DEFAULT_REL_TOL within
    DEFAULT_MAX_SUBDIVISIONS bisections.

    The integrand must be analytic on the closed segment.  It is called
    with an ndarray of points when it accepts one, otherwise point-wise.
    Scalar ends give a complex number: one segment, one integrand call
    per bisection round that needs new panels, the first of which
    evaluates the segment, its two halves and its four quarters (105
    points) even when the segment converges as one panel.
    Array ends give an ndarray of their broadcast shape, all segments
    going through one batched quadrature.  A ConvergenceError of the
    batched call carries the flat index of the first failing segment.
    """
    fvec = vectorize(integrand)
    if _is_point(z0) and _is_point(z1):
        return fallback.adaptive_segment(fvec, z0, z1, DEFAULT_ABS_TOL,
                                         DEFAULT_REL_TOL,
                                         DEFAULT_MAX_SUBDIVISIONS)
    return fallback.adaptive_segments(fvec, z0, z1, DEFAULT_ABS_TOL,
                                      DEFAULT_REL_TOL,
                                      DEFAULT_MAX_SUBDIVISIONS)


def _is_point(z):
    """Whether a segment end is one point, as np.ndim(z) == 0 says; a
    Python or numpy number is one without that call (~1 us)."""
    return isinstance(z, (complex, float, int, np.generic)) or np.ndim(z) == 0


def vectorize(f):
    """f as a function of ndarrays of points: called on the whole array
    when it accepts one and returns values of its shape, otherwise point
    by point.  A TypeError or ValueError on the array (complex() of it, or
    an `if` on a comparison of it) means f takes one point at a time."""
    def pointwise(zs):
        return np.array([f(complex(z)) for z in zs.ravel()],
                        dtype=complex).reshape(zs.shape)

    def call(zs):
        try:
            out = f(zs)
        except (TypeError, ValueError):
            return pointwise(zs)
        out = np.asarray(out, dtype=complex)
        if out.shape != np.shape(zs):
            return pointwise(zs)
        return out

    return call


@lru_cache(maxsize=64)
def unit_roots(count):
    """The count-th roots of unity exp(2*pi*i*k/count), k = 0, ...,
    count - 1, as a read-only complex ndarray, built once per count: the
    one source of them in the package.  At a quarter turn (4k/count an
    integer) a root is exactly 1, i, -1 or -i with +0.0 in its zero part
    (-1j has a real part of -0.0), so that lattice spokes there lie on the
    axes; every other root is cmath.exp(2*pi*i*k/count)."""
    quarter = (1.0, 1j, -1.0, complex(0.0, -1.0))
    roots = np.array([quarter[4 * k // count] if 4 * k % count == 0
                      else cmath.exp(2j * cmath.pi * k / count)
                      for k in range(count)], dtype=complex)
    roots.flags.writeable = False
    return roots


def cauchy_derivative(f, z, radius):
    """Derivative of an analytic function by trapezoidal Cauchy quadrature
    on a circle of the given radius: cauchy_derivatives at one centre.

    Converges geometrically in the number of nodes, CIRCLE_NODES, as long
    as f is analytic on the closed circle, so the radius can be a fixed
    fraction of the distance to the nearest singularity; this reaches near
    machine precision where finite differences top out around sqrt(eps).
    """
    f = vectorize(f)
    return complex(cauchy_derivatives(lambda nodes: (f(nodes),), complex(z),
                                      radius)[0])


def cauchy_derivatives(f, z, radius):
    """cauchy_derivative at an array of centres z with radii of the same
    shape, for several analytic functions at once.

    f takes an array of points and returns a tuple of value arrays of its
    shape; it is called once, on all CIRCLE_NODES * z.size circle nodes.
    Returns one derivative array per function.
    """
    radius = np.asarray(radius, dtype=float)
    values = np.stack(f(circle_nodes(z, radius)))
    return tuple(circle_derivative(values, radius))


def circle_nodes(z, radius):
    """The CIRCLE_NODES nodes z + radius * w_k, w_k the roots of unity,
    on the circle about each centre of the array z (radius of z's shape),
    as an array of shape z.shape + (CIRCLE_NODES,): the nodes of every
    Cauchy-circle rule in the package."""
    z = np.asarray(z, dtype=complex)
    radius = np.asarray(radius, dtype=float)
    if np.any(radius <= 0):
        raise ValueError("radius must be positive")
    return z[..., None] + radius[..., None] * unit_roots(CIRCLE_NODES)


def circle_derivative(values, radius):
    """f' at the centres from the values of f at circle_nodes(z, radius)
    along the last axis: the trapezoidal Cauchy integral, which is the
    first Fourier coefficient c_1 of the samples over the radius.  For a
    real X = Re A (A analytic) it gives A'/2 = (X_x - i X_y)/2."""
    return ((values / unit_roots(CIRCLE_NODES)).sum(axis=-1)
            / (CIRCLE_NODES * radius))
