"""Minimal-surface lifts of the power-dilatation families and meshing.

For even n the dilatation omega = z^n is the square of q(z) = z^(n/2) and
the harmonic map lifts to a minimal graph

    X(z) = (u, v, F3),   F3 = 2 Im int_0^z h'(s) q(s) ds.

The closed forms of h and F3 live together in families: a lift makes one
call of the family's form, which returns h, g, phi and F3 from the same
terms, and shear.coordinates turns them into (u, v, F3).
"""

from dataclasses import dataclass

import numpy as np

from .analytic import R_MAX, require_disk_point, require_disk_points
from .errors import DilatationNotSquareError, UnsupportedParameterError
from .families import _POWER_FAMILIES, FamilyParams, _closed_form
# Bound here only so that perfbench/spans.py can wrap surface.appell_f1;
# the lift no longer calls it.
from .special import appell_f1  # noqa: F401
from .shear import coordinates, grid_array


@dataclass(frozen=True)
class GridSpec:
    rings: int = 10
    spokes: int = 24
    r_max: float = 0.98

    def __post_init__(self):
        if self.rings < 1:
            raise ValueError("rings must be >= 1")
        if self.spokes < 3:
            raise ValueError("spokes must be >= 3")
        if not 0.0 < self.r_max <= R_MAX:
            raise ValueError(f"r_max must lie in (0, {R_MAX}]")


@dataclass(frozen=True)
class SurfaceSample:
    z: complex
    u: float
    v: float
    f3: float
    fallback: bool = False


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    points: np.ndarray  # complex disk points, center first then ring-major
    vertices: np.ndarray  # (N, 3) rows of u, v, F3, one per point
    faces: np.ndarray  # (F, 3) zero-based vertex indices


def _liftable(params):
    """The check of every lift: the family has a power dilatation, then
    n is even."""
    if params.family not in _POWER_FAMILIES:
        raise UnsupportedParameterError(
            f"family {params.family!r} has no power dilatation; nothing to "
            "lift")
    n = int(params.n)
    if n % 2 != 0:
        raise DilatationNotSquareError(
            f"omega = z^{n} is not the square of a single-valued analytic "
            "function; the lift needs even n")


def slit_surface_reference(z):
    """Minimal surface over the slit plane k_2(D): the n = 2 lift in fully
    explicit rational form (q = +z convention).

        u  = Re{z(2z^2 - 3z + 3) / (3(1-z)^3)}
        v  = Im{z / (1-z)^2}
        F3 = Im{-z(2-z)/(1-z)^2 + 2z(z^2 - 3z + 3) / (3(1-z)^3)}
    """
    z = require_disk_point(z, r_max=1.0)
    cube = 3.0 * (1.0 - z) ** 3
    u = (z * (2.0 * z * z - 3.0 * z + 3.0) / cube).real
    v = (z / (1.0 - z) ** 2).imag
    f3 = (-z * (2.0 - z) / (1.0 - z) ** 2
          + 2.0 * z * (z * z - 3.0 * z + 3.0) / cube).imag
    return SurfaceSample(z=z, u=u, v=v, f3=f3)


def lift_sample(params, z):
    """Lift of a power-dilatation family with even n at a disk point:
    u, v and F3 from one call of the family's closed form through
    shear.coordinates, which gives evaluate its u and v too."""
    _liftable(params)
    z = require_disk_point(z, r_max=1.0)
    h, g, phi, f3 = _closed_form(params, z, lift=True)
    return SurfaceSample(z, *coordinates(complex(h), complex(g),
                                         complex(phi), float(f3)))


def lift_array(params, z):
    """u, v and F3 of the lift at an array of disk points, as float
    ndarrays of z's shape: the closed form runs once on the whole array,
    the same that lift_sample runs for one point, and u, v are exactly
    those of the planar map (shear.coordinates of h, g and phi)."""
    _liftable(params)
    z = require_disk_points(z, r_max=1.0)
    return coordinates(*_closed_form(params, z, lift=True))


def build_mesh(params, grid):
    """Triangulated lift over the ring/spoke lattice.

    Vertex 0 is the center z = 0; ring-major vertices follow.  Faces are
    the center fan plus each quad split along the diagonal toward the
    smaller spoke index, giving spokes + 2*spokes*(rings-1) triangles.
    All vertices but the center go through one lift_array call.
    """
    points = np.concatenate(([0j], grid_array(grid)))
    vertices = np.zeros((points.size, 3))
    vertices[1:] = np.column_stack(lift_array(params, points[1:]))
    k = np.arange(grid.spokes)
    kn = (k + 1) % grid.spokes
    inner = 1 + grid.spokes * np.arange(grid.rings - 1)[:, None]
    outer = inner + grid.spokes
    fan = np.stack([np.zeros_like(k), 1 + k, 1 + kn], axis=-1)
    quads = np.stack([inner + k, outer + k, outer + kn,
                      inner + k, outer + kn, inner + kn], axis=-1)
    faces = np.concatenate([fan, quads.reshape(-1, 3)])
    return SurfaceMesh(points=points, vertices=vertices, faces=faces)


# --- shorthands: lift_sample of one family ---------------------------------

def lift_f2n(n, z):
    """Lift of the slit family f_2n (even n)."""
    return lift_sample(FamilyParams("f_2n", n=n), z)
