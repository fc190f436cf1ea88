"""Minimal-surface lifts of the power-dilatation families and meshing.

For even n the dilatation omega = z^n is the square of q(z) = z^(n/2) and
the harmonic map lifts to a minimal graph

    X(z) = (u, v, F3),   F3 = 2 Im int_0^z h'(s) q(s) ds.

The closed forms of h and F3 live together in families: a lift makes one
call of the family's form, which returns h, g and F3 from the same terms.
"""

from dataclasses import dataclass

import numpy as np

from .analytic import R_MAX, require_disk_point, require_disk_points
from .errors import DilatationNotSquareError, UnsupportedParameterError
from .families import (_FORMS, _POWER_FAMILIES, FamilyParams, family_phi,
                       resolve_family)
# Bound here only so that perfbench/spans.py can wrap surface.appell_f1;
# the lift no longer calls it.
from .special import appell_f1  # noqa: F401
from .shear import MapSample, grid_points


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


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: tuple  # SurfaceSample, center first then ring-major
    faces: tuple  # (i, j, k) zero-based vertex indices


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


def _lift_form(params, z):
    """h, g and F3 of a liftable family at checked disk points, from one
    call of its closed form."""
    params = resolve_family(params)
    return _FORMS[params.family](params, z, family_phi(params).phi(z),
                                 lift=True)


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
    u, v and F3 from one call of the family's closed form, u and v
    exactly those of evaluate."""
    _liftable(params)
    z = require_disk_point(z, r_max=1.0)
    h, g, f3 = _lift_form(params, z)
    planar = MapSample.from_hg(z, h, g)
    return SurfaceSample(z=z, u=planar.u, v=planar.v, f3=float(f3))


def lift_array(params, z):
    """u, v and F3 of the lift at an array of disk points, as float
    ndarrays of z's shape: the closed form runs once on the whole array,
    the same that lift_sample runs for one point, and u, v are exactly
    those of evaluate_array."""
    _liftable(params)
    z = require_disk_points(z, r_max=1.0)
    h, g, f3 = _lift_form(params, z)
    return (h + g).real, (h - g).imag, f3


def build_mesh(params, grid):
    """Triangulated lift over the ring/spoke lattice.

    Vertex 0 is the center z = 0; ring-major vertices follow.  Faces are
    the center fan plus each quad split along the diagonal toward the
    smaller spoke index, giving spokes + 2*spokes*(rings-1) triangles.
    All vertices go through one lift_array call.
    """
    points = grid_points(grid)
    u, v, f3 = lift_array(params, np.array(points))
    vertices = [SurfaceSample(z=0j, u=0.0, v=0.0, f3=0.0)]
    vertices += [SurfaceSample(z=z, u=x, v=y, f3=t)
                 for z, x, y, t in zip(points, u.tolist(), v.tolist(),
                                       f3.tolist())]
    faces = []
    s = grid.spokes
    for k in range(s):
        faces.append((0, 1 + k, 1 + (k + 1) % s))
    for j in range(grid.rings - 1):
        inner = 1 + j * s
        outer = inner + s
        for k in range(s):
            kn = (k + 1) % s
            faces.append((inner + k, outer + k, outer + kn))
            faces.append((inner + k, outer + kn, inner + kn))
    return SurfaceMesh(vertices=tuple(vertices), faces=tuple(faces))


# --- shorthands: lift_sample of one family ---------------------------------

def lift_f0n(n, z):
    """Lift of the strip family f_0n (even n)."""
    return lift_sample(FamilyParams("f_0n", n=n), z)


def lift_f1n(n, z):
    """Lift of the wave-plane family f_1n (even n)."""
    return lift_sample(FamilyParams("f_1n", n=n), z)


def lift_f2n(n, z):
    """Lift of the slit family f_2n (even n)."""
    return lift_sample(FamilyParams("f_2n", n=n), z)


def lift_fcn(c, n, z):
    """Lift of the general family f_cn (even n); F3 comes from the same
    2F1 terms as the planar map."""
    return lift_sample(FamilyParams("f_cn", c=c, n=n), z)
