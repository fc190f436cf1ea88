"""Minimal-surface lifts of the power-dilatation families and meshing.

For even n the dilatation omega = z^n is the square of q(z) = z^(n/2) and
the harmonic map lifts to a minimal graph

    X(z) = (u, v, F3),   F3 = 2 Im int_0^z h'(s) q(s) ds.

The principal root q = +z^(n/2) is fixed throughout; the mirrored surface
is obtained by negating F3.  Closed forms below were validated against the
quadrature lift; the f_1n log coefficient is (n^2+2)/12 and the slit
(n = 2) reference carries the numerator 2z^2 - 3z + 3, both of which the
partial-fraction derivation forces.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analytic import require_disk_point, require_disk_points
from .errors import DilatationNotSquareError, UnsupportedParameterError
from .families import (FamilyParams, eval_f0n, eval_f1n, eval_f2n,
                       evaluate_array, fcn_h_and_lift, k_c_eval, per_point,
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
        if not 0.0 < self.r_max <= 0.999:
            raise ValueError("r_max must lie in (0, 0.999]")


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


def _require_even(n):
    n = int(n)
    if n % 2 != 0:
        raise DilatationNotSquareError(
            f"omega = z^{n} is not the square of a single-valued analytic "
            "function; the lift needs even n")
    return n


# F3 of each lift, written once against a math namespace m (cmath for the
# scalar lifts, numpy for lift_array), in the manner of the closed forms
# in families.

def _f3_f0n(m, n, z):
    t = z / (1.0 - z) + (-1.0) ** (n // 2) * z / (1.0 + z)
    for k in range(1, n // 2):
        th = 2.0 * math.pi * k / n
        t -= (1j * (-1.0) ** k / math.sin(th)) * m.log(
            (1.0 - z * cmath.exp(-1j * th)) / (1.0 - z * cmath.exp(1j * th)))
    return (t / n).imag


def _f3_f1n(m, n, z):
    t = (-z / (1.0 - z) + z * (2.0 - z) / (1.0 - z) ** 2
         + (n * n + 2.0) / 12.0 * m.log(1.0 - z)
         + (-1.0) ** (n // 2) / 2.0 * m.log(1.0 + z))
    for k in range(1, n // 2):
        th = math.pi * k / n
        t += (0.5 * (-1.0) ** k / math.sin(th) ** 2
              * m.log(1.0 - 2.0 * z * math.cos(2.0 * th) + z * z))
    return (t / n).imag


def _f3_f2n(m, n, z):
    t = ((4.0 - n * n) / (6.0 * n) * z / (1.0 - z)
         - 2.0 / n * z * (2.0 - z) / (1.0 - z) ** 2
         + 4.0 * z * (z * z - 3.0 * z + 3.0) / (3.0 * n * (1.0 - z) ** 3))
    for k in range(1, n // 2):
        th = math.pi * k / n
        t += (1j / (2.0 * n) * (-1.0) ** k
              * math.cos(th) / math.sin(th) ** 3
              * m.log((1.0 - z * cmath.exp(-2j * th))
                      / (1.0 - z * cmath.exp(2j * th))))
    return t.imag


_F3_FORMS = {"f_0n": _f3_f0n, "f_1n": _f3_f1n, "f_2n": _f3_f2n}


def _lift(evaluator, f3_form, n, z):
    n = _require_even(n)
    planar = evaluator(n, z)
    return SurfaceSample(z=planar.z, u=planar.u, v=planar.v,
                         f3=f3_form(cmath, n, planar.z))


def lift_f0n(n, z):
    """Lift of the strip family f_0n (even n)."""
    return _lift(eval_f0n, _f3_f0n, n, z)


def lift_f1n(n, z):
    """Lift of the wave-plane family f_1n (even n)."""
    return _lift(eval_f1n, _f3_f1n, n, z)


def lift_f2n(n, z):
    """Lift of the slit family f_2n (even n)."""
    return _lift(eval_f2n, _f3_f2n, n, z)


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


def lift_fcn(c, n, z):
    """Lift of the general family f_cn (even n).

    c = 0, 1, 2 delegate to the dedicated family lifts; for every other c
    in [0, 2], F3 comes from the same 2F1 terms as the planar map
    (families.fcn_h_and_lift).
    """
    FamilyParams(family="f_cn", c=c, n=n)
    c = float(c)
    n = _require_even(n)
    if c == 0.0:
        return lift_f0n(n, z)
    if c == 1.0:
        return lift_f1n(n, z)
    if c == 2.0:
        return lift_f2n(n, z)
    z = require_disk_point(z, r_max=1.0)
    h, t = fcn_h_and_lift(c, n, z)
    planar = MapSample.from_hg(z, h, h - k_c_eval(c, z))
    return SurfaceSample(z=z, u=planar.u, v=planar.v, f3=2.0 * t.imag)


def lift_sample(params, z):
    """Dispatch a power-dilatation FamilyParams to its lift."""
    f = params.family
    if f == "f_0n":
        return lift_f0n(params.n, z)
    if f == "f_1n":
        return lift_f1n(params.n, z)
    if f == "f_2n":
        return lift_f2n(params.n, z)
    if f == "f_cn":
        return lift_fcn(params.c, params.n, z)
    raise _nothing_to_lift(params)


def _nothing_to_lift(params):
    return UnsupportedParameterError(
        f"family {params.family!r} has no power dilatation; nothing to lift")


def lift_array(params, z):
    """u, v and F3 of the lift at an array of disk points, as float
    ndarrays of z's shape.

    The closed-form lifts run once on the whole array with numpy; f_cn
    goes point by point through lift_sample, because hyp2f1_1c chooses
    its route per point.
    """
    if params.family not in _F3_FORMS and params.family != "f_cn":
        raise _nothing_to_lift(params)
    n = _require_even(params.n)
    z = require_disk_points(z, r_max=1.0)
    params = resolve_family(params)
    if params.family == "f_cn":
        return per_point(lambda p: lift_sample(params, p), z, "u", "v", "f3")
    h, g = evaluate_array(params, z)
    return (h + g).real, (h - g).imag, _F3_FORMS[params.family](np, n, z)


def build_mesh(params, grid):
    """Triangulated lift over the ring/spoke lattice.

    Vertex 0 is the center z = 0; ring-major vertices follow.  Faces are
    the center fan plus each quad split along the diagonal toward the
    smaller spoke index, giving spokes + 2*spokes*(rings-1) triangles.
    All vertices go through one lift_array call.
    """
    _require_even(params.n)
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
