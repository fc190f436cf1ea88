"""Correctness checks for the outputs of benchmark jobs.

Nothing here imports shearlift.  The references are computed apart from
the program: the prevertex maps and dilatations are written out again
below, h comes from 30-digit ``mpmath.quad`` of h' = phi'/(1 - omega)
along [0, z], and the lift coordinate F3 from 2 Im of the quadrature of
h'q.  Every check returns a list of problems; an empty list means the
output is correct.
"""

import cmath
import json
import math
import re
from dataclasses import dataclass

import mpmath

DPS = 30
# The tolerances of tests/test_acceptance.py, relative to magnitude.  They
# leave room for the 9 significant digits of the SVG and OBJ text.
TOL = 1e-8
TOL_FALLBACK = 1e-6

# Points that every verify check of the program reports on, from the
# check's default grid (rings x spokes, or boundary samples).
CHECK_POINTS = {"oracle_equivalence": 200, "dilatation_identity": 200,
                "prevertex_identity": 200, "jacobian_positive": 200,
                "chd_heuristic": 512, "strip_bound": 200, "symmetry": 200,
                "slit_limit": 3, "surface_properties": 32}


@dataclass(frozen=True)
class Shear:
    """phi and omega of one shear, evaluated with either ``cmath`` or
    ``mpmath`` (the argument ``m``).

    prev:  "identity" (phi = z), "koebe" (k_c) or "quadratic"
           (phi = z + z^2/4).
    omega: "mobius" (z(z+a)/(1+az)), "power" (z^n), "scaled_square"
           ((0.9z)^2) or "cubic" (0.6z^3 + 0.3z).
    """

    prev: str
    omega: str
    c: float = 0.0
    a: float = 0.0
    n: int = 1

    def phi(self, m, z):
        if self.prev == "identity":
            return z
        if self.prev == "quadratic":
            return z + z * z / 4
        w = m.log((1 + z) / (1 - z))
        if self.c == 0:
            return w / 2
        return (m.exp(self.c * w) - 1) / (2 * self.c)

    def phi_prime(self, m, z):
        if self.prev == "identity":
            return 1
        if self.prev == "quadratic":
            return 1 + z / 2
        return m.exp((self.c - 1) * m.log(1 + z) - (self.c + 1) * m.log(1 - z))

    def omega_at(self, z):
        if self.omega == "mobius":
            return z * (z + self.a) / (1 + self.a * z)
        if self.omega == "power":
            return z ** self.n
        if self.omega == "scaled_square":
            return (0.9 * z) ** 2
        return 0.6 * z ** 3 + 0.3 * z

    def hprime(self, m, z):
        return self.phi_prime(m, z) / (1 - self.omega_at(z))


FAMILY_PREVERTEX = {"F_a": None, "F_0a": 0.0, "F_1a": 1.0, "f_0n": 0.0,
                    "f_1n": 1.0, "f_2n": 2.0}


def family_shear(family, c=0.0, a=0.0, n=1):
    """The shear that defines a catalog family."""
    c = FAMILY_PREVERTEX.get(family, c)
    prev = "identity" if c is None else "koebe"
    if family.startswith("F_"):
        return Shear(prev=prev, omega="mobius", c=c or 0.0, a=a)
    return Shear(prev=prev, omega="power", c=c, n=n)


def _path(z):
    # Nodes toward z, where phi' grows as |z| -> 1, keep tanh-sinh accurate.
    return [0, z / 2, 0.8 * z, 0.95 * z, z]


def ref_h(shear, z):
    """h(z) by 30-digit quadrature of h' along [0, z]."""
    with mpmath.workdps(DPS):
        zm = mpmath.mpc(z)
        return complex(mpmath.quad(lambda s: shear.hprime(mpmath, s),
                                   _path(zm)))


def ref_f3(shear, z):
    """F3(z) = 2 Im of the integral of h' q along [0, z], q = z^(n/2)."""
    half = shear.n // 2
    with mpmath.workdps(DPS):
        zm = mpmath.mpc(z)
        val = mpmath.quad(lambda s: shear.hprime(mpmath, s) * s ** half,
                          _path(zm))
        return float(2 * val.imag)


def close(value, ref, tol):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _compare(problems, label, value, ref, tol):
    if not close(value, ref, tol):
        problems.append(f"{label}: {value!r} != reference {ref!r}")


def check_sample(shear, z, h, g, u, v, tol, with_quad):
    """A planar sample (h, g, u, v) at z: the prevertex relation and v
    always, h and u against quadrature when ``with_quad``."""
    problems = []
    phi = shear.phi(cmath, z)
    _compare(problems, f"v at z={z}", v, phi.imag, TOL)
    _compare(problems, f"h - g at z={z}", h - g, phi, TOL)
    if with_quad:
        h_ref = ref_h(shear, z)
        _compare(problems, f"h at z={z}", h, h_ref, tol)
        _compare(problems, f"u at z={z}", u, (2 * h_ref - phi).real, tol)
    return problems


def check_lift(shear, z, u, v, f3, tol, with_quad):
    """A lifted sample (u, v, F3) at z."""
    problems = []
    phi = shear.phi(cmath, z)
    _compare(problems, f"v at z={z}", v, phi.imag, TOL)
    if with_quad:
        h_ref = ref_h(shear, z)
        _compare(problems, f"u at z={z}", u, (2 * h_ref - phi).real, tol)
        _compare(problems, f"F3 at z={z}", f3, ref_f3(shear, z), tol)
    return problems


def check_derivative(shear, z, value, which):
    """h'(z) or g'(z) = omega h' against the closed form."""
    ref = shear.hprime(cmath, z)
    if which == "g":
        ref *= shear.omega_at(z)
    problems = []
    _compare(problems, f"{which}' at z={z}", value, ref, TOL)
    return problems


# --- CLI outputs ----------------------------------------------------------

def map_points(rings, spokes, rmax, samples):
    """Disk points of the SVG polylines in document order: rings (closed
    by repeating their first sample), then spokes."""
    curves = []
    for j in range(1, rings + 1):
        r = rmax * j / rings
        pts = [r * cmath.exp(2j * math.pi * i / samples)
               for i in range(samples)]
        curves.append(pts + pts[:1])
    for k in range(spokes):
        d = cmath.exp(2j * math.pi * k / spokes)
        curves.append([rmax * (i + 1) / samples * d for i in range(samples)])
    return curves


def mesh_points(rings, spokes, rmax):
    """Disk points of the OBJ vertices: the center, then ring-major."""
    return [0j] + [rmax * j / rings * cmath.exp(2j * math.pi * k / spokes)
                   for j in range(1, rings + 1) for k in range(spokes)]


_POLYLINE = re.compile(r'<polyline [^>]*points="([^"]*)"')


def check_svg(text, shear, grid, quad_points, loose):
    """SVG of ``map``: curve and point counts, v at every point, u against
    quadrature at the indices ``quad_points`` of the flattened points.
    ``loose(z)`` says whether z may take the fallback tolerance."""
    curves = map_points(*grid)
    found = [[tuple(float(q) for q in pair.split(","))
              for pair in body.split()]
             for body in _POLYLINE.findall(text)]
    if [len(c) for c in found] != [len(c) for c in curves]:
        return [f"SVG has curves of {[len(c) for c in found]} points, "
                f"expected {[len(c) for c in curves]}"]
    problems = []
    flat = [(z, uv) for cz, cuv in zip(curves, found)
            for z, uv in zip(cz, cuv)]
    for z, (u, v) in flat:
        _compare(problems, f"SVG v at z={z}", v, shear.phi(cmath, z).imag, TOL)
    for i in quad_points:
        z, (u, _) = flat[i]
        tol = TOL_FALLBACK if loose(z) else TOL
        _compare(problems, f"SVG u at z={z}", u,
                 (2 * ref_h(shear, z) - shear.phi(cmath, z)).real, tol)
    return problems


def check_obj(text, shear, grid, quad_points, loose):
    """OBJ of ``surface``: vertex and face counts, the center, v at every
    vertex, u and F3 against quadrature at the vertex indices
    ``quad_points``."""
    rings, spokes, _ = grid
    points = mesh_points(*grid)
    verts = [tuple(float(q) for q in line.split()[1:])
             for line in text.splitlines() if line.startswith("v ")]
    faces = [tuple(int(q) for q in line.split()[1:])
             for line in text.splitlines() if line.startswith("f ")]
    n_faces = spokes + 2 * spokes * (rings - 1)
    if len(verts) != len(points) or len(faces) != n_faces:
        return [f"OBJ has {len(verts)} vertices and {len(faces)} faces, "
                f"expected {len(points)} and {n_faces}"]
    problems = []
    if any(not 1 <= i <= len(verts) for f in faces for i in f):
        problems.append("OBJ face refers to a missing vertex")
    if verts[0] != (0.0, 0.0, 0.0):
        problems.append(f"OBJ center vertex is {verts[0]}")
    for z, (u, v, f3) in zip(points[1:], verts[1:]):
        _compare(problems, f"OBJ v at z={z}", v, shear.phi(cmath, z).imag, TOL)
    for i in quad_points:
        z, (u, v, f3) = points[i], verts[i]
        problems += check_lift(shear, z, u, v, f3,
                               TOL_FALLBACK if loose(z) else TOL, True)
    return problems


def check_report(text, names):
    """JSON of ``verify``: one passing report per requested check."""
    reports = json.loads(text)
    got = [r.get("check_name") for r in reports]
    if got != list(names):
        return [f"report covers checks {got}, expected {list(names)}"]
    return [f"check {r['check_name']} failed: residual {r['max_residual']} "
            f"> {r['tolerance']}" for r in reports if r.get("passed") is not True]
