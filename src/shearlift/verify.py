"""Named numerical checks turning the toolkit's contracts into reports.

Every check walks a deterministic ring/spoke lattice, reduces per-point
residuals with max (order-independent), and returns a VerificationReport
with the worst offending point, so failures are reproducible bit for bit.
"""

import cmath
import math
from dataclasses import dataclass

from . import families, surface
from .analytic import DEFAULT_QUADRATURE, cauchy_derivative
from .errors import UnsupportedParameterError
from .shear import grid_points, shear_at
from .surface import GridSpec, lift_sample

DEFAULT_GRID = GridSpec(rings=10, spokes=20, r_max=0.9)


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    family: object  # FamilyParams or None
    grid: object  # GridSpec or None
    max_residual: float
    tolerance: float
    passed: bool
    worst_point: complex

    def to_dict(self):
        fam = None
        if self.family is not None:
            fam = {"family": self.family.family, "c": self.family.c,
                   "a": self.family.a, "n": self.family.n}
        gd = None
        if self.grid is not None:
            gd = {"rings": self.grid.rings, "spokes": self.grid.spokes,
                  "r_max": self.grid.r_max}
        return {
            "check_name": self.check_name,
            "family": fam,
            "grid": gd,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "worst_point": [self.worst_point.real, self.worst_point.imag],
        }


def _report(name, params, grid, residuals, tol):
    """Assemble a report from (z, residual) pairs."""
    worst_z, worst = max(residuals, key=lambda t: t[1])
    # a numpy residual would make `passed` a numpy bool, which JSON refuses
    worst = float(worst)
    return VerificationReport(check_name=name, family=params, grid=grid,
                              max_residual=worst, tolerance=tol,
                              passed=worst <= tol, worst_point=worst_z)


def check_oracle_equivalence(params, grid=DEFAULT_GRID, tol=1e-8,
                             cfg=DEFAULT_QUADRATURE):
    """Closed-form (h, g) against the quadrature shear at every node."""
    phi = families.family_phi(params)
    omega = families.family_omega(params)
    residuals = []
    for z in grid_points(grid):
        closed = families.evaluate(params, z)
        oracle = shear_at(phi, omega, z, cfg)
        residuals.append((z, max(abs(closed.h - oracle.h),
                                 abs(closed.g - oracle.g))))
    return _report("oracle_equivalence", params, grid, residuals, tol)


def _closed_h(params):
    return lambda z: families.evaluate(params, z).h


def _closed_g(params):
    return lambda z: families.evaluate(params, z).g


def check_dilatation(params, grid=DEFAULT_GRID, tol=1e-8):
    """|g' - omega*h'| with derivatives taken from the closed-form h, g by
    Cauchy-circle differentiation (the closed forms must satisfy the shear
    system, not just the defining h' = phi'/(1-omega))."""
    omega = families.family_omega(params)
    h_fn, g_fn = _closed_h(params), _closed_g(params)
    residuals = []
    for z in grid_points(grid):
        radius = 0.25 * (1.0 - abs(z))
        hp = cauchy_derivative(h_fn, z, radius)
        gp = cauchy_derivative(g_fn, z, radius)
        residuals.append((z, abs(gp - complex(omega(z)) * hp)))
    return _report("dilatation_identity", params, grid, residuals, tol)


def check_prevertex(params, grid=DEFAULT_GRID, tol=1e-10):
    """|h - g - phi| (the defining shear relation holds exactly)."""
    phi = families.family_phi(params)
    residuals = []
    for z in grid_points(grid):
        s = families.evaluate(params, z)
        residuals.append((z, abs(s.h - s.g - complex(phi.phi(z)))))
    return _report("prevertex_identity", params, grid, residuals, tol)


def check_jacobian_positive(params, grid=None):
    """min(|h'|^2 - |g'|^2) > 0 on r <= 0.95 (Lewy's criterion, sampled)."""
    grid = grid or GridSpec(rings=10, spokes=20, r_max=0.95)
    residuals = []
    for z in grid_points(grid):
        hp = families.hprime(params, z)
        gp = families.gprime(params, z)
        # negated so that "residual <= 0" means a positive Jacobian
        residuals.append((z, -(abs(hp) ** 2 - abs(gp) ** 2)))
    return _report("jacobian_positive", params, grid, residuals, 0.0)


def check_strip_bound(a, grid=DEFAULT_GRID):
    """F_0a images stay in |v| < pi/4; for a = +-1 the image is further
    confined to a half strip (u > -1/2 resp. u < 1/2)."""
    params = families.FamilyParams(family="F_0a", a=a)
    residuals = []
    for z in grid_points(grid):
        s = families.eval_F_0a(a, z)
        r = abs(s.v) - math.pi / 4.0
        if a == 1.0:
            r = max(r, -0.5 - s.u)
        elif a == -1.0:
            r = max(r, s.u - 0.5)
        residuals.append((z, r))
    return _report("strip_bound", params, grid, residuals, 0.0)


def check_symmetry(params, grid=DEFAULT_GRID, tol=1e-12):
    """F_a: point symmetry F_{-a}(-z) = -conj-free reflection about the
    imaginary axis; F_1a: conjugation symmetry about the real axis."""
    residuals = []
    if params.family == "F_a":
        for z in grid_points(grid):
            s = families.eval_F_a(params.a, z)
            m = families.eval_F_a(-params.a, -z)
            residuals.append((z, max(abs(m.u + s.u), abs(m.v + s.v))))
    elif params.family == "F_1a":
        for z in grid_points(grid):
            s = families.eval_F_1a(params.a, z)
            m = families.eval_F_1a(params.a, z.conjugate())
            residuals.append((z, abs(complex(m.u, m.v)
                                     - complex(s.u, -s.v))))
    else:
        raise UnsupportedParameterError(
            f"no symmetry contract registered for family {params.family!r}")
    return _report("symmetry", params, grid, residuals, tol)


def check_slit_limit(params, r=0.9999, tol=0.02):
    """Radial limit onto the slit tip -(2-a)/6 for the c = 2 families.

    Supported for F_ca with c = 2 (any a) and for f_2n with n in {1, 2}
    (the a = 1 and a = 0 instances); for n >= 3 the boundary image is
    angle-dependent and there is no single tip value.
    """
    if params.family == "F_ca" and params.c == 2.0:
        a = params.a
    elif params.family == "f_2n" and params.n in (1, 2):
        a = 1.0 if params.n == 1 else 0.0
    else:
        raise UnsupportedParameterError(
            "slit limit applies to F_ca with c=2 and f_2n with n in {1, 2}")
    target = -(2.0 - a) / 6.0
    residuals = []
    for theta in (0.5 * math.pi, math.pi, 1.5 * math.pi):
        z = r * cmath.exp(1j * theta)
        s = families.evaluate(params, z)
        residuals.append((z, abs(complex(s.u, s.v) - target)))
    return _report("slit_limit", params, None, residuals, tol)


def boundary_curve(params, r=0.98, samples=512):
    """Sampled image of the circle |z| = r, as (u, v) pairs."""
    pts = []
    for k in range(samples):
        z = r * cmath.exp(2j * math.pi * k / samples)
        s = families.evaluate(params, z)
        pts.append((s.u, s.v))
    return pts


def chd_crossing_excess(points, line_count=64):
    """Largest number of polygon/horizontal-line crossings beyond 2.

    A closed curve bounding a CHD region meets every horizontal line in
    at most two boundary points (one interval of interior), so any line
    with more than two crossings witnesses a horizontal re-entry.
    Returns (excess, worst_level).
    """
    vs = [p[1] for p in points]
    lo, hi = min(vs), max(vs)
    worst = 0
    worst_level = lo
    for i in range(1, line_count + 1):
        # strictly interior levels; endpoints graze the curve tangentially
        y = lo + (hi - lo) * i / (line_count + 1)
        crossings = 0
        for j in range(len(points)):
            v0 = points[j][1]
            v1 = points[(j + 1) % len(points)][1]
            if (v0 < y) != (v1 < y):
                crossings += 1
        if crossings - 2 > worst:
            worst = crossings - 2
            worst_level = y
    return worst, worst_level


def check_chd_heuristic(params, r=0.98, samples=512, line_count=64):
    """Sampled necessary condition for a CHD image (never a proof): the
    image of |z| = r crosses each horizontal line at most twice."""
    excess, level = chd_crossing_excess(boundary_curve(params, r, samples),
                                        line_count)
    return VerificationReport(check_name="chd_heuristic", family=params,
                              grid=None, max_residual=float(excess),
                              tolerance=0.0, passed=excess <= 0,
                              worst_point=complex(0.0, level))


def _surface_xyz(params):
    def xyz(z):
        s = lift_sample(params, z)
        return (s.u, s.v, s.f3)

    return xyz


def check_surface(params, grid=None, iso_tol=1e-5, proj_tol=1e-10,
                  iso_step=1e-4, lap_step=1e-2):
    """Aggregate minimal-surface evidence: projection onto the planar map,
    isothermal first fundamental form, and order-2 harmonicity of all
    three coordinates under Laplacian step halving.

    The Laplacian step is much coarser than the metric step: the
    coordinates are harmonic, so at small steps the 5-point residual is
    pure roundoff (eps/h^2) and the halving ratio is noise; at 1e-2 the
    h^2 truncation term dominates and the ratio ~4 is observable.  The
    center z = 0 is skipped: q(0) = 0 makes the metric degenerate there
    for n >= 2.
    """
    grid = grid or GridSpec(rings=4, spokes=8, r_max=0.8)
    xyz = _surface_xyz(params)
    residuals = []
    for z in grid_points(grid):
        lifted = lift_sample(params, z)
        planar = families.evaluate(params, z)
        proj = max(abs(lifted.u - planar.u), abs(lifted.v - planar.v))

        xu = _vec_diff(xyz, z, iso_step)
        xv = _vec_diff(xyz, z, iso_step * 1j)
        e = sum(q * q for q in xu)
        g = sum(q * q for q in xv)
        ff = sum(p * q for p, q in zip(xu, xv))
        iso = max(abs(e - g), abs(ff)) / (e + g)

        lap1 = _laplacian_norm(xyz, z, lap_step)
        lap2 = _laplacian_norm(xyz, z, 0.5 * lap_step)
        if lap1 < 1e-9:
            # already at roundoff level: harmonic to machine precision
            harm = 0.0
        else:
            ratio = lap1 / lap2 if lap2 > 0 else 4.0
            harm = 0.0 if 3.0 <= ratio <= 5.0 else abs(ratio - 4.0)

        residuals.append((z, max(proj / proj_tol, iso / iso_tol, harm)))
    report = _report("surface_properties", params, grid, residuals, 1.0)
    return report


def _vec_diff(xyz, z, dz):
    plus = xyz(z + dz)
    minus = xyz(z - dz)
    return [(p - m) / (2.0 * abs(dz)) for p, m in zip(plus, minus)]


def _laplacian_norm(xyz, z, h):
    c = xyz(z)
    e = xyz(z + h)
    w = xyz(z - h)
    n = xyz(z + 1j * h)
    s = xyz(z - 1j * h)
    return max(abs(e[i] + w[i] + n[i] + s[i] - 4.0 * c[i]) / (h * h)
               for i in range(3))


def default_check_set(params):
    """The checks applicable to a family, in a stable order."""
    checks = [("oracle_equivalence",
               lambda: check_oracle_equivalence(params)),
              ("dilatation_identity", lambda: check_dilatation(params)),
              ("prevertex_identity", lambda: check_prevertex(params)),
              ("jacobian_positive",
               lambda: check_jacobian_positive(params)),
              ("chd_heuristic", lambda: check_chd_heuristic(params))]
    if params.family == "F_0a":
        checks.append(("strip_bound",
                       lambda: check_strip_bound(params.a)))
    if params.family in ("F_a", "F_1a"):
        checks.append(("symmetry", lambda: check_symmetry(params)))
    if (params.family == "F_ca" and params.c == 2.0) or (
            params.family == "f_2n" and params.n in (1, 2)):
        checks.append(("slit_limit", lambda: check_slit_limit(params)))
    if params.family in ("f_0n", "f_1n", "f_2n",
                         "f_cn") and params.n % 2 == 0:
        checks.append(("surface_properties", lambda: check_surface(params)))
    return checks


def run_checks(params, names=None):
    """Run the default (or named subset of) checks for a family."""
    available = dict(default_check_set(params))
    if names is None:
        names = [name for name, _ in default_check_set(params)]
    reports = []
    for name in names:
        if name not in available:
            raise UnsupportedParameterError(
                f"unknown or inapplicable check {name!r}")
        reports.append(available[name]())
    return reports
