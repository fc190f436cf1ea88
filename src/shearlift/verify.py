"""Named numerical checks turning the toolkit's contracts into reports.

Every check walks a deterministic ring/spoke lattice, reduces per-point
residuals with max (order-independent), and returns a VerificationReport
with the worst offending point, so failures are reproducible bit for bit.
Every check evaluates all of its points at once through the array entry
points of families and surface.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import families
from .analytic import DEFAULT_QUADRATURE, cauchy_derivatives
# Bound here only so that perfbench/spans.py can wrap
# verify.cauchy_derivative; the checks call cauchy_derivatives.
from .analytic import cauchy_derivative  # noqa: F401
from .errors import UnsupportedParameterError
from .shear import grid_points, shear_array
# Bound here only so that perfbench/spans.py can wrap verify.shear_at;
# oracle_equivalence calls shear_array.
from .shear import shear_at  # noqa: F401
from .surface import GridSpec, lift_array
# Bound here only so that perfbench/spans.py can wrap verify.lift_sample;
# surface_properties calls lift_array.
from .surface import lift_sample  # noqa: F401

DEFAULT_GRID = GridSpec(rings=10, spokes=20, r_max=0.9)
# Lewy's criterion is sampled closer to the boundary
JACOBIAN_GRID = GridSpec(rings=10, spokes=20, r_max=0.95)
SURFACE_GRID = GridSpec(rings=4, spokes=8, r_max=0.8)
# chd_heuristic: the image of |z| = CHD_RADIUS against CHD_LINES levels
CHD_RADIUS, CHD_LINES = 0.98, 64
# surface_properties: steps of the metric and of the Laplacian differences
ISO_STEP, LAP_STEP = 1e-4, 1e-2


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


def _report(name, params, grid, points, residuals, tol):
    """Assemble a report from the residual at each point; the first point
    with the largest residual is the one reported."""
    i = int(np.argmax(residuals))
    # a numpy residual would make `passed` a numpy bool, which JSON refuses
    worst = float(residuals[i])
    return VerificationReport(check_name=name, family=params, grid=grid,
                              max_residual=worst, tolerance=tol,
                              passed=worst <= tol,
                              worst_point=complex(points[i]))


def _uv(params, z):
    h, g = families.evaluate_array(params, z)
    return (h + g).real, (h - g).imag


def check_oracle_equivalence(params, grid=DEFAULT_GRID, tol=1e-8):
    """Closed-form (h, g) against the quadrature shear at every node; both
    sides run on the whole lattice at once."""
    z = np.array(grid_points(grid))
    h, g = families.evaluate_array(params, z)
    oh, og = shear_array(families.family_phi(params),
                         families.family_omega(params), z,
                         DEFAULT_QUADRATURE)
    residuals = np.maximum(np.abs(h - oh), np.abs(g - og))
    return _report("oracle_equivalence", params, grid, z, residuals, tol)


def check_dilatation(params, grid=DEFAULT_GRID):
    """|g' - omega*h'| with derivatives taken from the closed-form h, g by
    Cauchy-circle differentiation (the closed forms must satisfy the shear
    system, not just the defining h' = phi'/(1-omega)).  h and g at the
    circle nodes of every point come from one evaluate_array call."""
    z = np.array(grid_points(grid))
    hp, gp = cauchy_derivatives(
        lambda nodes: families.evaluate_array(params, nodes), z,
        0.25 * (1.0 - np.abs(z)))
    residuals = np.abs(gp - families.family_omega(params)(z) * hp)
    return _report("dilatation_identity", params, grid, z, residuals, 1e-8)


def check_prevertex(params, grid=DEFAULT_GRID):
    """|h - g - phi| (the defining shear relation holds exactly)."""
    z = np.array(grid_points(grid))
    h, g = families.evaluate_array(params, z)
    residuals = np.abs(h - g - families.family_phi(params).phi(z))
    return _report("prevertex_identity", params, grid, z, residuals, 1e-10)


def check_jacobian_positive(params):
    """min(|h'|^2 - |g'|^2) > 0 on r <= 0.95 (Lewy's criterion, sampled)."""
    z = np.array(grid_points(JACOBIAN_GRID))
    hp, gp = families.derivatives_array(params, z)
    # negated so that "residual <= 0" means a positive Jacobian
    residuals = -(np.abs(hp) ** 2 - np.abs(gp) ** 2)
    return _report("jacobian_positive", params, JACOBIAN_GRID, z, residuals,
                   0.0)


def check_strip_bound(a):
    """F_0a images stay in |v| < pi/4; for a = +-1 the image is further
    confined to a half strip (u > -1/2 resp. u < 1/2)."""
    params = families.FamilyParams(family="F_0a", a=a)
    z = np.array(grid_points(DEFAULT_GRID))
    u, v = _uv(params, z)
    residuals = np.abs(v) - math.pi / 4.0
    if a == 1.0:
        residuals = np.maximum(residuals, -0.5 - u)
    elif a == -1.0:
        residuals = np.maximum(residuals, u - 0.5)
    return _report("strip_bound", params, DEFAULT_GRID, z, residuals, 0.0)


def check_symmetry(params):
    """F_a: point symmetry F_{-a}(-z) = -conj-free reflection about the
    imaginary axis; F_1a: conjugation symmetry about the real axis."""
    if params.family not in ("F_a", "F_1a"):
        raise UnsupportedParameterError(
            f"no symmetry contract registered for family {params.family!r}")
    z = np.array(grid_points(DEFAULT_GRID))
    su, sv = _uv(params, z)
    if params.family == "F_a":
        mu, mv = _uv(families.FamilyParams(family="F_a", a=-params.a), -z)
        residuals = np.maximum(np.abs(mu + su), np.abs(mv + sv))
    else:
        mu, mv = _uv(params, z.conj())
        residuals = np.hypot(mu - su, mv + sv)
    return _report("symmetry", params, DEFAULT_GRID, z, residuals, 1e-12)


def check_slit_limit(params):
    """Radial limit onto the slit tip -(2-a)/6 for the c = 2 families:
    three points at |z| = 0.9999 map within 0.02 of it.

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
    z = np.array([0.9999 * cmath.exp(1j * theta)
                  for theta in (0.5 * math.pi, math.pi, 1.5 * math.pi)])
    u, v = _uv(params, z)
    residuals = np.hypot(u - target, v)
    return _report("slit_limit", params, None, z, residuals, 0.02)


def boundary_curve(params, samples=512):
    """Sampled image of the circle |z| = CHD_RADIUS, as (u, v) pairs."""
    z = np.array([CHD_RADIUS * cmath.exp(2j * math.pi * k / samples)
                  for k in range(samples)])
    u, v = _uv(params, z)
    return list(zip(u.tolist(), v.tolist()))


def chd_crossing_excess(points):
    """Largest number of polygon/horizontal-line crossings beyond 2.

    A closed curve bounding a CHD region meets every horizontal line in
    at most two boundary points (one interval of interior), so any line
    with more than two crossings witnesses a horizontal re-entry.
    Returns (excess, worst_level).
    """
    vs = np.array([p[1] for p in points], dtype=float)
    lo, hi = float(vs.min()), float(vs.max())
    # strictly interior levels; endpoints graze the curve tangentially
    levels = lo + (hi - lo) * np.arange(1, CHD_LINES + 1) / (CHD_LINES + 1)
    below = vs < levels[:, None]
    # edge j runs from point j to point j + 1, the last one back to the first
    crossings = np.count_nonzero(below != np.roll(below, -1, axis=1), axis=1)
    i = int(np.argmax(crossings))
    if crossings[i] <= 2:
        return 0, lo
    return int(crossings[i]) - 2, float(levels[i])


def check_chd_heuristic(params):
    """Sampled necessary condition for a CHD image (never a proof): the
    image of |z| = CHD_RADIUS crosses each horizontal line at most
    twice."""
    excess, level = chd_crossing_excess(boundary_curve(params))
    return VerificationReport(check_name="chd_heuristic", family=params,
                              grid=None, max_residual=float(excess),
                              tolerance=0.0, passed=excess <= 0,
                              worst_point=complex(0.0, level))


def check_surface(params):
    """Aggregate minimal-surface evidence: projection onto the planar map,
    isothermal first fundamental form, and order-2 harmonicity of all
    three coordinates under Laplacian step halving.  The projection must
    hold within 1e-10 and the metric be isothermal within 1e-5 relative.

    The Laplacian step is much coarser than the metric step: the
    coordinates are harmonic, so at small steps the 5-point residual is
    pure roundoff (eps/h^2) and the halving ratio is noise; at 1e-2 the
    h^2 truncation term dominates and the ratio ~4 is observable.  The
    center z = 0 is skipped: q(0) = 0 makes the metric degenerate there
    for n >= 2.  The 13 stencil points of all grid points go through one
    lift_array call.
    """
    z = np.array(grid_points(SURFACE_GRID))
    # the metric step, the Laplacian step and its half, along both axes
    steps = np.array([ISO_STEP, 1j * ISO_STEP, LAP_STEP, 1j * LAP_STEP,
                      0.5 * LAP_STEP, 1j * (0.5 * LAP_STEP)])
    x = np.array(lift_array(params, z[:, None] + np.concatenate(
        ([0.0], steps, -steps))))
    # (u, v, F3) at the grid points, and a step forward and back
    centre, plus, minus = x[:, :, 0], x[:, :, 1:7], x[:, :, 7:]
    u, v = _uv(params, z)
    proj = np.maximum(np.abs(centre[0] - u), np.abs(centre[1] - v))

    xu = (plus[:, :, 0] - minus[:, :, 0]) / (2.0 * ISO_STEP)
    xv = (plus[:, :, 1] - minus[:, :, 1]) / (2.0 * ISO_STEP)
    e = (xu * xu).sum(axis=0)
    g = (xv * xv).sum(axis=0)
    iso = np.maximum(np.abs(e - g), np.abs((xu * xv).sum(axis=0))) / (e + g)

    def laplacian_norm(k, h):
        # the 5-point Laplacian over the steps k (real) and k + 1 (imaginary)
        return (np.abs(plus[:, :, k] + minus[:, :, k] + plus[:, :, k + 1]
                       + minus[:, :, k + 1] - 4.0 * centre)
                / (h * h)).max(axis=0)

    lap1 = laplacian_norm(2, LAP_STEP)
    lap2 = laplacian_norm(4, 0.5 * LAP_STEP)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lap2 > 0, lap1 / lap2, 4.0)
    # lap1 < 1e-9 is roundoff: harmonic to machine precision
    harm = np.where((lap1 < 1e-9) | ((3.0 <= ratio) & (ratio <= 5.0)), 0.0,
                    np.abs(ratio - 4.0))
    residuals = np.maximum(np.maximum(proj / 1e-10, iso / 1e-5), harm)
    return _report("surface_properties", params, SURFACE_GRID, z, residuals,
                   1.0)


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


def run_checks(params, names=None, tol=None):
    """Run the default (or named subset of) checks for a family; tol, when
    given, replaces the tolerance of oracle_equivalence."""
    available = dict(default_check_set(params))
    if tol is not None:
        available["oracle_equivalence"] = (
            lambda: check_oracle_equivalence(params, tol=tol))
    if names is None:
        names = list(available)
    reports = []
    for name in names:
        if name not in available:
            raise UnsupportedParameterError(
                f"unknown or inapplicable check {name!r}")
        reports.append(available[name]())
    return reports
