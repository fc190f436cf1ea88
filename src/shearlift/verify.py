"""Named numerical checks turning the toolkit's contracts into reports.

Every check walks a deterministic ring/spoke lattice, reduces per-point
residuals with max (order-independent), and returns a VerificationReport
with the worst offending point, so failures are reproducible bit for bit.
Every check evaluates all of its points at once through the array paths
of families and surface, and takes the image (u, v) of h, g and phi from
shear.coordinates; chd_heuristic reads phi alone.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import families
from .analytic import (cauchy_derivatives, circle_derivative, circle_nodes,
                       unit_roots)
# Bound here only so that perfbench/spans.py can wrap
# verify.cauchy_derivative; the checks call cauchy_derivatives.
from .analytic import cauchy_derivative  # noqa: F401
from .errors import UnsupportedParameterError
from .shear import coordinates, grid_array, shear_grid
# Bound here only so that perfbench/spans.py can wrap verify.shear_at;
# oracle_equivalence calls shear_grid.
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
# the families with a symmetry contract
SYMMETRY_FAMILIES = ("F_a", "F_1a")


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    family: object  # FamilyParams or None
    grid: object  # GridSpec or None
    max_residual: float
    tolerance: float
    passed: bool
    worst_point: complex
    n_points: int  # the number of points the residual is the max over

    def to_dict(self):
        d = asdict(self)
        # JSON has no inf or NaN: a non-finite residual is written as null
        if not math.isfinite(self.max_residual):
            d["max_residual"] = None
        d["worst_point"] = [self.worst_point.real, self.worst_point.imag]
        return d


def _report(name, params, grid, points, residuals, tol):
    """Assemble a report from the residual at each point; the first point
    with the largest residual (or the first NaN) is the one reported, and
    a non-finite worst residual fails."""
    i = int(np.argmax(residuals))
    # a numpy residual would make `passed` a numpy bool, which JSON refuses
    worst = float(residuals[i])
    return VerificationReport(check_name=name, family=params, grid=grid,
                              max_residual=worst, tolerance=tol,
                              passed=math.isfinite(worst) and worst <= tol,
                              worst_point=complex(points[i]),
                              n_points=int(residuals.size))


def check_oracle_equivalence(params, grid=DEFAULT_GRID, tol=1e-8):
    """Closed-form (h, g) against the quadrature shear at every node; both
    sides run on the whole lattice at once, the quadrature ring to ring
    along each spoke."""
    z = grid_array(grid)
    h, g = families.evaluate_array(params, z)
    oh, og = shear_grid(families.family_phi(params),
                        families.family_omega(params), grid)
    residuals = np.maximum(np.abs(h - oh), np.abs(g - og))
    return _report("oracle_equivalence", params, grid, z, residuals, tol)


def _circle_radius(z):
    """The radius of the Cauchy circle about each point z: a quarter of
    its distance to the unit circle, where the nearest singularity of a
    family can lie, so the 32-node trapezoid rule errs by about 4^-32."""
    return 0.25 * (1.0 - np.abs(z))


def check_dilatation(params, grid=DEFAULT_GRID):
    """|g' - omega*h'| with derivatives taken from the closed-form h, g by
    Cauchy-circle differentiation (the closed forms must satisfy the shear
    system, not just the defining h' = phi'/(1-omega)).  h and g at the
    circle nodes of every point come from one evaluate_array call."""
    z = grid_array(grid)
    hp, gp = cauchy_derivatives(
        lambda nodes: families.evaluate_array(params, nodes), z,
        _circle_radius(z))
    residuals = np.abs(gp - families.family_omega(params)(z) * hp)
    return _report("dilatation_identity", params, grid, z, residuals, 1e-8)


def check_prevertex(params, grid=DEFAULT_GRID):
    """|h - g - phi|: roundoff by construction wherever the form returns
    g = h - phi with the plan's phi; it compares two k_c only for F_ca (at
    c = 2, expm1 k_2 against z/(1 - z)^2) and f_cn outside its series."""
    z = grid_array(grid)
    h, g = families.evaluate_array(params, z)
    residuals = np.abs(h - g - families.family_phi(params).phi(z))
    return _report("prevertex_identity", params, grid, z, residuals, 1e-10)


def check_jacobian_positive(params):
    """min(|h'|^2 - |g'|^2) > 0 on r <= 0.95 (Lewy's criterion, sampled).
    h' and g' come from phi'/(1 - omega), not from the closed forms, so
    the residual -|h'|^2 (1 - |omega|^2) fails only where |omega| >= 1."""
    z = grid_array(JACOBIAN_GRID)
    hp, gp = families.derivatives_array(params, z)
    # negated so that "residual <= 0" means a positive Jacobian
    residuals = -(np.abs(hp) ** 2 - np.abs(gp) ** 2)
    return _report("jacobian_positive", params, JACOBIAN_GRID, z, residuals,
                   0.0)


def check_strip_bound(a):
    """F_0a images stay in |v| < pi/4; for a = +-1 the image is further
    confined to a half strip (u > -1/2 resp. u < 1/2).  For |a| < 1 the
    residual reads v = Im k_0 alone, which no error of h or g reaches."""
    params = families.FamilyParams(family="F_0a", a=a)
    z = grid_array(DEFAULT_GRID)
    u, v = coordinates(*families._closed_form(params, z))
    residuals = np.abs(v) - math.pi / 4.0
    if a == 1.0:
        residuals = np.maximum(residuals, -0.5 - u)
    elif a == -1.0:
        residuals = np.maximum(residuals, u - 0.5)
    return _report("strip_bound", params, DEFAULT_GRID, z, residuals, 0.0)


def check_symmetry(params):
    """F_a: point symmetry F_{-a}(-z) = -F_a(z), checked on u and v;
    F_1a: conjugation symmetry F(conj z) = conj F(z), a reflection of the
    image in the real axis."""
    if params.family not in SYMMETRY_FAMILIES:
        raise UnsupportedParameterError(
            f"no symmetry contract registered for family {params.family!r}")
    z = grid_array(DEFAULT_GRID)
    su, sv = coordinates(*families._closed_form(params, z))
    if params.family == "F_a":
        mirror = families.FamilyParams(family="F_a", a=-params.a)
        mu, mv = coordinates(*families._closed_form(mirror, -z))
        residuals = np.maximum(np.abs(mu + su), np.abs(mv + sv))
    else:
        mu, mv = coordinates(*families._closed_form(params, z.conj()))
        residuals = np.hypot(mu - su, mv + sv)
    return _report("symmetry", params, DEFAULT_GRID, z, residuals, 1e-12)


def _slit_tip_a(params):
    """The a of the slit tip -(2-a)/6 of F_ca at c = 2 and of f_2n at
    n = 1 (a = 1) and n = 2 (a = 0); None for every other family (at
    n >= 3 the boundary image of f_2n has no single tip)."""
    if params.family == "F_ca" and params.c == 2.0:
        return params.a
    if params.family == "f_2n" and params.n in (1, 2):
        return 1.0 if params.n == 1 else 0.0
    return None


def check_slit_limit(params):
    """Radial limit onto the slit tip of _slit_tip_a: 0.9999 i, -0.9999
    and -0.9999 i map within 0.02 of it."""
    a = _slit_tip_a(params)
    if a is None:
        raise UnsupportedParameterError(
            "slit limit applies to F_ca with c=2 and f_2n with n in {1, 2}")
    target = -(2.0 - a) / 6.0
    z = 0.9999 * unit_roots(4)[1:]
    u, v = coordinates(*families._closed_form(params, z))
    residuals = np.hypot(u - target, v)
    return _report("slit_limit", params, None, z, residuals, 0.02)


def chd_crossing_excess(points):
    """Largest number of polygon/horizontal-line crossings beyond 2.

    A closed curve bounding a CHD region meets every horizontal line in
    at most two boundary points (one interval of interior), so any line
    with more than two crossings witnesses a horizontal re-entry.
    Returns (excess, worst_level).
    """
    vs = np.asarray(points, dtype=float)[:, 1]
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
    image of |z| = CHD_RADIUS crosses each horizontal line at most twice.
    v = Im phi, and f is CHD exactly when phi is (the Clunie-Sheil-Small
    shear), so 512 samples of phi alone decide it."""
    w = families.family_phi(params).phi(CHD_RADIUS * unit_roots(512))
    excess, level = chd_crossing_excess(np.column_stack((w.real, w.imag)))
    return VerificationReport(check_name="chd_heuristic", family=params,
                              grid=None, max_residual=float(excess),
                              tolerance=0.0, passed=excess <= 0,
                              worst_point=complex(0.0, level),
                              n_points=w.size)


def check_surface(params):
    """Minimal-surface evidence from the lift on Cauchy circles: an
    isothermal metric, harmonic coordinates and the lift identity
    T' = h' z^(n/2), F3 = 2 Im T (its u, v are the planar map's by
    construction).  One lift_array call takes the points of SURFACE_GRID
    (none at z = 0) and their circles.  phi_k = 2 c_1(X_k)/rho =
    X_x - i X_y gives the metric, isothermal when sum phi_k^2 =
    E - G - 2iF vanishes against E + G = sum |phi_k|^2, and
    T' = i c_1(F3)/rho; a harmonic coordinate's circle mean is its centre
    value.  The mean is measured against rho sqrt(E + G), the size of the
    circle's image, and T' against h' z^(n/2) from derivatives_array:
    near 0 at large n, F3 is too small for the metric to see its error.
    The tolerance is 1e-11, 45 times the worst residual at n <= 8
    (2.2e-13).  Where h' z^(n/2) underflows to 0 (|z| = 0.2 at n = 1024)
    the residual is inf or NaN, and the check fails without a
    floating-point warning.
    """
    z = grid_array(SURFACE_GRID)
    rho = _circle_radius(z)
    x = np.array(lift_array(params, np.concatenate(
        (z[:, None], circle_nodes(z, rho)), axis=1)))
    # (u, v, F3) at the grid points and on their circles
    centre, circle = x[:, :, 0], x[:, :, 1:]
    hq = families.derivatives_array(params, z)[0] * z ** (int(params.n) // 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = 2.0 * circle_derivative(circle, rho)
        metric = (np.abs(phi) ** 2).sum(axis=0)
        scale = rho * np.sqrt(metric)
        iso = np.abs((phi * phi).sum(axis=0)) / metric
        harm = np.abs(circle.mean(axis=-1) - centre).max(axis=0) / scale
        lift = np.abs(0.5j * phi[2] - hq) / np.abs(hq)
        residuals = np.maximum(np.maximum(iso, harm), lift)
    return _report("surface_properties", params, SURFACE_GRID, z, residuals,
                   1e-11)


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
    if params.family in SYMMETRY_FAMILIES:
        checks.append(("symmetry", lambda: check_symmetry(params)))
    if _slit_tip_a(params) is not None:
        checks.append(("slit_limit", lambda: check_slit_limit(params)))
    if params.family in families._POWER_FAMILIES and params.n % 2 == 0:
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
