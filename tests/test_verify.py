import dataclasses

import numpy as np
import pytest

from shearlift import families, surface, verify
from shearlift.errors import UnsupportedParameterError
from shearlift.families import FamilyParams
from shearlift.shear import grid_points
from shearlift.surface import GridSpec
from shearlift.verify import (check_chd_heuristic, check_dilatation,
                              check_jacobian_positive,
                              check_oracle_equivalence, check_prevertex,
                              check_slit_limit, check_strip_bound,
                              check_surface, check_symmetry,
                              chd_crossing_excess, run_checks)

SMALL = GridSpec(rings=4, spokes=8, r_max=0.9)

# a U-shaped polygon: the notch makes horizontal lines through the arms
# cross the boundary four times, so it is not a CHD region
U_POLYGON = [(0.0, 0.0), (3.0, 0.0), (3.0, 2.0), (2.0, 2.0), (2.0, 1.0),
             (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]


def test_oracle_equivalence_f1_2():
    r = check_oracle_equivalence(FamilyParams(family="f_1n", n=2),
                                 grid=SMALL)
    assert r.passed and r.max_residual < 1e-8


def test_oracle_equivalence_f2_3():
    r = check_oracle_equivalence(FamilyParams(family="f_2n", n=3),
                                 grid=SMALL)
    assert r.passed and r.max_residual < 1e-8


def test_oracle_equivalence_fcn():
    r = check_oracle_equivalence(FamilyParams(family="f_cn", c=0.5, n=3),
                                 grid=SMALL, tol=1e-6)
    assert r.passed and r.max_residual < 1e-6


def test_dilatation_identity():
    for p in (FamilyParams(family="F_ca", c=2.0, a=0.5),
              FamilyParams(family="f_2n", n=4)):
        r = check_dilatation(p, grid=SMALL)
        assert r.passed and r.max_residual < 1e-8


def test_prevertex_identity():
    r = check_prevertex(FamilyParams(family="f_1n", n=3), grid=SMALL)
    assert r.passed and r.max_residual < 1e-10


def test_jacobian_positive():
    r = check_jacobian_positive(FamilyParams(family="f_2n", n=2))
    assert r.passed
    assert r.max_residual < 0.0  # strictly positive Jacobian


def test_strip_bound():
    for a in (-1.0, 0.0, 1.0):
        r = check_strip_bound(a)
        assert r.passed, a


def test_symmetry_checks():
    assert check_symmetry(FamilyParams(family="F_a", a=0.3)).passed
    assert check_symmetry(FamilyParams(family="F_1a", a=0.4)).passed
    with pytest.raises(UnsupportedParameterError):
        check_symmetry(FamilyParams(family="f_0n", n=2))


def test_slit_limits():
    for a, fam, kw in ((1.0, "f_2n", dict(n=1)), (0.0, "f_2n", dict(n=2)),
                       (-1.0, "F_ca", dict(c=2.0, a=-1.0))):
        r = check_slit_limit(FamilyParams(family=fam, **kw))
        assert r.passed, (fam, kw)
    with pytest.raises(UnsupportedParameterError):
        check_slit_limit(FamilyParams(family="f_2n", n=3))


def test_chd_heuristic_passes_on_catalog():
    for fam, kw in (("F_0a", dict(a=0.0)), ("f_2n", dict(n=4))):
        r = check_chd_heuristic(FamilyParams(family=fam, **kw))
        assert r.passed, fam


def test_chd_heuristic_fails_on_fixture():
    excess, level = chd_crossing_excess(U_POLYGON)
    assert excess > 0
    assert 1.0 < level < 2.0  # a line through the notch


def test_chd_convex_fixture_passes():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    assert chd_crossing_excess(square)[0] == 0


@pytest.mark.parametrize("params", [
    FamilyParams(family="F_ca", c=2.0, a=0.2),
    FamilyParams(family="f_cn", c=0.5, n=4)], ids=("F_ca", "f_cn"))
def test_chd_heuristic_reads_phi_alone(monkeypatch, params):
    # f is CHD exactly when phi is (the Clunie-Sheil-Small shear), and v is
    # Im phi, so the check needs no closed form
    def closed_form(*args, **kwargs):
        raise AssertionError("chd_heuristic evaluated the closed form")

    for name in ("_closed_form", "evaluate_array"):
        monkeypatch.setattr(families, name, closed_form)
    r = check_chd_heuristic(params)
    assert r.check_name == "chd_heuristic"
    assert r.passed and r.n_points == 512


# --- the defect matrix: which check catches which defect ------------------
#
# Each defect goes into the closed form that the plan of its parameter set
# holds, so that every caller of the form (evaluate_array, the lifts and
# the checks) sees it; a power family's near-origin series keeps the
# right values inside its radius.  Each defect is a function of
# (z, h, g, phi[, F3]), the form's output:
#
# - "h+z3": h + 1e-6 z^3, with g = h - phi;
# - "F3":   F3 (1 + 1e-9), on the lifts of the power families;
# - "log":  the stray term 0.05 log(1 - z^2) in h, with g = h - phi;
# - "phi":  phi (1 + 1e-9), with g = h - phi, for F_ca and f_cn, whose
#           forms take phi from a term of their own.


def _shift_h(term):
    return lambda z, h, g, phi, *f3: (h + term(z), g + term(z), phi, *f3)


DEFECTS = {
    "h+z3": _shift_h(lambda z: 1e-6 * z ** 3),
    "F3": lambda z, h, g, phi, *f3: (h, g, phi,
                                     *((1.0 + 1e-9) * x for x in f3)),
    "log": _shift_h(lambda z: 0.05 * np.log(1.0 - z * z)),
    "phi": lambda z, h, g, phi, *f3: (h, g - 1e-9 * phi, (1.0 + 1e-9) * phi,
                                      *f3),
}
MATRIX_FAMILIES = {"F_a": FamilyParams(family="F_a", a=0.5),
                   "F_ca": FamilyParams(family="F_ca", c=0.5, a=0.5),
                   "f_1n": FamilyParams(family="f_1n", n=6),
                   "f_cn": FamilyParams(family="f_cn", c=0.5, n=4)}
# the columns of MATRIX
MATRIX_CHECKS = ("oracle_equivalence", "dilatation_identity",
                 "prevertex_identity", "jacobian_positive", "chd_heuristic",
                 "symmetry", "surface_properties")
# the verdict of every check on every (family, defect): x fails, . passes,
# - is not a check of the family; "none" is the form as it is
MATRIX = """
#             oracle dilat prever jacob chd symm surface
F_a    none   .      .     .      .     .   .    -
F_a    h+z3   x      x     .      .     .   .    -
F_a    log    x      x     .      .     .   x    -
F_ca   none   .      .     .      .     .   -    -
F_ca   h+z3   x      x     .      .     .   -    -
F_ca   log    x      x     .      .     .   -    -
F_ca   phi    .      x     x      .     .   -    -
f_1n   none   .      .     .      .     .   -    .
f_1n   h+z3   x      x     .      .     .   -    x
f_1n   F3     .      .     .      .     .   -    x
f_1n   log    x      x     .      .     .   -    x
f_cn   none   .      .     .      .     .   -    .
f_cn   h+z3   x      x     .      .     .   -    x
f_cn   F3     .      .     .      .     .   -    x
f_cn   log    x      x     .      .     .   -    x
f_cn   phi    .      x     x      .     .   -    x
"""
MATRIX_ROWS = [line.split() for line in MATRIX.strip().splitlines()[1:]]


@pytest.mark.parametrize("row", MATRIX_ROWS,
                         ids=["-".join(row[:2]) for row in MATRIX_ROWS])
def test_defect_matrix(monkeypatch, row):
    family, defect, verdicts = row[0], row[1], row[2:]
    params = MATRIX_FAMILIES[family]
    if defect != "none":
        build = families._plan

        def broken_plan(p):
            form = build(p).form

            def broken(plan, z, *lift):
                return DEFECTS[defect](z, *form(plan, z, *lift))

            return dataclasses.replace(build(p), form=broken)

        monkeypatch.setattr(families, "_plan", broken_plan)
    got = {r.check_name: "." if r.passed else "x" for r in run_checks(params)}
    want = {name: v for name, v in zip(MATRIX_CHECKS, verdicts) if v != "-"}
    assert got == want


def _surface_id(p):
    return (f"{p.family}-n{p.n}" if p.family != "f_cn"
            else f"f_cn-c{p.c}-n{p.n}")


# every power family through n = 8, where the worst residual, 1.3e-13 at
# f_2n n = 8, keeps a margin of over 10x below the tolerance, and the
# larger n that keep it since the near-origin series reaches further out
# with n (3.7e-13 at f_cn c = 1.5, n = 14)
@pytest.mark.parametrize("params", [
    FamilyParams(family=fam, n=n) for fam in ("f_0n", "f_1n", "f_2n")
    for n in (2, 4, 6, 8)] + [
    FamilyParams(family="f_cn", c=c, n=n) for c in (0.5, 1.5)
    for n in (4, 8, 14)] + [
    FamilyParams(family="f_0n", n=16), FamilyParams(family="f_1n", n=14),
    FamilyParams(family="f_1n", n=16),
    FamilyParams(family="f_cn", c=0.5, n=16)], ids=_surface_id)
def test_surface_check(params):
    r = check_surface(params)
    assert r.passed and r.max_residual < r.tolerance / 10


# n where the closed-form F3 from |z| = 1/4 on fails the check (3.1e-11
# to 2.4e-10) and the near-origin series passes it with less margin: the
# rest is the 32-node circle rule, whose circles about the ring |z| = 0.2
# reach the zero of order n/2 + 1 of F3 at z = 0
@pytest.mark.parametrize("params", [
    FamilyParams(family="f_2n", n=14), FamilyParams(family="f_2n", n=16),
    FamilyParams(family="f_cn", c=1.5, n=16)], ids=_surface_id)
def test_surface_check_passes_at_larger_n(params):
    assert check_surface(params).passed


def _paraboloid(z):
    """1e-3 |z - z_k|^2, z_k the surface grid point nearest to each z."""
    grid = np.array(grid_points(verify.SURFACE_GRID))
    nearest = grid[np.argmin(np.abs(z[..., None] - grid), axis=-1)]
    return 1e-3 * np.abs(z - nearest) ** 2


# each defect breaks one of the properties: F3 scaled (no longer
# isothermal, nor T' = h' z^(n/2)), F3 plus a paraboloid about every grid
# point (its circle mean is no longer its centre value), and F3 plus
# 1e-9 Im z^2, 1e-9 relative (T' no longer h' z^(n/2))
@pytest.mark.parametrize("defect, residual", (
    (lambda z, u, v, f3: (u, v, 1.1 * f3), 0.1),
    (lambda z, u, v, f3: (u, v, f3 + _paraboloid(z)), 3.407e-4),
    (lambda z, u, v, f3: (u, v, f3 + 1e-9 * (z ** 2).imag), 1.050e-8),
), ids=("isothermal", "harmonic", "lift"))
def test_surface_check_fails_on_a_broken_lift(monkeypatch, defect, residual):
    lift = verify.lift_array
    monkeypatch.setattr(verify, "lift_array",
                        lambda params, z: defect(z, *lift(params, z)))
    r = check_surface(FamilyParams(family="f_2n", n=2))
    assert not r.passed
    assert r.max_residual == pytest.approx(residual, rel=1e-3)


def test_surface_check_fails_on_a_stretched_map(monkeypatch):
    # u stretched by 1.1 in the lift: the circle means and T' hold, and
    # only the metric fails
    lift = verify.lift_array

    def stretch(u, v, f3):
        return 1.1 * u, v, f3

    monkeypatch.setattr(verify, "lift_array",
                        lambda params, z: stretch(*lift(params, z)))
    r = check_surface(FamilyParams(family="f_2n", n=2))
    assert not r.passed
    assert r.max_residual == pytest.approx(9.502e-2, rel=1e-3)


def test_checks_make_no_scalar_evaluation(monkeypatch):
    def scalar(*args):
        raise AssertionError("a scalar call in a verify check")

    for module, name in ((families, "evaluate"), (surface, "lift_sample"),
                         (verify, "lift_sample")):
        monkeypatch.setattr(module, name, scalar)
    for p in (FamilyParams(family="f_2n", n=2),
              FamilyParams(family="f_cn", c=0.5, n=4)):
        reports = run_checks(p)
        assert "surface_properties" in [r.check_name for r in reports]
        assert all(r.passed for r in reports)


def test_report_dict_schema():
    r = check_prevertex(FamilyParams(family="f_0n", n=2), grid=SMALL)
    d = r.to_dict()
    assert list(d) == ["check_name", "family", "grid", "max_residual",
                       "tolerance", "passed", "worst_point", "n_points"]
    assert d["family"]["family"] == "f_0n"
    assert len(d["worst_point"]) == 2
    assert d["n_points"] == 32  # the 4 x 8 points of SMALL
    # the dict of dataclasses.asdict, with copies of the family and grid
    want = dataclasses.asdict(r)
    want["worst_point"] = [r.worst_point.real, r.worst_point.imag]
    assert d == want
    d["family"]["n"] = 4
    assert r.family.n == 2
    bare = dataclasses.replace(r, family=None, grid=None,
                               max_residual=float("inf"))
    assert [bare.to_dict()[k] for k in ("family", "grid", "max_residual")] \
        == [None] * 3


def test_reports_count_their_points():
    # the default grids have 200 points; chd_heuristic samples 512 boundary
    # points, slit_limit 3 radial ones, and surface_properties SURFACE_GRID
    want = {"chd_heuristic": 512, "slit_limit": 3, "surface_properties": 32}
    for p in (FamilyParams(family="f_2n", n=2),
              FamilyParams(family="F_0a", a=0.0),
              FamilyParams(family="F_a", a=0.3)):
        for r in run_checks(p):
            assert r.n_points == want.get(r.check_name, 200), r.check_name


def test_run_checks_selects_names():
    p = FamilyParams(family="f_0n", n=2)
    reports = run_checks(p, names=["prevertex_identity",
                                   "jacobian_positive"])
    assert [r.check_name for r in reports] == ["prevertex_identity",
                                               "jacobian_positive"]
    with pytest.raises(UnsupportedParameterError):
        run_checks(p, names=["no_such_check"])
    with pytest.raises(UnsupportedParameterError):
        run_checks(p, names=["strip_bound"])  # inapplicable for f_0n
