import math

import numpy as np
import pytest

from shearlift import families, surface, verify
from shearlift.errors import UnsupportedParameterError
from shearlift.families import FamilyParams
from shearlift.shear import grid_points
from shearlift.surface import GridSpec
from shearlift.verify import (boundary_curve, check_chd_heuristic,
                              check_dilatation, check_jacobian_positive,
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


def test_boundary_curve_shape():
    pts = boundary_curve(FamilyParams(family="F_0a", a=0.0), samples=64)
    assert len(pts) == 64
    assert max(abs(v) for _, v in pts) < math.pi / 4.0


def test_surface_check():
    r = check_surface(FamilyParams(family="f_2n", n=2))
    assert r.passed
    r = check_surface(FamilyParams(family="f_0n", n=4))
    assert r.passed


def _paraboloid(z):
    """1e-3 |z - z_k|^2, z_k the surface grid point nearest to each z."""
    grid = np.array(grid_points(verify.SURFACE_GRID))
    nearest = grid[np.argmin(np.abs(z[..., None] - grid), axis=-1)]
    return 1e-3 * np.abs(z - nearest) ** 2


# each defect breaks one of the three properties: u shifted off the planar
# map, F3 scaled (no longer isothermal), and F3 plus a paraboloid about
# every grid point (central differences and the projection unchanged, but
# the Laplacian no longer halves its error with the step)
@pytest.mark.parametrize("defect, residual", (
    (lambda z, u, v, f3: (u + 1e-9, v, f3), 10.0),
    (lambda z, u, v, f3: (u, v, 1.1 * f3), 9.086e3),
    (lambda z, u, v, f3: (u, v, f3 + _paraboloid(z)), 3.375),
), ids=("projection", "isothermal", "harmonic"))
def test_surface_check_fails_on_a_broken_lift(monkeypatch, defect, residual):
    lift = verify.lift_array
    monkeypatch.setattr(verify, "lift_array",
                        lambda params, z: defect(z, *lift(params, z)))
    r = check_surface(FamilyParams(family="f_2n", n=2))
    assert not r.passed
    assert r.max_residual == pytest.approx(residual, rel=1e-3)


def test_surface_check_passes_on_a_plane(monkeypatch):
    # the plane F3 = 0 over the identity map is minimal; its Laplacians
    # are pure roundoff, so their step-halving ratio is noise that the
    # check must not read as a failure
    monkeypatch.setattr(verify, "lift_array",
                        lambda params, z: (z.real, z.imag, np.zeros(z.shape)))
    monkeypatch.setattr(families, "evaluate_array",
                        lambda params, z: (z, np.zeros_like(z)))
    r = check_surface(FamilyParams(family="f_2n", n=2))
    assert r.passed and r.max_residual < 1e-6


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
                       "tolerance", "passed", "worst_point"]
    assert d["family"]["family"] == "f_0n"
    assert len(d["worst_point"]) == 2


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
