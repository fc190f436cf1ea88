"""The array entry points against the scalar calls that share their
formulas: evaluate_array against evaluate, derivatives_array against
hprime/gprime, lift_array against lift_sample, shear_array (the batched
quadrature) against shear_at (the one-point quadrature).  The closed
forms run the same numpy code on a batch and on one point.

numpy's scalar math and its array loops round differently in the last
bits, and a batch of f_cn terms sums each series to the tail bound of its
largest argument, so agreement means within 1e-14 * max(1, |x|).  Near
the unit circle, where the closed forms have their poles, a last-bit
difference in an argument is amplified by about 1/(1 - |z|) (h' of the
Mobius families differs by 1.1e-13 at z = 0.999); there the bound is
four units of roundoff times that factor, which exceeds 1e-14 from
|z| = 0.91 on.  The two quadratures evaluate their panels with one
formula, whose sums do not depend on the batch, so shear_array's h
equals shear_at's bit for bit, for one point as for many.  shear_grid
integrates a lattice ring to ring and sums along each spoke, so it meets
them within the quadrature's accuracy, 1e-12 * max(1, |h|).
"""

import functools
import re

import numpy as np
import pytest

from shearlift import analytic, families, surface, verify
from shearlift._kernels import fallback
from shearlift.cli import main
from shearlift.errors import (ConvergenceError, DilatationNotSquareError,
                              DomainError, UnsupportedParameterError)
from shearlift.families import (FamilyParams, derivatives_array, evaluate,
                                evaluate_array, family_omega, family_phi,
                                gprime, hprime)
from shearlift.shear import (DilatationSpec, PrevertexSpec, grid_array,
                             grid_points, sample_grid, shear_array, shear_at,
                             shear_grid)
from shearlift.special import hyp2f1_1c
from shearlift.surface import GridSpec, lift_array, lift_sample
from shearlift.verify import DEFAULT_GRID

TOL = 1e-14
EPS = np.finfo(float).eps

CLOSED_FORMS = (
    [FamilyParams(family="F_a", a=a) for a in (-1.0, 0.3)]
    + [FamilyParams(family="F_0a", a=a) for a in (-0.6, 1.0)]
    + [FamilyParams(family="F_1a", a=a) for a in (-1.0, 0.45)]
    + [FamilyParams(family="F_ca", c=c, a=a)
       for c, a in ((0.0, 0.2), (0.5, -0.3), (1.0, 0.7), (1.5, 0.9),
                    (2.0, -1.0))]
    + [FamilyParams(family=f, n=n)
       for f in ("f_0n", "f_1n", "f_2n") for n in (1, 2, 3, 4, 7, 8)]
    + [FamilyParams(family="f_cn", c=c, n=n)
       for c in (0.0, 0.5, 1.0, 2.0) for n in (3, 4)]
    # the general f_cn form: small c, the folded near-integer 1/x term of
    # hyp2f1_1c(c+1) on both sides of c = 1, and both parities of n/2
    + [FamilyParams(family="f_cn", c=c, n=n)
       for c in (1e-6, 0.1, 0.9995, 1.0005, 1.5) for n in (2, 3, 7, 8)])
# up to the largest r_max the CLI accepts
GRID = GridSpec(rings=6, spokes=14, r_max=0.999)

# c = 1.0005 lay in the former oracle band around 1, where the values
# came from quadrature; the closed form now covers it
ORACLE_BAND = FamilyParams(family="F_ca", c=1.0005, a=0.5)


def seam(n):
    """Points at the radius where a power family with this n switches from
    the near-origin series to its closed form, and one ulp either side."""
    r = families._series_radius(n)
    return [s * e for s in (np.nextafter(r, 0.0), r, np.nextafter(r, 1.0))
            for e in analytic.unit_roots(8).tolist()]


SEAM = seam(1)


def assert_close(got, want, z):
    want = np.asarray(want)
    assert got.shape == want.shape
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    bound = np.maximum(TOL, 4.0 * EPS / (1.0 - np.abs(z)))
    assert (err <= bound).all(), (err / bound).max()


def _cases():
    for p in CLOSED_FORMS:
        yield pytest.param(p, GRID, id=f"{p.family}-c{p.c}-a{p.a}-n{p.n}")
    yield pytest.param(ORACLE_BAND, GRID, id="F_ca-oracle-band")


@pytest.mark.parametrize("params,grid", _cases())
def test_evaluate_array_matches_evaluate(params, grid):
    z = np.array(grid_points(grid) + SEAM)
    h, g = evaluate_array(params, z)
    samples = [evaluate(params, p) for p in z.tolist()]
    assert_close(h, [s.h for s in samples], z)
    assert_close(g, [s.g for s in samples], z)
    assert not any(s.fallback for s in samples)


@pytest.mark.parametrize("params,grid", _cases())
def test_derivatives_array_matches_hprime_gprime(params, grid):
    z = np.array(grid_points(grid))
    hp, gp = derivatives_array(params, z)
    assert_close(hp, [hprime(params, p) for p in z.tolist()], z)
    assert_close(gp, [gprime(params, p) for p in z.tolist()], z)


@pytest.mark.parametrize("params", [
    p for p in CLOSED_FORMS if p.family.startswith("f_") and p.n % 2 == 0]
    + [FamilyParams(family="f_cn", c=1.0005, n=4)],
    ids=lambda p: f"{p.family}-c{p.c}-n{p.n}")
def test_lift_array_matches_lift_sample(params):
    z = np.array(grid_points(GRID) + SEAM)
    u, v, f3 = lift_array(params, z)
    samples = [lift_sample(params, p) for p in z.tolist()]
    assert_close(u, [s.u for s in samples], z)
    assert_close(v, [s.v for s in samples], z)
    assert_close(f3, [s.f3 for s in samples], z)
    assert not any(s.fallback for s in samples)


# the radius grows with n from n = 10 on; at n = 64 the closed forms' h
# itself, summed from root terms of size ~n^c, is off by up to 1.4e-14 at
# |z| = 0.84 (f_2n), wherever the seam lies
@pytest.mark.parametrize("params", [
    p for p in CLOSED_FORMS if p.family.startswith("f_")]
    + [FamilyParams(family=f, n=n) for f in ("f_0n", "f_1n", "f_2n")
       for n in (10, 16, 32)]
    + [FamilyParams(family="f_cn", c=1.5, n=n) for n in (10, 16, 32)],
    ids=lambda p: f"{p.family}-c{p.c}-n{p.n}")
def test_series_meets_the_closed_form_at_its_radius(params):
    z = np.array(seam(params.n))
    plan = families._plan(params)
    lift = params.n % 2 == 0
    for a, b in zip(families._near_origin(plan, z, lift),
                    plan.form(plan, z, lift)):
        assert_close(a, b, z)


def test_arrays_keep_their_shape():
    z = np.array(grid_points(GridSpec(rings=3, spokes=4, r_max=0.8)))
    z = z.reshape(3, 4)
    h, g = evaluate_array(FamilyParams(family="f_cn", c=0.5, n=3), z)
    assert h.shape == g.shape == (3, 4)
    u, v, f3 = lift_array(FamilyParams(family="f_1n", n=2), z)
    assert u.shape == v.shape == f3.shape == (3, 4)


def test_fcn_arrays_do_not_go_point_by_point(monkeypatch):
    def scalar(*args):
        raise AssertionError("a one-point f_cn call on the array path")

    # the constants of the roots come from hyp2f1_1c, once per plan
    params = FamilyParams(family="f_cn", c=0.7, n=6)
    families._plan(params)
    calls = []

    def counted(c, x):
        calls.append(np.shape(x))
        return hyp2f1_1c(c, x)

    monkeypatch.setattr(families, "hyp2f1_1c", counted)
    for module, name in ((families, "evaluate"), (surface, "lift_sample")):
        monkeypatch.setattr(module, name, scalar)
    z = np.array(grid_points(GridSpec(rings=3, spokes=4, r_max=0.8)))
    h, g = evaluate_array(params, z)
    assert len(calls) == 1
    u, v, f3 = lift_array(params, z)
    # one call each over (points, roots other than +-1)
    assert calls == [(z.size, 4)] * 2
    assert np.isfinite(h).all() and np.isfinite(f3).all()


def test_one_point_calls_give_python_numbers():
    # a numpy scalar or a 0-d ndarray would leak into MapSample,
    # SurfaceSample and JSON; np.float64 subclasses float, so the types
    # are compared exactly
    z = 0.3 + 0.4j
    for params in (FamilyParams(family="F_a", a=0.3),
                   FamilyParams(family="F_0a", a=-0.6),
                   FamilyParams(family="F_1a", a=0.45),
                   FamilyParams(family="F_ca", c=0.5, a=-0.3),
                   FamilyParams(family="f_0n", n=6),
                   FamilyParams(family="f_1n", n=6),
                   FamilyParams(family="f_2n", n=6),
                   FamilyParams(family="f_cn", c=0.7, n=6)):
        sample = evaluate(params, z)
        assert [type(x) for x in (sample.h, sample.g, sample.u,
                                  sample.v)] == [complex, complex, float,
                                                 float], params
        assert type(hprime(params, z)) is complex, params
        assert type(gprime(params, z)) is complex, params
        if params.family.startswith("f_"):
            lift = lift_sample(params, z)
            assert [type(x) for x in (lift.u, lift.v, lift.f3)] == [
                float] * 3, params
    assert type(hyp2f1_1c(0.7, 0.3 - 0.2j)) is complex
    plan = families._plan(FamilyParams(family="f_cn", c=0.7, n=6))
    assert [type(x) for x in families._f_cn(plan, z, True)] == [
        complex] * 3 + [float]


def test_array_domain_error_names_first_offending_point():
    z = np.array([0.1, 0.5j, 1.25 + 0j, -2.0])
    for call in (lambda: evaluate_array(FamilyParams(family="F_a"), z),
                 lambda: derivatives_array(FamilyParams(family="F_a"), z),
                 lambda: lift_array(FamilyParams(family="f_2n", n=2), z)):
        with pytest.raises(DomainError, match=re.escape("(1.25+0j)")):
            call()


def test_lift_array_rejects_what_lift_sample_rejects():
    z = np.array([0.2j])
    with pytest.raises(UnsupportedParameterError):
        lift_array(FamilyParams(family="F_ca", c=0.5, a=0.1), z)
    with pytest.raises(DilatationNotSquareError):
        lift_array(FamilyParams(family="f_1n", n=3), z)


def test_map_in_the_oracle_band_at_rmax_limit_exits_two(tmp_path, capsys,
                                                         monkeypatch):
    # F_ca at c = 0.0005 lay in the former oracle band; the quadrature
    # oracle still maps it inside oracle_equivalence.  On the grid of a
    # map at the r_max limit the oracle accepts every node, but capped at
    # one bisection it stalls; the error names the point
    batched = fallback.adaptive_segments
    monkeypatch.setattr(
        fallback, "adaptive_segments",
        lambda f, z0, z1, abs_tol, rel_tol, _: batched(f, z0, z1, abs_tol,
                                                       rel_tol, 1))
    grid = GridSpec(rings=2, spokes=8, r_max=0.999)
    monkeypatch.setattr(
        verify, "check_oracle_equivalence",
        functools.partial(verify.check_oracle_equivalence, grid=grid))
    out = tmp_path / "r.json"
    assert main(["verify", "--family", "F_ca", "--c", "0.0005", "--a", "-1",
                 "--checks", "oracle_equivalence", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    point = re.search(r"at grid point z=(\S+):", err)
    assert point and complex(point.group(1)) in grid_points(grid)
    assert abs(complex(point.group(1))) == pytest.approx(0.999)
    assert "too close to the boundary" not in err
    assert not out.exists()


# The specs of every family (identity or Koebe prevertex; Mobius or power
# dilatation), the zero dilatation, and the custom specs, which go through
# the same integrand.
SHEAR_SPECS = [pytest.param(family_phi(p), family_omega(p),
                            id=f"{p.family}-c{p.c}-a{p.a}-n{p.n}")
               for p in (FamilyParams(family="F_a", a=0.3),
                         FamilyParams(family="F_0a", a=-0.6),
                         FamilyParams(family="F_1a", a=0.45),
                         FamilyParams(family="F_ca", c=0.5, a=-0.3),
                         FamilyParams(family="F_ca", c=2.0, a=-1.0),
                         ORACLE_BAND,
                         FamilyParams(family="f_0n", n=3),
                         FamilyParams(family="f_1n", n=2),
                         FamilyParams(family="f_2n", n=7),
                         FamilyParams(family="f_cn", c=0.5, n=4))]
SHEAR_SPECS += [
    pytest.param(PrevertexSpec.identity(), DilatationSpec.zero(),
                 id="identity-zero"),
    pytest.param(PrevertexSpec.koebe(0.5),
                 DilatationSpec.square_of(lambda z: 0.9 * z),
                 id="square-of"),
    pytest.param(PrevertexSpec.custom(lambda z: z + z * z / 4,
                                      lambda z: 1 + z / 2),
                 DilatationSpec.custom(lambda z: 0.6 * z ** 3 + 0.3 * z),
                 id="custom"),
]


@pytest.mark.parametrize("grid", (DEFAULT_GRID, GRID), ids=("r0.9", "r0.999"))
@pytest.mark.parametrize("phi,omega", SHEAR_SPECS)
def test_shear_array_matches_shear_at(phi, omega, grid):
    z = np.array(grid_points(grid))
    h, g = shear_array(phi, omega, z)
    samples = [shear_at(phi, omega, p) for p in z.tolist()]
    # one quadrature rule and panel formula: h bit for bit
    assert h.view(np.uint64).tolist() == np.array(
        [s.h for s in samples]).view(np.uint64).tolist()
    # phi of an array against phi of a Python complex
    assert_close(g, [s.g for s in samples], z)


@pytest.mark.parametrize("grid", (GridSpec(7, 12, 0.999),
                                  GridSpec(10, 24, 0.9)),
                         ids=("r0.999", "r0.9"))
@pytest.mark.parametrize("params", (FamilyParams(family="F_ca", c=0.5,
                                                 a=-0.3),
                                    FamilyParams(family="F_a", a=0.4),
                                    FamilyParams(family="F_1a", a=-0.6),
                                    FamilyParams(family="f_2n", n=6)),
                         ids=lambda p: p.family)
def test_one_element_shear_array_matches_shear_at(params, grid):
    # a panel's sums do not depend on how many panels share the call, so
    # a point alone in shear_array gets shear_at's h bit for bit
    phi, omega = family_phi(params), family_omega(params)
    for p in grid_points(grid):
        h, _ = shear_array(phi, omega, np.array([p]))
        want = np.array([shear_at(phi, omega, p).h])
        assert h.view(np.uint64).tolist() == want.view(np.uint64).tolist(), p


def test_batched_quadrature_names_the_first_point_that_fails(monkeypatch):
    # three bisections reach |z| = 0.5 but not the points near the circle;
    # the point named is the first in C order, not the first to fail
    monkeypatch.setattr(analytic, "DEFAULT_MAX_SUBDIVISIONS", 3)
    phi, omega = PrevertexSpec.koebe(2.0), DilatationSpec.power(1)
    z = np.array([[0.1, 0.5j], [0.95, -0.5], [0.99, 0.3]])
    with pytest.raises(ConvergenceError):
        shear_at(phi, omega, 0.95)
    shear_at(phi, omega, 0.5j)
    with pytest.raises(ConvergenceError,
                       match=re.escape("at grid point z=(0.95+0j)")) as info:
        shear_array(phi, omega, z)
    assert info.value.index == 2
    monkeypatch.setattr(analytic, "DEFAULT_MAX_SUBDIVISIONS", 1)
    grid = GridSpec(rings=2, spokes=4, r_max=0.99)
    with pytest.raises(ConvergenceError,
                       match=re.escape("at grid point z=(0.495+0j)")):
        sample_grid(phi, omega, grid)


# shear_grid on the verify grid, a map grid at the r_max limit and a
# surface grid, for every shear of SHEAR_SPECS and the catalog shears of
# the CLI tests
GRID_SPECS = SHEAR_SPECS + [
    pytest.param(family_phi(p), family_omega(p),
                 id=f"{p.family}-c{p.c}-a{p.a}-n{p.n}")
    for p in (FamilyParams(family="F_ca", c=0.0005, a=-1.0),
              FamilyParams(family="f_cn", c=0.5, n=3),
              FamilyParams(family="f_cn", c=1.5, n=8))]


@pytest.mark.parametrize("grid", (DEFAULT_GRID, GridSpec(10, 24, 0.999),
                                  GridSpec(40, 96, 0.98)),
                         ids=("r0.9", "r0.999", "40x96"))
@pytest.mark.parametrize("phi,omega", GRID_SPECS)
def test_shear_grid_matches_shear_at(phi, omega, grid):
    # shear_array stands in for shear_at on every point: its h is
    # shear_at's bit for bit (test_shear_array_matches_shear_at).  The
    # worst error measured over these cases is 4.7e-14.
    h, g = shear_grid(phi, omega, grid)
    want_h, want_g = shear_array(phi, omega, grid_array(grid))
    scale = np.maximum(1.0, np.abs(want_h))
    assert (np.abs(h - want_h) <= 1e-12 * scale).all()
    assert (np.abs(g - want_g) <= 1e-12 * scale).all()


def test_shear_grid_integrates_each_spoke_once(monkeypatch):
    # on the verify grid nearly every ring-to-ring segment converges as
    # one panel, and the lattice takes at most half the panels of its
    # rays from 0; no shear takes more (F_a at a = -1, whose rays take
    # about two panels each, comes nearest: 202 against 396)
    panels = []
    estimates = fallback._panel_estimates
    monkeypatch.setattr(fallback, "_panel_estimates",
                        lambda f, z0, dz, hw, x: panels.append(len(x))
                        or estimates(f, z0, dz, hw, x))
    segments = DEFAULT_GRID.rings * DEFAULT_GRID.spokes
    rays = lattice = 0
    for p in CLOSED_FORMS:
        phi, omega = family_phi(p), family_omega(p)
        panels.clear()
        shear_array(phi, omega, grid_array(DEFAULT_GRID))
        ray = sum(panels)
        panels.clear()
        shear_grid(phi, omega, DEFAULT_GRID)
        assert sum(panels) <= min(ray, 1.1 * segments), p
        rays += ray
        lattice += sum(panels)
    assert 2 * lattice <= rays


def test_shear_grid_names_the_outer_end_of_the_first_failing_segment(
        monkeypatch):
    # with no bisection allowed, the segments of the inner rings converge
    # and the outermost ring's do not: the first failing segment in
    # ring-major order ends at spoke 0 of ring 10
    monkeypatch.setattr(analytic, "DEFAULT_MAX_SUBDIVISIONS", 0)
    p = FamilyParams(family="F_ca", c=0.0005, a=-1.0)
    phi, omega = family_phi(p), family_omega(p)
    with pytest.raises(ConvergenceError,
                       match=re.escape("at grid point z=(0.9+0j)")) as info:
        shear_grid(phi, omega, DEFAULT_GRID)
    assert info.value.index == 180
