"""The array entry points against the scalar calls that share their
formulas: evaluate_array against evaluate, derivatives_array against
hprime/gprime, lift_array against lift_sample, shear_array (the batched
quadrature) against shear_at (the one-point quadrature).

numpy and cmath round differently in the last bits, so agreement means
within 1e-14 * max(1, |x|).  Near the unit circle, where the closed forms
have their poles, a last-bit difference in an argument is amplified by
about 1/(1 - |z|) (h' of the Mobius families differs by 1.1e-13 at
z = 0.999); there the bound is four units of roundoff times that factor,
which exceeds 1e-14 from |z| = 0.91 on.
"""

import functools
import re

import numpy as np
import pytest

from shearlift import verify
from shearlift._kernels import fallback
from shearlift.analytic import QuadratureConfig
from shearlift.cli import main
from shearlift.errors import (ConvergenceError, DilatationNotSquareError,
                              DomainError, UnsupportedParameterError)
from shearlift.families import (FamilyParams, derivatives_array, evaluate,
                                evaluate_array, family_omega, family_phi,
                                gprime, hprime)
from shearlift.shear import (DilatationSpec, PrevertexSpec, grid_points,
                             sample_grid, shear_array, shear_at)
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
       for c in (0.0, 0.5, 1.0, 2.0) for n in (3, 4)])
# up to the largest r_max the CLI accepts
GRID = GridSpec(rings=6, spokes=14, r_max=0.999)

# c = 1.0005 lay in the former oracle band around 1, where the values
# came from quadrature; the closed form now covers it
ORACLE_BAND = FamilyParams(family="F_ca", c=1.0005, a=0.5)


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
    z = np.array(grid_points(grid))
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
    z = np.array(grid_points(GRID))
    u, v, f3 = lift_array(params, z)
    samples = [lift_sample(params, p) for p in z.tolist()]
    assert_close(u, [s.u for s in samples], z)
    assert_close(v, [s.v for s in samples], z)
    assert_close(f3, [s.f3 for s in samples], z)
    assert not any(s.fallback for s in samples)


def test_arrays_keep_their_shape():
    z = np.array(grid_points(GridSpec(rings=3, spokes=4, r_max=0.8)))
    z = z.reshape(3, 4)
    h, g = evaluate_array(FamilyParams(family="f_cn", c=0.5, n=3), z)
    assert h.shape == g.shape == (3, 4)
    u, v, f3 = lift_array(FamilyParams(family="f_1n", n=2), z)
    assert u.shape == v.shape == f3.shape == (3, 4)


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
    assert_close(h, [s.h for s in samples], z)
    assert_close(g, [s.g for s in samples], z)


def test_batched_quadrature_names_the_first_point_that_fails():
    # three bisections reach |z| = 0.5 but not the points near the circle;
    # the point named is the first in C order, not the first to fail
    cfg = QuadratureConfig(max_subdivisions=3)
    phi, omega = PrevertexSpec.koebe(2.0), DilatationSpec.power(1)
    z = np.array([[0.1, 0.5j], [0.95, -0.5], [0.99, 0.3]])
    with pytest.raises(ConvergenceError):
        shear_at(phi, omega, 0.95, cfg)
    shear_at(phi, omega, 0.5j, cfg)
    with pytest.raises(ConvergenceError,
                       match=re.escape("at grid point z=(0.95+0j)")) as info:
        shear_array(phi, omega, z, cfg)
    assert info.value.index == 2
    grid = GridSpec(rings=2, spokes=4, r_max=0.99)
    with pytest.raises(ConvergenceError,
                       match=re.escape("at grid point z=(0.495+0j)")):
        sample_grid(phi, omega, grid, QuadratureConfig(max_subdivisions=1))
