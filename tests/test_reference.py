"""High-precision references: for the f_cn route, 2F1(1, c; c+1; x)
(hyp2f1_1c at one point and on an array) against mpmath.hyp2f1, h and F3
against 30-digit mpmath.quad of the defining integrals, and the paper's
Appell F1 form of h against the 2F1 route; h and F3 of every closed form,
the former c bands of F_ca and f_cn included, against 30-digit mpmath.quad;
appell_f1 against mpmath.appellf1; for the quadrature oracle, h and F3
near the unit circle against 30-digit mpmath.quad.

mpmath is not a runtime dependency; the tests that need it skip without
it (``pip install -e ".[test]"`` installs it).
"""

import cmath
import math
import random

import pytest

import numpy as np

from shearlift.families import (FamilyParams, evaluate, evaluate_array,
                                family_omega, family_phi, fcn_h_and_lift)
from shearlift.shear import grid_points, koebe_phi, shear_array, shear_at
from shearlift.special import F1Params, appell_f1, hyp2f1_1c
from shearlift.surface import lift_array, lift_sample
from shearlift.verify import DEFAULT_GRID


@pytest.fixture(scope="module")
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


REFERENCE_C = (0.3, 0.5, 1.0015, 1.5, 1.7, 1.999)


def _tolerance(c):
    # the c = 1 and c = 2 bands are held to a looser bound
    if min(abs(c - 1.0), abs(c - 2.0)) <= 2e-3:
        return 1e-9
    return 1e-13


def _region_points():
    """Points of every route of hyp2f1_1c, plus the awkward places: near
    exp(+-i pi/3), just off the cut (1, 2], and |x| up to 1e3."""
    rng = random.Random(7)

    def ring(lo, hi, count):
        return [rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())
                for _ in range(count)]

    pts = ring(0.0, 0.5, 4)  # power series
    pts += ring(5.0 / 3.0, 1e3, 4)  # 1/x connection formula
    pts += [1.0 + 0.5 * rng.random() * cmath.exp(2j * math.pi * rng.random())
            for _ in range(4)]  # log series about x = 1
    pts += [-1.0 + 0.3j, -0.6 - 0.4j, -1.4 + 0.05j]  # Pfaff
    pts += [0.4 + 1.2j, 1.55 + 0.5j, -0.2 - 1.1j]  # ray quadrature
    for sign in (1, -1):
        for d in (0.0, 1e-3, -0.02):
            pts.append(cmath.exp(sign * 1j * (math.pi / 3 + d)))
    for t in (1.0005, 1.3, 1.6, 1.7, 2.0):
        for e in (1e-12, 1e-6):
            pts += [complex(t, e), complex(t, -e)]
    pts += [1e3j, -1e3 + 1.0j, 700.0 - 700.0j]
    return pts


@pytest.mark.parametrize("c", REFERENCE_C)
def test_hyp2f1_1c_against_mpmath(mp, c):
    tol = _tolerance(c)
    for x in _region_points():
        ref = complex(mp.hyp2f1(1, c, c + 1, x))
        got = hyp2f1_1c(c, x)
        assert abs(got - ref) <= tol * abs(ref), (c, x, got, ref)


def _region_array():
    """The region points and their conjugates, as a 2-D array."""
    x = np.array(_region_points())
    return np.stack([x, x.conj()])


@pytest.mark.parametrize("c", REFERENCE_C)
def test_hyp2f1_1c_array_against_mpmath(mp, c):
    tol = _tolerance(c)
    x = _region_array()
    got = hyp2f1_1c(c, x)
    assert got.shape == x.shape
    for p, value in zip(x.ravel().tolist(), got.ravel().tolist()):
        ref = complex(mp.hyp2f1(1, c, c + 1, p))
        assert abs(value - ref) <= tol * abs(ref), (c, p, value, ref)


def test_hyp2f1_1c_near_the_largest_double(mp):
    # 1/x is formed from |x|, so it does not overflow on the way; the
    # bound allows for (-x)^-c = exp(-c log(-x)), which magnifies the
    # rounding of its argument by c |log(-x)| ~ 355 here
    x = np.array([1e308 + 1e308j, -1.7e308 + 1e300j])
    got = hyp2f1_1c(0.5, x)
    assert got[0] == hyp2f1_1c(0.5, 1e308 + 1e308j)
    for p, value in zip(x.tolist(), got.tolist()):
        ref = complex(mp.hyp2f1(1, 0.5, 1.5, p))
        assert abs(value - ref) <= 1e-13 * abs(ref), (p, value, ref)


@pytest.mark.parametrize("c", REFERENCE_C + (1e-12, 1e-6, 0.9995, 2.0))
def test_hyp2f1_1c_array_matches_scalar_on_the_region(c):
    # every route, the pole neighbourhoods and both sides of the cut
    x = _region_array()
    got = hyp2f1_1c(c, x)
    for p, value in zip(x.ravel().tolist(), got.ravel().tolist()):
        want = hyp2f1_1c(c, p)
        assert abs(value - want) <= 1e-14 * abs(want), (c, p)


def _reference_h_t(mp, c, n, z):
    c = mp.mpf(c)
    z = mp.mpc(z)

    def hprime(s):
        return (1 + s) ** (c - 1) * (1 - s) ** (-(c + 1)) / (1 - s ** n)

    h = mp.quad(lambda t: hprime(t * z) * z, [0, 1])
    t = None
    if n % 2 == 0:
        t = mp.quad(lambda t: hprime(t * z) * (t * z) ** (n // 2) * z, [0, 1])
    return complex(h), t and complex(t)


def test_fcn_h_and_f3_against_quadrature(mp):
    rng = random.Random(11)
    worst = 0.0
    radii = (0.5, 0.9, 0.99)
    cases = [(c, n) for c in (0.3, 0.5, 1.5, 1.7) for n in (1, 3, 4, 8)]
    for i, (c, n) in enumerate(cases):
        z = radii[i % 3] * cmath.exp(2j * math.pi * rng.random())
        h, t = fcn_h_and_lift(c, n, z)
        ref_h, ref_t = _reference_h_t(mp, c, n, z)
        err = abs(h - ref_h) / max(1.0, abs(ref_h))
        if n % 2 == 0:
            err = max(err, abs(t.imag - ref_t.imag) / max(1.0, abs(ref_t)))
        assert err < 1e-12, (c, n, z, err)
        worst = max(worst, err)
    print(f"f_cn h and F3 against mpmath.quad: worst {worst:.2e}")


def _h_appell(c, n, z):
    """h of f_cn in the paper's Appell F1 form, normalized to h(0) = 0."""
    p = F1Params(alpha=1.0 - c, beta1=-c, beta2=1.0, gamma=2.0 - c)
    poles = range(1, (n - 1) // 2 + 1) if n % 2 else range(1, n // 2)

    def bracket(z):
        x = 0.5 * (1.0 - z)
        total = 0.25 / c + (1.0 + z) / (4.0 * n * (1.0 + c) * (1.0 - z))
        if n % 2 == 0:
            total -= (1.0 - z) / (4.0 * n * (1.0 - c) * (1.0 + z))
        pref = (2.0 ** c * (1.0 - z)
                / (n * (1.0 - c) * cmath.exp(c * cmath.log(1.0 + z))))
        for k in poles:
            e = cmath.exp(2j * math.pi * k / n)
            total += pref * (
                e * appell_f1(p, x, (1.0 - z) / (1.0 - e))
                / ((1.0 - e) * (1.0 - e * e))
                - appell_f1(p, x, (1.0 - z) / (1.0 - e.conjugate()))
                / ((1.0 - e) * (1.0 - (e * e).conjugate())))
        return total

    wc = cmath.exp(c * cmath.log((1.0 + z) / (1.0 - z)))
    return wc * bracket(z) - bracket(0j)


def test_fcn_matches_appell_f1_form():
    # points where both F1 arguments stay inside |.| <= 0.75, so the F1
    # double series converges for c > 1 as well
    for c in (0.5, 1.5):
        for n in (3, 4):
            for z in (0.6 + 0.3j, 0.55 - 0.15j, 0.7):
                h, _ = fcn_h_and_lift(c, n, z)
                ref = _h_appell(c, n, z)
                assert abs(h - ref) < 1e-10 * max(1.0, abs(ref)), (c, n, z)


# c inside the former oracle bands, where F_ca and f_cn came from
# quadrature: within 1e-3 of 0 or 1
BAND_C = (1e-12, 1e-6, 5e-4, 0.9995, 1.0005)
CLOSED_FORM_POINTS = (0.3, 0.7 * cmath.exp(2.2j), 0.95 * cmath.exp(-0.9j),
                      -0.9)
CLOSED_FORM_CASES = (
    [FamilyParams(family="F_a", a=0.3), FamilyParams(family="F_0a", a=-0.6),
     FamilyParams(family="F_1a", a=0.45)]
    + [FamilyParams(family=f, n=n)
       for f in ("f_0n", "f_1n", "f_2n") for n in (3, 4)]
    + [FamilyParams(family="F_ca", c=c, a=a)
       for c in BAND_C for a in (-1.0, 0.5)]
    + [FamilyParams(family="f_cn", c=c, n=n)
       for c in BAND_C for n in (3, 8)])


def _mp_hprime(mp, params):
    """h' = phi'/(1 - omega) of a family in mpmath arithmetic."""
    if params.family == "F_a":
        def kp(s):
            return 1
    else:
        kp = _koebe_prime(mp, {"F_0a": 0.0, "F_1a": 1.0, "f_0n": 0.0,
                               "f_1n": 1.0, "f_2n": 2.0}.get(params.family,
                                                             params.c))
    if params.family.startswith("F_"):
        a = mp.mpf(params.a)
        return lambda s: kp(s) / (1 - s * (s + a) / (1 + a * s))
    n = params.n
    return lambda s: kp(s) / (1 - s ** n)


def _ray_quad(mp, f, z):
    z = mp.mpc(z)
    return complex(mp.quad(lambda t: f(t * z) * z, [0, 1]))


@pytest.mark.parametrize("params", CLOSED_FORM_CASES,
                         ids=lambda p: f"{p.family}-c{p.c}-a{p.a}-n{p.n}")
def test_closed_forms_against_quadrature(mp, params):
    # h of every closed form, and F3 of every lift, scalar and array
    # calls alike, within 1e-14 of 30-digit quadrature relative to
    # max(1, |reference|)
    hprime = _mp_hprime(mp, params)
    z = np.array(CLOSED_FORM_POINTS)
    h_array, _ = evaluate_array(params, z)
    lifts = params.family.startswith("f_") and params.n % 2 == 0
    if lifts:
        f3_array = lift_array(params, z)[2]
    for i, p in enumerate(CLOSED_FORM_POINTS):
        ref = _ray_quad(mp, hprime, p)
        bound = 1e-14 * max(1.0, abs(ref))
        assert abs(evaluate(params, p).h - ref) <= bound, p
        assert abs(h_array[i] - ref) <= bound, p
        if lifts:
            m = params.n // 2
            ref = 2.0 * _ray_quad(mp, lambda s: hprime(s) * s ** m, p).imag
            bound = 1e-14 * max(1.0, abs(ref))
            assert abs(lift_sample(params, p).f3 - ref) <= bound, p
            assert abs(f3_array[i] - ref) <= bound, p


@pytest.mark.parametrize("c", BAND_C)
def test_former_bands_take_the_closed_forms(c):
    for z in CLOSED_FORM_POINTS:
        assert not evaluate(FamilyParams(family="F_ca", c=c, a=0.5),
                            z).fallback
        p = FamilyParams(family="f_cn", c=c, n=4)
        assert not evaluate(p, z).fallback
        assert not lift_sample(p, z).fallback


# (F1 parameters, x, y): series points, Euler-integral points beyond the
# unit bi-disk, and a terminating case far outside it
APPELL_CASES = [
    ((0.5, -0.5, 1.0, 1.5), 0.5, 0.3 + 0.2j),
    ((0.7, 1.0, 0.5, 1.2), -0.6, 0.5 + 0.5j),
    ((1.5, 0.3, -0.7, 2.5), 0.9 + 0.1j, -0.4j),
    ((0.5, -0.5, 1.0, 1.5), 0.3, -2.0 + 0.3j),
    ((1.5, 0.3, -0.7, 2.5), 1.5 + 0.5j, 0.4),
    ((-2.0, 0.5, 1.0, 1.5), 3.0, 2.0 + 1.0j),
]


@pytest.mark.parametrize("params,x,y", APPELL_CASES)
def test_appell_f1_against_mpmath(mp, params, x, y):
    ref = complex(mp.appellf1(*params, x, y))
    got = appell_f1(F1Params(*params), x, y)
    assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("c", (0.5, 1.5))
def test_fcn_default_verify_grid_has_no_fallback(c):
    for n in (3, 4, 8):
        p = FamilyParams(family="f_cn", c=c, n=n)
        for z in grid_points(DEFAULT_GRID):
            assert evaluate(p, z).fallback is False, (c, n, z)
            if n % 2 == 0:
                assert lift_sample(p, z).fallback is False, (c, n, z)


# Points near the unit circle where the quadrature oracle used to stall:
# its per-panel tolerance, scaled by the panel width, asked roundoff-level
# accuracy of the small panels next to the endpoint.
ORACLE_EDGE = [(FamilyParams(family="F_1a", a=0.5), 0.99),
               (FamilyParams(family="f_1n", n=2), 0.99),
               (FamilyParams(family="F_ca", c=1.5, a=-0.5), 0.99),
               (FamilyParams(family="F_ca", c=0.0005, a=-1.0), 0.999),
               (FamilyParams(family="F_ca", c=0.0005, a=-1.0), -0.999)]


def _edge_quad(mp, f, z):
    # int_0^z f along the ray, in pieces that shrink towards z
    z = mp.mpc(z)
    return mp.quad(lambda t: f(t * z) * z,
                   [0, 0.5, 0.9, 0.99, 0.999, 0.9999, 1])


def _koebe_prime(mp, c):
    c = mp.mpf(c)
    return lambda s: (1 + s) ** (c - 1) * (1 - s) ** (-(c + 1))


def _koebe(mp, c, z):
    c = mp.mpf(c)
    z = mp.mpc(z)
    return (((1 + z) / (1 - z)) ** c - 1) / (2 * c)


@pytest.mark.parametrize("params,z", ORACLE_EDGE,
                         ids=lambda v: str(v) if isinstance(v, float)
                         else f"{v.family}-c{v.c}-a{v.a}-n{v.n}")
def test_oracle_near_the_unit_circle_against_quadrature(mp, params, z):
    c = {"F_1a": 1.0, "f_1n": 1.0}.get(params.family, params.c)
    ref_h = _edge_quad(mp, _mp_hprime(mp, params), z)
    ref_g = complex(ref_h - _koebe(mp, c, z))
    ref_h = complex(ref_h)
    phi, omega = family_phi(params), family_omega(params)
    one = shear_at(phi, omega, z)
    h, g = shear_array(phi, omega, np.array([0.5j, z, -0.3]))
    for got_h, got_g in ((one.h, one.g), (h[1], g[1])):
        assert abs(got_h - ref_h) <= 1e-12 * max(1.0, abs(ref_h))
        assert abs(got_g - ref_g) <= 1e-12 * max(1.0, abs(ref_g))


@pytest.mark.parametrize("z", (0.999, -0.999))
def test_fcn_oracle_band_lift_near_the_unit_circle(mp, z):
    # c = 1.0005 lay in the former oracle band around 1; the closed-form
    # lift holds up to |z| = 0.999
    c, n = 1.0005, 8
    kp = _koebe_prime(mp, c)
    ref_h = _edge_quad(mp, lambda s: kp(s) / (1 - s ** n), z)
    ref_t = _edge_quad(mp, lambda s: kp(s) * s ** (n // 2) / (1 - s ** n), z)
    ref_u = complex(2 * ref_h - _koebe(mp, c, z)).real
    ref_f3 = 2.0 * complex(ref_t).imag
    s = lift_sample(FamilyParams(family="f_cn", c=c, n=n), z)
    assert not s.fallback
    assert abs(s.u - ref_u) <= 1e-12 * max(1.0, abs(ref_u))
    assert abs(s.f3 - ref_f3) <= 1e-12 * max(1.0, abs(complex(ref_t)))


# c near 0, where k_c = (w^c - 1)/(2c) cancels unless it goes through
# expm1: the point of the first report and five default-grid points
SMALL_C = (1e-4, 1e-6, 1e-8, 1e-10)
SMALL_C_POINTS = [0.7 + 0.3j] + grid_points(DEFAULT_GRID)[::47]


@pytest.mark.parametrize("c", SMALL_C)
def test_koebe_phi_near_c_zero(mp, c):
    # within 4e-16 relative, more where log w is small: rounding
    # w = (1+z)/(1-z) moves log w by up to eps/|log w| relative
    z = np.array(SMALL_C_POINTS)
    k_array = koebe_phi(c, z)
    for i, p in enumerate(SMALL_C_POINTS):
        ref = complex(_koebe(mp, c, p))
        bound = 4e-16 * abs(ref) * max(1.0, 1.0 / abs(cmath.log((1 + p)
                                                                / (1 - p))))
        assert abs(koebe_phi(c, p) - ref) <= bound, p
        assert abs(k_array[i] - ref) <= bound, p


@pytest.mark.parametrize("family", ("F_ca", "f_cn"))
@pytest.mark.parametrize("c", SMALL_C)
def test_g_near_c_zero_against_quadrature(mp, family, c):
    # g = h - k_c of the scalar and the array call within 1e-14 of
    # 30-digit quadrature relative to max(1, |reference|)
    params = FamilyParams(family=family, c=c, a=-0.5, n=4)
    hprime = _mp_hprime(mp, params)
    _, g_array = evaluate_array(params, np.array(SMALL_C_POINTS))
    for i, p in enumerate(SMALL_C_POINTS):
        ref = complex(mp.mpc(_ray_quad(mp, hprime, p)) - _koebe(mp, c, p))
        bound = 1e-14 * max(1.0, abs(ref))
        assert abs(evaluate(params, p).g - ref) <= bound, p
        assert abs(g_array[i] - ref) <= bound, p
