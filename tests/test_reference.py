"""High-precision references: for the f_cn route, 2F1(1, c; c+1; x)
(hyp2f1_1c at one point and on an array) against mpmath.hyp2f1, h and F3
against 30-digit mpmath.quad of the defining integrals, and the paper's
Appell F1 form of h against the 2F1 route; h and F3 of every closed form,
the former c bands of F_ca and f_cn included, against 30-digit mpmath.quad;
appell_f1 against mpmath.appellf1; for the quadrature oracle, h and F3
near the unit circle against 30-digit mpmath.quad; F3 of every power
family near the origin and out to the radius where the near-origin series
serves it; the Koebe
prevertex k_c and k_c' against mpmath, and their continuity in c at
c = 1 and 2.

mpmath is not a runtime dependency; the tests that need it skip without
it (``pip install -e ".[test]"`` installs it).
"""

import cmath
import math
import random

import pytest

import numpy as np

from shearlift import families
from shearlift.analytic import unit_roots
from shearlift.families import (FamilyParams, evaluate, evaluate_array,
                                family_omega, family_phi)
from shearlift.shear import (grid_points, koebe_phi, koebe_phi_prime,
                             shear_array, shear_at)
from shearlift.special import F1Params, appell_f1, hyp2f1_1c
from shearlift.surface import lift_array, lift_sample
from shearlift.verify import DEFAULT_GRID


@pytest.fixture(scope="module")
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


# up to c = 3: f_cn takes hyp2f1_1c at c + 1
REFERENCE_C = (0.3, 0.5, 1.0015, 1.5, 1.7, 1.999, 2.0015, 2.5, 2.999, 3.0)


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
    pts += [0.4 + 1.2j, 1.55 + 0.5j, -0.2 - 1.1j]  # Taylor centres
    # Taylor centres on and next to the real axis
    pts += [-1.6, -1.55, 1.55 + 1e-12j, 1.55 - 1e-12j]
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


@pytest.mark.parametrize("c", (0.3, 1.5, 2.999))
def test_hyp2f1_1c_is_conjugate_symmetric_on_the_region(c):
    # F(conj x) = conj F(x) bit for bit: each route treats the two sides
    # alike, and the Taylor route mirrors a point below the axis to the
    # centre above it
    for x in _region_points():
        x = complex(x)
        assert hyp2f1_1c(c, x.conjugate()) == hyp2f1_1c(c, x).conjugate(), x


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
    # small c, where a root term written with 2F1(1, c; c+1; x) would
    # lose ~eps/c, and c next to 1 and 2
    cases = [(c, n) for c in (0.1, 0.2, 0.25, 0.3, 0.5, 1.0015, 1.5, 1.7,
                              1.999)
             for n in (1, 3, 4, 8)]
    for i, (c, n) in enumerate(cases):
        z = radii[i % 3] * cmath.exp(2j * math.pi * rng.random())
        plan = families._plan(FamilyParams(family="f_cn", c=c, n=n))
        out = families._f_cn(plan, z, n % 2 == 0)
        ref_h, ref_t = _reference_h_t(mp, c, n, z)
        err = abs(out[0] - ref_h) / max(1.0, abs(ref_h))
        if n % 2 == 0:
            # F3 = 2 Im T
            err = max(err, abs(0.5 * out[3] - ref_t.imag)
                      / max(1.0, abs(ref_t)))
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
                plan = families._plan(FamilyParams(family="f_cn", c=c, n=n))
                h = families._f_cn(plan, z)[0]
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


# rings out to |z| = 0.999, and points on either side of the real axis
# next to z = 1 and z = -1
KOEBE_POINTS = ([r * e for r in (0.1, 0.5, 0.9, 0.99, 0.999)
                 for e in unit_roots(12).tolist()]
                + [s * 0.999 * cmath.exp(1j * t)
                   for s in (1, -1) for t in (1e-3, -1e-3)])


def _assert_koebe_reference(f, c, ref, bound):
    # the scalar and the array call of f(c, z) at every KOEBE_POINTS point
    k_array = f(c, np.array(KOEBE_POINTS))
    for i, p in enumerate(KOEBE_POINTS):
        want = complex(ref(p))
        assert abs(f(c, p) - want) <= bound * abs(want), p
        assert abs(k_array[i] - want) <= bound * abs(want), p


@pytest.mark.parametrize("c", (1.0, 2.0))
def test_koebe_phi_rational_against_mpmath(mp, c):
    # k_1 = z/(1-z) and k_2 = z/(1-z)^2 within 2e-15 relative
    _assert_koebe_reference(koebe_phi, c, lambda p: _koebe(mp, c, p), 2e-15)


@pytest.mark.parametrize("c", (0.0, 0.0005, 0.5, 1.0, 1.5, 1.9995, 2.0))
def test_koebe_phi_prime_against_mpmath(mp, c):
    # w^(c-1)/(1-z)^2 at a non-integer c, the two integer powers at
    # c = 0, 1, 2, within 2e-15 relative
    _assert_koebe_reference(koebe_phi_prime, c, _koebe_prime(mp, c), 2e-15)


def _koebe_dc(mp, c, z):
    # d k_c/dc = (w^c log w)/(2c) - (w^c - 1)/(2c^2), w = (1+z)/(1-z)
    c = mp.mpf(c)
    w = (1 + mp.mpc(z)) / (1 - mp.mpc(z))
    return w ** c * mp.log(w) / (2 * c) - (w ** c - 1) / (2 * c ** 2)


@pytest.mark.parametrize("c,dc", ((1.0, 1e-9), (1.0, -1e-9), (2.0, -1e-9)))
def test_koebe_continuous_at_integer_c(mp, c, dc):
    # c = 1 and 2 take the rational k_c and the integer powers of k_c';
    # a step dc away, where expm1 and one power serve, each value moves
    # by its analytic c-derivative times dc (d k_c'/dc = k_c' log w), and
    # otherwise by a few units of roundoff: no jump at the integer c.
    # Relative to eps, that roundoff grows as 1/|log w| near the origin
    # (k_c) and as the exponent times |log w| towards z = +-1 (a power).
    z = np.array(KOEBE_POINTS)
    log_w = np.log((1.0 + z) / (1.0 - z))
    size = np.abs(log_w)
    eps = np.finfo(float).eps
    dk = np.array([complex(_koebe_dc(mp, c, p)) for p in KOEBE_POINTS])
    for f, derivative, roundoff in (
            (koebe_phi, dk, np.maximum(1.0, np.maximum(1.0 / size, c * size))),
            (koebe_phi_prime, koebe_phi_prime(c, z) * log_w,
             np.maximum(1.0, size))):
        k = f(c, z)
        step = f(c + dc, z) - k
        assert (np.abs(step - dc * derivative)
                <= 6.0 * eps * np.abs(k) * roundoff).all(), f.__name__


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


# Near z = 0 the closed forms' root terms are of size |z| and T only of
# size |z|^(n/2+1); there the power families take the near-origin series.
# F3's relative condition number is about (n/2+1)|T|/|Im T|, so the angles
# pi(2k+1)/7 are ones where |Im T| >= 0.09|T|, or (at pi) where z lies next
# to the real axis and Im T is carried by the tiny Im z.
NEAR_ORIGIN = ([FamilyParams(family=f, n=n)
                for f in ("f_0n", "f_1n", "f_2n") for n in (2, 4, 6, 8, 16)]
               + [FamilyParams(family="f_cn", c=c, n=n)
                  for c in (0.3, 1.5) for n in (2, 4, 6, 8, 16)])
NEAR_ORIGIN_POINTS = [r * cmath.exp(1j * math.pi * (2 * k + 1) / 7)
                      for r in (1e-3, 0.01, 0.03, 0.1) for k in range(7)]


def _gauss_quad(mp, f, z):
    # the integrands are smooth on the ray to these small z
    z = mp.mpc(z)
    return mp.quad(lambda t: f(t * z) * z, [0, 1], method="gauss-legendre")


@pytest.mark.parametrize("params", NEAR_ORIGIN,
                         ids=lambda p: f"{p.family}-c{p.c}-n{p.n}")
def test_f3_near_the_origin_against_quadrature(mp, params):
    # F3 of the scalar and the array call within 1e-14 of F3 itself
    hprime = _mp_hprime(mp, params)
    m = params.n // 2
    f3_array = lift_array(params, np.array(NEAR_ORIGIN_POINTS))[2]
    for i, p in enumerate(NEAR_ORIGIN_POINTS):
        ref = 2.0 * complex(_gauss_quad(mp, lambda s: hprime(s) * s ** m,
                                        p)).imag
        bound = 1e-14 * abs(ref)
        assert abs(lift_sample(params, p).f3 - ref) <= bound, p
        assert abs(f3_array[i] - ref) <= bound, p


def test_f0n_map_samples_next_to_the_origin(mp):
    # the innermost samples of the +-pi/2 spokes of `map --family f_0n
    # --n 3`, exactly +-0.003828125i: u ~ r^4/2 = 1.07e-10, which the
    # closed form sums from terms of size r, lies within ~1e-18 of a
    # rounding boundary of the nine digits the SVG writes
    params = FamilyParams(family="f_0n", n=3)
    z = 0.98 / 256 * unit_roots(24)[[6, 18]]
    assert z.tolist() == [0.003828125j, complex(0.0, -0.003828125)]
    h, g = evaluate_array(params, z)
    for i, want in enumerate((1.07376737152733e-10, 1.07376737152733e-10)):
        # u = Re P, P' = k_0'(s) (1 + s^3)/(1 - s^3)
        ref = complex(_gauss_quad(mp, lambda s: (1 + s ** 3) / (
            (1 - s ** 2) * (1 - s ** 3)), z[i])).real
        assert abs(ref - want) <= 1e-14 * want
        for u in (evaluate(params, z[i]).u, (h[i] + g[i]).real):
            assert abs(u - ref) <= 1e-14 * ref, (z[i], u)


# Out to _series_radius(n) the power families take the near-origin
# series; beyond it the closed forms, whose root terms of size |z| sum to T
# of size |z|^(n/2+1), lose about _SERIES_LOSS = 256 times more of T's
# relative accuracy (test_array_path checks that the two meet).  With a
# fixed radius of 1/4 the closed forms would serve |z| = 0.26 and be off by
# 6e-11 (f_cn, c = 1.5) to 3e-10 (f_2n) at n = 16.  Rings from 1/4 to just
# inside the radius, at angles off both axes.
BETWEEN_RADII = ([FamilyParams(family=f, n=n)
                  for f in ("f_0n", "f_1n", "f_2n") for n in (16, 32, 64)]
                 + [FamilyParams(family="f_cn", c=1.5, n=n)
                    for n in (16, 32, 64)])


@pytest.mark.parametrize("params", BETWEEN_RADII,
                         ids=lambda p: f"{p.family}-c{p.c}-n{p.n}")
def test_f3_between_the_radii_against_quadrature(mp, params):
    # F3 = 2 Im T of the scalar and the array call within 1e-13 of 2 T(r),
    # the size of T on the ring |z| = r: every coefficient of T is
    # positive, so towards the negative axis T cancels to far less than
    # T(r), in the series and the closed forms alike.  T from 30-digit
    # quadrature.
    hprime = _mp_hprime(mp, params)
    m = params.n // 2

    def lift_integral(p):
        return complex(_gauss_quad(mp, lambda s: hprime(s) * s ** m, p))

    rho = families._series_radius(params.n)
    for r in (0.26, 0.5 * (0.26 + rho), (1.0 - 1e-9) * rho):
        points = [r * cmath.exp(1j * t) for t in (0.3, 1.9, -2.6)]
        f3_array = lift_array(params, np.array(points))[2]
        bound = 1e-13 * 2.0 * lift_integral(r).real
        for i, p in enumerate(points):
            ref = 2.0 * lift_integral(p).imag
            assert abs(lift_sample(params, p).f3 - ref) <= bound, p
            assert abs(f3_array[i] - ref) <= bound, p
