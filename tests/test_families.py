import cmath
import math
import random

import numpy as np
import pytest

from shearlift import families
from shearlift.analytic import cauchy_derivative, clog
from shearlift.errors import DomainError, UnsupportedParameterError
from shearlift.families import (FAMILY_NAMES, FamilyParams, coeffs_f1n,
                                coeffs_f2n, eval_F_0a, eval_F_1a, eval_F_ca,
                                evaluate, evaluate_array,
                                family_omega, family_phi, fcn_h_and_lift,
                                gprime, hprime)
from shearlift.shear import DilatationSpec, grid_array, koebe_phi, shear_at
from shearlift.special import _powm1_over
from shearlift.surface import GridSpec, lift_array, lift_sample

SAMPLE_POINTS = [0.3, -0.25 + 0.4j, 0.55j, 0.5 * cmath.exp(1.9j),
                 -0.7, 0.6 - 0.35j]


def test_family_params_validation():
    with pytest.raises(UnsupportedParameterError):
        FamilyParams(family="bogus")
    with pytest.raises(UnsupportedParameterError):
        FamilyParams(family="F_ca", c=2.5)
    with pytest.raises(UnsupportedParameterError):
        FamilyParams(family="F_a", a=1.2)
    with pytest.raises(UnsupportedParameterError):
        FamilyParams(family="f_0n", n=0)


def test_all_families_vanish_at_origin():
    for fam in FAMILY_NAMES:
        p = FamilyParams(family=fam, c=0.5, a=0.5, n=2)
        s = evaluate(p, 0j)
        assert s.h == 0 and s.g == 0 and s.u == 0 and s.v == 0


# --- the Example 2.x families -----------------------------------------------

def test_F_a_value():
    s = evaluate(FamilyParams("F_a", a=1.0), 0.5)
    assert abs(s.u - (-0.5 - 2.0 * math.log(0.5))) < 1e-14
    assert abs(s.v) < 1e-15


def test_F_a_point_symmetry():
    a, z = 0.3, 0.2 + 0.4j
    s = evaluate(FamilyParams("F_a", a=a), z)
    m = evaluate(FamilyParams("F_a", a=-a), -z)
    assert abs(m.u + s.u) < 1e-14  # symmetric about the imaginary axis
    assert abs(m.v + s.v) < 1e-14


def test_F_0a_value():
    s = eval_F_0a(0.0, 0.5)
    assert abs(s.u - 2.0 / 3.0) < 1e-14
    assert abs(s.v) < 1e-15


def test_F_0a_semicircle_collapse():
    # upper semicircle collapses onto -a/2 + i*pi/4
    for a in (-1.0, 0.0, 1.0):
        for theta in (0.4, 1.2, 2.6):
            s = eval_F_0a(a, 0.9999 * cmath.exp(1j * theta))
            assert abs(s.f - (-a / 2.0 + 1j * math.pi / 4.0)) < 0.02


def test_F_1a_value():
    s = eval_F_1a(0.0, 0.5)
    assert abs(s.u - (0.25 * math.log(3.0) + 1.0)) < 1e-14
    assert abs(s.v) < 1e-15


def test_F_1a_parabola():
    # a=1 boundary image is the parabola v^2 = -u - 1/4: substituting a=1
    # into the boundary relation u = (1-a)/8*log(4v^2) - (1+a)/8*(4v^2+1)
    # gives u = -v^2 - 1/4
    for theta in (0.5 * math.pi, 0.3 * math.pi, 0.8 * math.pi):
        s = eval_F_1a(1.0, 0.9999 * cmath.exp(1j * theta))
        assert abs(s.v ** 2 + s.u + 0.25) < 0.02


def test_F_ca_value():
    s = eval_F_ca(2.0, 1.0, 0.5)
    assert abs(s.u - 13.0 / 3.0) < 1e-12
    assert abs(s.v) < 1e-13


def test_F_ca_slit_endpoint():
    for a in (-1.0, 0.0, 1.0):
        s = eval_F_ca(2.0, a, 0.9999j)
        assert abs(s.f - (-(2.0 - a) / 6.0)) < 0.02


# c approaching 0 and 1, down to a subnormal c; on SAMPLE_POINTS[:3]
# |dF/dc| stays below 1/2 for F_ca and f_cn, so the gap to the c = 0 and
# c = 1 forms is below the distance in c, plus roundoff
NEAR_ZERO = (0.002, 5e-4, 1e-6, 1e-12, 1e-320)
NEAR_ONE = (0.998, 0.9995, 0.9999, 1.00001, 1.0005)


def test_F_ca_delegations_are_continuous():
    # the c=0 and c=1 closed forms are the limits of the general formula
    for a in (-0.5, 0.4):
        for z in SAMPLE_POINTS[:3]:
            for c in NEAR_ZERO:
                gap = abs(eval_F_ca(c, a, z).f - eval_F_0a(a, z).f)
                assert gap < c + 1e-15, (a, z, c)
            for c in NEAR_ONE:
                gap = abs(eval_F_ca(c, a, z).f - eval_F_1a(a, z).f)
                assert gap < abs(c - 1.0) + 1e-15, (a, z, c)


@pytest.mark.parametrize("c", (1e-8, 0.5, 1.0005, 1.5, 2.0))
def test_F_ca_phi_is_the_expm1_koebe_bit_for_bit(c):
    # F_ca takes k_c from its own (w^c - 1)/c term, in the operations of
    # the expm1 form of k_c, so its g = h - k_c is that of
    # 0.5 * _powm1_over(c, log w) to the last bit; at c = 2 it is not the
    # rational shear.koebe_phi(2, z).  On the map command's default grid.
    z = grid_array(GridSpec(rings=10, spokes=24, r_max=0.98))
    h, g = evaluate_array(FamilyParams(family="F_ca", c=c, a=0.3), z)
    want = h - 0.5 * _powm1_over(c, clog((1.0 + z) / (1.0 - z)))
    assert (g.view(np.uint64) == want.view(np.uint64)).all()


@pytest.mark.parametrize("c", (1e-8, 0.3, 0.5, 1.0005, 1.5, 1.9995))
def test_f_cn_phi_is_the_expm1_koebe_bit_for_bit(c):
    # f_cn takes k_c from the (w^c - 1)/c term of its own sum, in the
    # operations of shear.koebe_phi at a non-integer c, so its g = h - k_c
    # on arrays is that of koebe_phi to the last bit.  On the map
    # command's default grid, outside the near-origin series.
    z = grid_array(GridSpec(rings=10, spokes=24, r_max=0.98))
    z = z[abs(z) > families._SERIES_RADIUS]
    for n in (3, 8):
        h, g = evaluate_array(FamilyParams(family="f_cn", c=c, n=n), z)
        want = h - koebe_phi(c, z)
        assert (g.view(np.uint64) == want.view(np.uint64)).all(), n


# --- the power-dilatation families ------------------------------------------

def test_f0n_values():
    assert abs(evaluate(FamilyParams("f_0n", n=1), 0.5).f - 1.0) < 1e-14
    assert abs(evaluate(FamilyParams("f_0n", n=2), 0.5).f - 2.0 / 3.0) < 1e-14


def test_f1n_values():
    assert abs(evaluate(FamilyParams("f_1n", n=1), 0.5).f - 2.0) < 1e-14
    s = evaluate(FamilyParams("f_1n", n=2), 0.5)
    assert abs(s.f - (1.0 + 0.25 * math.log(3.0))) < 1e-14


def test_f1n_coincides_with_F_1a_at_a_zero():
    # a=0 turns the Mobius dilatation into z^2
    for z in SAMPLE_POINTS:
        s = evaluate(FamilyParams("f_1n", n=2), z)
        assert abs(s.f - eval_F_1a(0.0, z).f) < 1e-13


def test_f2n_harmonic_koebe_derivative():
    # n=1 is the harmonic Koebe function: h'(z) = (1+z)/(1-z)^4
    for z in SAMPLE_POINTS:
        hp = cauchy_derivative(
            lambda w: evaluate(FamilyParams("f_2n", n=1), w).h, z,
            radius=0.2 * (1.0 - abs(z)))
        assert abs(hp - (1.0 + z) / (1.0 - z) ** 4) < 1e-11


def test_f2n_slit_endpoint():
    s = evaluate(FamilyParams("f_2n", n=2), 0.9999j)
    assert abs(s.f - (-1.0 / 3.0)) < 0.02


def test_f2n_coincides_with_F_ca():
    # same phi = k_2 and omega = z^2
    for z in SAMPLE_POINTS:
        s = evaluate(FamilyParams("f_2n", n=2), z)
        assert abs(s.f - eval_F_ca(2.0, 0.0, z).f) < 1e-12


def test_fcn_terminating_case_matches_f2n():
    s = evaluate(FamilyParams("f_cn", c=2.0, n=3), 0.3)
    assert abs(s.f - evaluate(FamilyParams("f_2n", n=3), 0.3).f) < 1e-8


def test_fcn_quadrature_oracle():
    p = FamilyParams(family="f_cn", c=0.5, n=3)
    z = 0.4 + 0.2j
    s = evaluate(FamilyParams("f_cn", c=0.5, n=3), z)
    o = shear_at(family_phi(p), family_omega(p), z)
    assert abs(s.h - o.h) < 1e-6
    assert abs(s.g - o.g) < 1e-6


def test_fcn_delegations_are_continuous():
    # f_0n and f_1n are the c = 0 and c = 1 limits of f_cn
    for n in (3, 4):
        for z in SAMPLE_POINTS[:3]:
            f0n = evaluate(FamilyParams("f_0n", n=n), z).f
            f1n = evaluate(FamilyParams("f_1n", n=n), z).f
            for c in NEAR_ZERO:
                gap = abs(evaluate(FamilyParams("f_cn", c=c, n=n), z).f - f0n)
                assert gap < c + 1e-15, (n, z, c)
            for c in NEAR_ONE:
                gap = abs(evaluate(FamilyParams("f_cn", c=c, n=n), z).f - f1n)
                assert gap < abs(c - 1.0) + 1e-15, (n, z, c)


def test_fixed_c_families_are_the_general_ones_at_their_c():
    # F_ca at c = 0, 1 and f_cn at c = 0, 1, 2 are these families bit for
    # bit, and share their prevertex map
    for fam, general, c in (("F_0a", "F_ca", 0.0), ("F_1a", "F_ca", 1.0),
                            ("f_0n", "f_cn", 0.0), ("f_1n", "f_cn", 1.0),
                            ("f_2n", "f_cn", 2.0)):
        fixed = FamilyParams(family=fam, a=0.3 * (fam[0] == "F"), n=4)
        p = FamilyParams(family=general, c=c, a=fixed.a, n=4)
        for spec in (family_phi(fixed), family_phi(p)):
            assert (spec.kind, spec.c) == ("koebe_c", c)
        for z in SAMPLE_POINTS:
            assert evaluate(p, z) == evaluate(fixed, z), (fam, z)


def test_fcn_is_real_on_the_real_axis():
    # the conjugate root terms are summed as term(z) + conj(term(conj z)),
    # so h and the lift integral T have no roundoff imaginary part there
    x = np.linspace(-0.999, 0.999, 37)
    for c in (0.3, 0.5, 1.5, 1.999):
        for n in (3, 4, 8):
            h, t, _ = fcn_h_and_lift(c, n, x)
            assert (h.imag == 0).all(), (c, n)
            assert (t is None) == (n % 2 == 1)
            if t is not None:
                assert (t.imag == 0).all(), (c, n)
            for z in (-0.95, -0.3, 0.01, 0.5, 0.999):
                h, t, _ = fcn_h_and_lift(c, n, z)
                assert h.imag == 0 and (t is None or t.imag == 0), (c, n, z)


@pytest.mark.parametrize("family", ("f_0n", "f_1n", "f_2n"))
def test_fixed_c_families_are_real_on_the_real_axis(family):
    # each root pair is summed as w log(1 - z conj e) + conj(w) log(1 - z e)
    # and the near-origin series has real coefficients, so h and F3 have
    # no roundoff imaginary part on either side of the series radius
    for n in (3, 4, 5, 8, 16, 64):
        r = families._series_radius(n)
        edge = [np.nextafter(r, 0.0), r, np.nextafter(r, 1.0)]
        x = np.concatenate([np.linspace(-0.999, 0.999, 37), edge,
                            np.negative(edge)])
        p = FamilyParams(family=family, n=n)
        assert (evaluate_array(p, x)[0].imag == 0).all(), n
        assert all(evaluate(p, z).h.imag == 0 for z in x.tolist()), n
        if n % 2 == 0:
            assert (lift_array(p, x)[2] == 0).all(), n
            assert all(lift_sample(p, z).f3 == 0 for z in x.tolist()), n


def test_fcn_coincides_with_F_ca_at_n_two():
    for c in (0.5, 1.5):
        for z in SAMPLE_POINTS[:4]:
            assert abs(evaluate(FamilyParams("f_cn", c=c, n=2), z).f
                       - eval_F_ca(c, 0.0, z).f) < 1e-10


def test_v_equals_imag_prevertex():
    # shearing preserves Im phi for every family (v = Im phi)
    for fam, kw in (("f_0n", dict(c=0.0, n=3)), ("f_1n", dict(c=1.0, n=4)),
                    ("f_2n", dict(c=2.0, n=5)),
                    ("f_cn", dict(c=0.7, n=4))):
        p = FamilyParams(family=fam, **kw)
        for z in SAMPLE_POINTS[:4]:
            s = evaluate(p, z)
            assert abs(s.v - koebe_phi(kw["c"], z).imag) < 1e-9


def test_oracle_equivalence_sampled():
    cases = [FamilyParams(family="f_0n", n=5),
             FamilyParams(family="f_1n", n=6),
             FamilyParams(family="f_2n", n=7),
             FamilyParams(family="F_a", a=-0.5),
             FamilyParams(family="F_0a", a=1.0),
             FamilyParams(family="F_1a", a=0.5),
             FamilyParams(family="F_ca", c=1.5, a=-1.0)]
    for p in cases:
        phi, omega = family_phi(p), family_omega(p)
        for z in SAMPLE_POINTS:
            s = evaluate(p, z)
            o = shear_at(phi, omega, z)
            assert abs(s.h - o.h) < 1e-10, (p, z)
            assert abs(s.g - o.g) < 1e-10, (p, z)


def test_hprime_gprime_relation():
    for fam, kw in (("f_1n", dict(n=3)), ("F_ca", dict(c=1.5, a=0.5))):
        p = FamilyParams(family=fam, **kw)
        omega = family_omega(p)
        for z in SAMPLE_POINTS[:4]:
            assert abs(gprime(p, z)
                       - complex(omega(z)) * hprime(p, z)) < 1e-13


def test_mobius_spec_is_validated_once_per_parameter_set(monkeypatch):
    # the Mobius spec checks |omega| < 1 on a 48-point lattice when built;
    # hprime/gprime must not rebuild it for every point
    built = []
    validate = DilatationSpec._validate_samples

    def counting(spec):
        built.append(spec.a)
        validate(spec)

    monkeypatch.setattr(DilatationSpec, "_validate_samples", counting)
    family_omega.cache_clear()
    families._plan.cache_clear()
    p = FamilyParams(family="F_ca", c=1.5, a=0.37)
    for z in SAMPLE_POINTS:
        hprime(p, z)
        gprime(p, z)
    hprime(FamilyParams(family="F_ca", c=1.5, a=0.37), 0.2j)
    assert built == [0.37]
    hprime(FamilyParams(family="F_a", a=-0.2), 0.2j)
    assert built == [0.37, -0.2]


def test_one_point_calls_build_their_plan_once(monkeypatch):
    # what a parameter set fixes (its closed form, phi, omega, the
    # near-origin radius, the root-pair weights) is built on its first
    # call, not on every one-point call
    resolved = []
    resolve = families.resolve_family

    def counting(params):
        resolved.append(params)
        return resolve(params)

    monkeypatch.setattr(families, "resolve_family", counting)
    families._plan.cache_clear()
    families._root_weights.cache_clear()
    p = FamilyParams(family="f_1n", n=6)
    points = [0.9 * cmath.exp(2j * math.pi * k / 100) * (k + 1) / 100
              for k in range(100)]
    for z in points:
        evaluate(p, z)
        lift_sample(p, z)
        hprime(p, z)
    assert resolved == [p]
    assert families._plan.cache_info().misses == 1
    assert families._root_weights.cache_info().misses == 1


def test_rejects_points_outside_disk():
    with pytest.raises(DomainError):
        evaluate(FamilyParams("f_0n", n=2), 1.2)
    with pytest.raises(DomainError):
        evaluate(FamilyParams(family="F_a", a=0.5), 1.0 + 0j)


def test_derivatives_reject_points_outside_disk():
    # the check of evaluate: no ZeroDivisionError at z = 1, and no value
    # from outside the disk or from a NaN
    for params in (FamilyParams(family="F_a", a=0.3),
                   FamilyParams(family="F_ca", c=0.5, a=0.2),
                   FamilyParams(family="f_2n", n=2),
                   FamilyParams(family="f_cn", c=0.7, n=3)):
        for z in (1.0, 1.5, 2j, -1.0 + 0j, complex("nan"),
                  complex(0.2, float("nan")), 1e200):
            for derivative in (hprime, gprime):
                with pytest.raises(DomainError,
                                   match="not inside the unit disk"):
                    derivative(params, z)


# --- partial fractions --------------------------------------------------------

def test_coeffs_f1n_odd():
    c = coeffs_f1n(3)
    assert c.scalar("kappa1") == pytest.approx(2.0 / 9.0)
    assert float(c.scalar("kappa2")) == pytest.approx(1.0 / 3.0)
    assert float(c.scalar("kappa3")) == pytest.approx(1.0 / 3.0)


def test_coeffs_f1n_even():
    c = coeffs_f1n(4)
    vals = {name: float(v) for name, v in c.scalars}
    assert vals == pytest.approx({"lambda1": 5.0 / 16.0, "lambda2": 3.0 / 8.0,
                                  "lambda3": 1.0 / 4.0, "lambda4": 1.0 / 16.0})


def test_coeffs_f2n():
    c3 = {name: float(v) for name, v in coeffs_f2n(3).scalars}
    assert c3["lambda2"] == pytest.approx(1.0 / 9.0)
    assert c3["lambda3"] == pytest.approx(1.0 / 3.0)
    assert c3["lambda4"] == pytest.approx(2.0 / 3.0)
    c4 = {name: float(v) for name, v in coeffs_f2n(4).scalars}
    assert c4["lambda2"] == pytest.approx(1.0 / 4.0)
    assert c4["lambda3"] == pytest.approx(1.0 / 2.0)
    assert c4["lambda4"] == pytest.approx(1.0 / 2.0)


@pytest.mark.parametrize("n", (4, 8, 12, 64))
def test_pole_coefficient_at_i_is_exact(n):
    # e_k = i exactly at k = n/4: k_1'(i)/n = i/(2n), k_2'(i)/n = -1/(2n)
    pole = {k: alpha for k, alpha, _ in coeffs_f1n(n).pole_coeffs}[n // 4]
    assert pole == 1j / (2 * n)
    pole = {k: alpha for k, alpha, _ in coeffs_f2n(n).pole_coeffs}[n // 4]
    assert pole == -1.0 / (2 * n)


def test_reconstruction_spec_points():
    c = coeffs_f1n(5)
    z = 0.3 + 0.2j
    assert abs(c.reconstruct(z) - c.target(z)) < 1e-12
    c = coeffs_f2n(6)
    z = 0.4j
    assert abs(c.reconstruct(z) - c.target(z)) < 1e-12


def test_reconstruction_random_sweep():
    rng = random.Random(7)
    for n in range(1, 11):
        for coeffs in (coeffs_f1n(n), coeffs_f2n(n)):
            for _ in range(50):
                r = 0.85 * math.sqrt(rng.random())
                z = r * cmath.exp(2j * math.pi * rng.random())
                assert abs(coeffs.reconstruct(z)
                           - coeffs.target(z)) < 1e-12, (coeffs.family, n, z)
