import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shearlift.analytic import (cauchy_derivative, cauchy_derivatives,
                                circle_derivative, circle_nodes, clog,
                                integrate_segment, require_disk_point,
                                unit_roots)
from shearlift.errors import DomainError


def test_require_disk_point_rejects_boundary():
    assert require_disk_point(0.5 + 0.1j) == 0.5 + 0.1j
    with pytest.raises(DomainError):
        require_disk_point(1.0)
    with pytest.raises(DomainError):
        require_disk_point(0.9995)  # above the default quadrature cutoff
    assert require_disk_point(0.9995, r_max=1.0) == 0.9995


def test_require_disk_point_forgives_grid_rounding():
    # grid builders form r*exp(i*theta); at r = r_max the rounded modulus
    # may exceed r_max by an ulp or two
    for k in range(256):
        z = 0.999 * cmath.exp(2j * math.pi * k / 256)
        assert require_disk_point(z) == z
    with pytest.raises(DomainError):
        require_disk_point(0.999 + 1e-12)


def test_integrate_constant():
    val = integrate_segment(lambda z: np.ones_like(z), 0j, 0.5 + 0.5j)
    assert abs(val - (0.5 + 0.5j)) < 1e-14


def test_integrate_linear():
    val = integrate_segment(lambda z: z, 0j, 0.6)
    assert abs(val - 0.18) < 1e-14


def test_integrate_against_antiderivative():
    # oracle: d/dz (1-z)^(-1) = (1-z)^(-2), so the integral is 1/(1-z) - 1
    val = integrate_segment(lambda z: (1.0 - z) ** -2, 0j, 0.5)
    assert abs(val - 1.0) < 1e-12


def test_integrate_scalar_integrand_fallback():
    # point-wise (non-vectorized) integrands are accepted too
    val = integrate_segment(lambda z: cmath.exp(complex(z)), 0j, 1.0)
    assert abs(val - (math.e - 1.0)) < 1e-12
    # a number for an array of nodes does not have the nodes' shape, so
    # it is called point by point as well
    assert abs(integrate_segment(lambda z: 2.0, 0j, 0.5) - 1.0) < 1e-15
    # nor does an integrand that branches on its argument
    val = integrate_segment(lambda z: z if abs(z) < 2.0 else 0.0, 0j, 0.6)
    assert abs(val - 0.18) < 1e-14


@given(st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(max_magnitude=0.8, allow_nan=False,
                          allow_infinity=False))
def test_integral_additivity(z0, z1):
    # splitting the segment at its midpoint must not change the value
    mid = 0.5 * (z0 + z1)
    f = lambda z: 1.0 / (2.0 - z)
    whole = integrate_segment(f, z0, z1)
    parts = integrate_segment(f, z0, mid) + integrate_segment(f, mid, z1)
    assert abs(whole - parts) < 1e-11


def test_cauchy_derivative_precision():
    z = 0.85  # close to the singularity at 1: finite differences degrade
    d = cauchy_derivative(lambda w: 1.0 / (1.0 - w), z,
                          radius=0.25 * (1.0 - abs(z)))
    assert abs(d - 1.0 / (1.0 - z) ** 2) < 1e-12
    # f that takes one point at a time, as an `if` on its argument does
    d = cauchy_derivative(lambda w: w * w if abs(w) < 2.0 else 0.0, 0.3,
                          radius=0.1)
    assert abs(d - 0.6) < 1e-14


def test_cauchy_derivative_rejects_bad_radius():
    with pytest.raises(ValueError):
        cauchy_derivative(lambda w: w, 0j, radius=0.0)
    with pytest.raises(ValueError):
        cauchy_derivatives(lambda w: (w,), np.array([0j, 0.1]),
                           np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        cauchy_derivatives(lambda w: (w,), 0.2j, 0.0)


def test_circle_derivative_of_a_real_part_is_half_the_derivative():
    # X = Re A has c_1(X)/rho = A'/2, the gradient X_x - i X_y over 2
    z = np.array([0.3 + 0.2j, -0.5j])
    radius = np.array([0.1, 0.2])
    d = circle_derivative(np.exp(circle_nodes(z, radius)).real, radius)
    assert np.abs(d - np.exp(z) / 2).max() < 1e-15


def test_unit_roots_are_exact_at_quarter_turns_and_cmath_exp_elsewhere():
    for count in (1, 2, 3, 7, 12, 24, 256):
        e = unit_roots(count)
        assert e.dtype == complex and e.shape == (count,)
        # built once per count, and shared: no caller may write into it
        assert unit_roots(count) is e
        with pytest.raises(ValueError):
            e[0] = 0.0
        for k, root in enumerate(e.tolist()):
            if 4 * k % count:
                assert root == cmath.exp(2j * math.pi * k / count), (count, k)
                continue
            # 1, i, -1, -i, with +0.0 in the part that is zero
            want = (1.0, 1j, -1.0, -1j)[4 * k // count]
            zero = root.imag if root.imag == 0.0 else root.real
            assert root == want and not math.copysign(1.0, zero) < 0, (
                count, k, root)


def _log_arguments():
    """Seeded arrays of the arguments the package takes logs of: 1 +- z,
    (1+z)/(1-z) and 1 - z conj(e_k) for |z| up to 0.999 (the closed forms
    and k_c), -x with |x| >= 5/3 (the 1/x route of hyp2f1_1c) and 1 - x
    with |1 - x| <= 1/2 (its log route)."""
    rng = np.random.default_rng(28)
    m = 2000
    z = np.concatenate([
        0.999 * np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m)),
        0.999 * np.exp(2j * np.pi * rng.random(200)),
        10.0 ** rng.uniform(-9, -1, 200)
        * np.exp(2j * np.pi * rng.random(200))])
    x = (10.0 ** rng.uniform(math.log10(5 / 3), 6, m)
         * np.exp(2j * np.pi * rng.random(m)))
    u = 0.5 * np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
    return {"1 + z": 1.0 + z, "1 - z": 1.0 - z,
            "(1 + z)/(1 - z)": (1.0 + z) / (1.0 - z),
            "1 - z conj(e_k)": (1.0 - z[::4, None]
                                * unit_roots(16).conj()).ravel(),
            "-x": -x, "1 - x": 1.0 - (1.0 - u)}


@pytest.mark.parametrize("name", list(_log_arguments()))
def test_clog_against_mpmath(name):
    mpmath = pytest.importorskip("mpmath")
    w = _log_arguments()[name]
    got = clog(w)
    eps = np.finfo(float).eps
    worst = near_one = 0.0
    with mpmath.workdps(30):
        for v, g in zip(w.tolist(), got.tolist()):
            ref = mpmath.log(mpmath.mpc(v.real, v.imag))
            err = mpmath.mpc(g.real, g.imag) - ref
            worst = max(worst, abs(err) / max(1.0, abs(ref)))
            # near w = 1, where the root terms of the power families cancel,
            # log|w| keeps its digits relative to |w - 1|
            if abs(v - 1.0) <= 0.5:
                near_one = max(near_one, abs(err.real) / abs(v - 1.0))
    # at worst 0.93 eps and 1.12 eps |w - 1| on these points, where
    # numpy's complex log (glibc's clog) is within 0.78 eps and
    # 1.49 eps |w - 1|; log(hypot(Re w, Im w)) is off by up to 3.6e7 eps
    # |w - 1| near w = 1
    assert worst <= 2.0 * eps, (name, float(worst / eps))
    assert near_one <= 2.0 * eps, (name, float(near_one / eps))


def test_clog_is_conjugate_symmetric_and_cmath_on_numbers():
    # conj-symmetric bit for bit, which keeps the closed forms exactly real
    # on the real axis; signed zeros and the negative axis included
    axis = np.array([0.5, 2.0, -0.5, -3.0, 1.0], dtype=complex)
    signed = np.concatenate([axis, axis.conj()])
    for w in [*_log_arguments().values(), signed]:
        got, mirrored = clog(w), clog(w.conj())
        assert got.dtype == complex and got.shape == w.shape
        assert (mirrored.view(np.uint64) == got.conj().view(np.uint64)).all()
        for v in w[::97].tolist():
            assert clog(v) == cmath.log(v)
            assert clog(np.complex128(v)) == cmath.log(v)
    assert clog(-2.0) == cmath.log(-2.0)
    assert clog(np.float64(0.5)) == cmath.log(0.5)
    assert clog(signed)[:5].imag.tolist() == [0.0, 0.0, math.pi, math.pi, 0.0]
    # empty and 0-d arrays stay arrays of their shape
    empty = clog(np.array([], dtype=complex))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    point = clog(np.array(0.3 - 0.4j))
    assert isinstance(point, np.ndarray) and point.shape == ()
    assert point == clog(np.array([0.3 - 0.4j]))[0]
