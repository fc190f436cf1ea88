import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shearlift.analytic import (cauchy_derivative, integrate_segment,
                                require_disk_point, QuadratureConfig)
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


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


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


def test_cauchy_derivative_rejects_bad_radius():
    with pytest.raises(ValueError):
        cauchy_derivative(lambda w: w, 0j, radius=0.0)
