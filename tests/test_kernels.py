import numpy as np
import pytest

from shearlift import _kernels
from shearlift._kernels import fallback
from shearlift.errors import ConvergenceError

TOLS = (1e-12, 1e-12, 2000)


def koebe_prime(c):
    return lambda z: (1.0 + z) ** (c - 1.0) * (1.0 - z) ** (-(c + 1.0))


def integrals(f, z, *tols):
    """The integral of f along [0, z] from both entry points: the
    one-segment rule, and the batched rule on a batch that holds z between
    two easier segments."""
    one = fallback.adaptive_segment(f, 0j, z, *tols)
    batch = fallback.adaptive_segments(f, 0j, np.array([0.1, z, -0.2j]),
                                       *tols)
    return one, batch[1]


def test_backend_reported():
    assert _kernels.BACKEND == "python"
    assert fallback.BACKEND == "python"


def test_fallback_shear_zero_dilatation_identity_prevertex():
    # omega = 0, phi = z: h is just z itself
    for h in integrals(np.ones_like, 0.5, *TOLS):
        assert abs(h - 0.5) < 1e-13


def test_fallback_shear_koebe_power():
    # c=1, omega=z: h' = 1/((1-z)^2 (1-z)), h = 1/(2(1-z)^2) - 1/2
    for h in integrals(lambda z: koebe_prime(1.0)(z) / (1.0 - z), 0.5,
                       *TOLS):
        assert abs(h - 1.5) < 1e-12


def test_fallback_lift_real_axis_is_real():
    # k_1'(z) z / (1 - z^2), the n = 2 lift integrand, is real on [0, 1)
    for val in integrals(lambda z: koebe_prime(1.0)(z) * z / (1.0 - z * z),
                         0.6, *TOLS):
        assert abs(val.imag) < 1e-13


def test_fallback_convergence_error():
    def f(z):
        return koebe_prime(2.0)(z) / (1.0 - z)

    with pytest.raises(ConvergenceError):
        fallback.adaptive_segment(f, 0j, 0.95, 1e-15, 1e-15, 2)
    with pytest.raises(ConvergenceError) as info:
        fallback.adaptive_segments(f, 0j, np.array([0.1, 0.95, 0.96]),
                                   1e-15, 1e-15, 2)
    # the first segment in C order that fails
    assert info.value.index == 1


def test_nan_integrand_does_not_converge():
    def f(z):
        return np.full_like(z, np.nan)

    with pytest.raises(ConvergenceError):
        fallback.adaptive_segment(f, 0j, 0.5, *TOLS)
    with pytest.raises(ConvergenceError):
        fallback.adaptive_segments(f, 0j, np.array([0.5]), *TOLS)


def test_gauss_kronod_exactness():
    # a single K15 panel integrates low-degree polynomials exactly;
    # oracle is the closed-form antiderivative
    val = fallback.adaptive_segment(lambda z: 5.0 * z ** 4, 0.0, 1.0,
                                    1e-13, 1e-13, 10)
    assert abs(val - 1.0) < 1e-14


def test_batched_segments_keep_shape_and_match_one_segment_rule():
    # arbitrary ends, a zero-length segment among them
    z0 = np.array([[0.0, 0.2j], [-0.3, 0.5 + 0.1j]])
    z1 = np.array([[0.7 - 0.2j, 0.2j], [0.9j, -0.8]])
    f = koebe_prime(0.5)
    got = fallback.adaptive_segments(f, z0, z1, *TOLS)
    assert got.shape == (2, 2)
    assert got[0, 1] == 0
    for a, b, val in zip(z0.ravel(), z1.ravel(), got.ravel()):
        one = fallback.adaptive_segment(f, a, b, *TOLS)
        assert abs(val - one) <= 4e-16 * max(1.0, abs(one))


def test_global_error_control_reaches_the_boundary_layer():
    # k_2'(z)/(1 - z) = (1+z)/(1-z)^4 near z = 1: a panel-width-scaled
    # tolerance demanded roundoff-level accuracy of the last panels here
    def f(z):
        return koebe_prime(2.0)(z) / (1.0 - z)

    u = 1.0 / (1.0 - 0.999)
    # (1+z)/(1-z)^4 = 2/(1-z)^4 - 1/(1-z)^3
    exact = 2.0 / 3.0 * (u ** 3 - 1.0) - 0.5 * (u ** 2 - 1.0)
    for h in integrals(f, 0.999, *TOLS):
        assert abs(h - exact) <= 1e-12 * abs(exact)
