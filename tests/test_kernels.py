import numpy as np
import pytest

from shearlift import _kernels
from shearlift._kernels import fallback
from shearlift._kernels.fallback import GAUSS_IDX, WG, WGK, XGK
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


def counted(f):
    """f, and the list of the node counts of its calls."""
    sizes = []

    def g(z):
        sizes.append(np.size(z))
        return f(z)

    return g, sizes


def boundary_layer(z):
    return koebe_prime(2.0)(z) / (1.0 - z)


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
    stalled = ("segment quadrature stalled after 3 subdivisions "
               "(error 1.474e+02)")
    with pytest.raises(ConvergenceError) as info:
        fallback.adaptive_segment(boundary_layer, 0j, 0.95, 1e-15, 1e-15, 2)
    assert str(info.value) == stalled
    with pytest.raises(ConvergenceError) as info:
        fallback.adaptive_segments(boundary_layer, 0j, np.array([0.95]),
                                   1e-15, 1e-15, 2)
    assert str(info.value) == stalled
    with pytest.raises(ConvergenceError) as info:
        fallback.adaptive_segments(boundary_layer, 0j,
                                   np.array([0.1, 0.95, 0.96]),
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


@pytest.mark.parametrize("f,z,rounds", (
    (lambda z: 5.0 * z ** 4, 1.0, []),
    # (1-z)^-2 on [0, 0.5]: the whole panel is split once, and its halves
    # converge
    (koebe_prime(1.0), 0.5, [30]),
), ids=("one-panel", "split-once"))
def test_one_call_for_a_segment_split_at_most_once(f, z, rounds):
    one, calls = counted(f)
    fallback.adaptive_segment(one, 0j, z, *TOLS)
    # the segment and its two halves
    assert calls == [45]
    batch, batch_calls = counted(f)
    fallback.adaptive_segments(batch, 0j, np.array([z]), *TOLS)
    # the batched rule evaluates the new panels of each round
    assert batch_calls == [15] + rounds


def test_one_segment_has_the_rounds_of_the_batched_rule():
    # the same rounds on the same panels as the batched rule on this
    # segment alone, whose first round the first call covers: one call
    # fewer
    one, calls = counted(boundary_layer)
    fallback.adaptive_segment(one, 0j, 0.999, *TOLS)
    batch, batch_calls = counted(boundary_layer)
    fallback.adaptive_segments(batch, 0j, np.array([0.999]), *TOLS)
    assert batch_calls[:2] == [15, 30]
    assert calls == [45] + batch_calls[2:]


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
        # one panel formula, one decision rule, one summation order
        assert val == one


def test_global_error_control_reaches_the_boundary_layer():
    # k_2'(z)/(1 - z) = (1+z)/(1-z)^4 near z = 1: a panel-width-scaled
    # tolerance demanded roundoff-level accuracy of the last panels here
    u = 1.0 / (1.0 - 0.999)
    # (1+z)/(1-z)^4 = 2/(1-z)^4 - 1/(1-z)^3
    exact = 2.0 / 3.0 * (u ** 3 - 1.0) - 0.5 * (u ** 2 - 1.0)
    for h in integrals(boundary_layer, 0.999, *TOLS):
        assert abs(h - exact) <= 1e-12 * abs(exact)


def plain_panel_rule(f, z0, dz, owner, t0, t1):
    """The G7/K15 panel rule written plainly: segment starts and lengths
    gathered by owner, the nodes z0 + (mid + hw*XGK)*dz, and the products
    fv @ WGK and fv[:, GAUSS_IDX] @ WG (an advanced-indexing copy)."""
    mid = 0.5 * (t0 + t1)
    hw = 0.5 * (t1 - t0)
    d = dz[owner, None]
    fv = np.asarray(f(z0[owner, None]
                      + (mid[:, None] + hw[:, None] * XGK) * d)) * d
    ik = hw * (fv @ WGK)
    return ik, np.abs(ik - hw * (fv[:, GAUSS_IDX] @ WG))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape
            and (a.view(np.uint64) == b.view(np.uint64)).all())


@pytest.mark.parametrize("rows", (1, 3, 7, 64, 1000))
def test_panel_estimates_have_the_bits_of_the_plain_rule(rows):
    # The kernel's products take other numpy calls than the plain rule
    # (.dot, a column-major G7 slice, no gathers), on the same BLAS path:
    # a C-order slice or a padded weight vector would round differently.
    # Both run on this numpy, so a BLAS or layout change shows here.
    rng = np.random.default_rng(rows)
    t0 = rng.random(rows) * 0.9
    t1 = t0 + rng.random(rows) * (1.0 - t0)
    f = koebe_prime(0.5)
    segments = 5
    # segments inside |z| < 0.92, away from the poles at +-1
    z0 = 0.3 * (rng.random(segments) + 1j * rng.random(segments) - 0.5
                - 0.5j)
    dz = 0.5 * (rng.random(segments) + 1j * rng.random(segments))
    nodes = fallback._panel_nodes(t0, t1)
    # one segment, as adaptive_segment passes it: two numbers
    want = plain_panel_rule(f, z0[:1], dz[:1], np.zeros(rows, dtype=int),
                            t0, t1)
    got = fallback._panel_estimates(f, complex(z0[0]), complex(dz[0]),
                                    *nodes)
    assert all(map(same_bits, got, want))
    # per-panel segments, as adaptive_segments passes them
    owner = rng.integers(0, segments, rows)
    want = plain_panel_rule(f, z0, dz, owner, t0, t1)
    got = fallback._panel_estimates(f, z0[owner, None], dz[owner, None],
                                    *nodes)
    assert all(map(same_bits, got, want))


def test_first_call_nodes_are_the_rule_on_the_segment_and_its_halves():
    t0, t1, hw, x = fallback._FIRST_PANELS
    assert (t0, t1) == ([0.0, 0.0, 0.5], [1.0, 0.5, 1.0])
    t0, t1 = np.array(t0), np.array(t1)
    assert same_bits(hw, 0.5 * (t1 - t0))
    assert same_bits(x, (0.5 * (t0 + t1))[:, None] + hw[:, None] * XGK)
