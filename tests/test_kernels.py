import numpy as np
import pytest

from shearlift import _kernels
from shearlift._kernels import fallback
from shearlift._kernels.fallback import WG, WGK, XGK
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
    # exp(10iz) on [0, 1]: the whole panel and both its halves are split,
    # and the quarters converge
    (lambda z: np.exp(10j * z), 1.0, [30, 60]),
), ids=("one-panel", "split-once", "split-twice"))
def test_one_call_for_a_segment_split_at_most_once(f, z, rounds):
    one, calls = counted(f)
    fallback.adaptive_segment(one, 0j, z, *TOLS)
    # the segment, its two halves and its four quarters
    assert calls == [105]
    batch, batch_calls = counted(f)
    fallback.adaptive_segments(batch, 0j, np.array([z]), *TOLS)
    # the batched rule evaluates the new panels of each round
    assert batch_calls == [15] + rounds


def test_one_segment_has_the_rounds_of_the_batched_rule():
    # the same rounds on the same panels as the batched rule on this
    # segment alone, whose first two rounds the first call covers: two
    # calls fewer
    one, calls = counted(boundary_layer)
    fallback.adaptive_segment(one, 0j, 0.999, *TOLS)
    batch, batch_calls = counted(boundary_layer)
    fallback.adaptive_segments(batch, 0j, np.array([0.999]), *TOLS)
    assert batch_calls[:3] == [15, 30, 30]
    assert calls == [105] + batch_calls[3:]


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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape
            and (a.view(np.uint64) == b.view(np.uint64)).all())


@pytest.mark.parametrize("per_panel", (False, True),
                         ids=("two-numbers", "per-panel-arrays"))
def test_panel_estimates_do_not_depend_on_the_batch(per_panel):
    # each panel's K15 and K15 - G7 sums are a reduction of its own 15
    # values: alone, in small batches and inside a 1000-row batch, a
    # panel gets the same bits
    rng = np.random.default_rng(29)
    rows = 1000
    t0 = rng.random(rows) * 0.9
    t1 = t0 + rng.random(rows) * (1.0 - t0)
    hw, x = fallback._panel_nodes(t0, t1)
    f = koebe_prime(0.5)
    segments = 5
    # segments inside |z| < 0.92, away from the poles at +-1
    z0 = 0.3 * (rng.random(segments) + 1j * rng.random(segments) - 0.5
                - 0.5j)
    dz = 0.5 * (rng.random(segments) + 1j * rng.random(segments))
    owner = rng.integers(0, segments, rows)

    def ends(batch):
        # per-panel segments, as adaptive_segments passes them, or one
        # segment as two numbers, as adaptive_segment passes it
        if per_panel:
            return z0[owner[batch], None], dz[owner[batch], None]
        return complex(z0[0]), complex(dz[0])

    def estimates(batch):
        return fallback._panel_estimates(f, *ends(batch), hw[batch],
                                         x[batch])

    whole = estimates(slice(None))
    for size in (1, 2, 3, 7, 33, 64):
        parts = [estimates(slice(i, i + size)) for i in range(0, rows, size)]
        assert all(map(same_bits, map(np.concatenate, zip(*parts)), whole))
    # and the sums are the rule's: K15, and |K15 - G7|, to roundoff
    start, d = ends(slice(None))
    fv = f(start + x * d) * d
    k15 = hw * (fv @ WGK)
    scale = hw * (np.abs(fv) @ WGK)
    assert (np.abs(whole[0] - k15) <= 1e-14 * scale).all()
    g7 = hw * (fv[:, 1::2] @ WG)
    assert (np.abs(whole[1] - np.abs(k15 - g7)) <= 1e-14 * scale).all()


def test_first_call_nodes_are_the_rule_on_the_segment_its_halves_and_quarters():
    t0, t1, hw, x = fallback._FIRST_PANELS
    assert (t0, t1) == ([0.0, 0.0, 0.5, 0.0, 0.25, 0.5, 0.75],
                        [1.0, 0.5, 1.0, 0.25, 0.5, 0.75, 1.0])
    t0, t1 = np.array(t0), np.array(t1)
    assert same_bits(hw, 0.5 * (t1 - t0))
    assert same_bits(x, (0.5 * (t0 + t1))[:, None] + hw[:, None] * XGK)
