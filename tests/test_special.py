import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearlift import families, special
from shearlift.errors import DomainError, UnsupportedDomainError
from shearlift.special import (F1Params, appell_f1, appell_f1_integral,
                               appell_f1_series, gauss_2f1, hyp2f1_1c,
                               pochhammer)


def f1_brute(p, x, y, orders=80):
    """Independent oracle: the raw double sum with each term built from
    scratch as a product of bounded factors (no shared recurrences, no
    overflowing factorial ratios)."""
    total = 0j
    for k in range(orders):
        for l in range(orders - k):
            term = 1.0 + 0j
            for j in range(k + l):
                term *= (p.alpha + j) / (p.gamma + j)
            for j in range(k):
                term *= (p.beta1 + j) * x / (j + 1)
            for j in range(l):
                term *= (p.beta2 + j) * y / (j + 1)
            total += term
    return total


def test_pochhammer_values():
    assert pochhammer(7.3, 0) == 1.0
    assert pochhammer(2, 3) == 24
    assert pochhammer(0.5, 2) == 0.75


def test_pochhammer_integer_exactness():
    # (1)_k = k! exactly, no rounding
    for k in range(12):
        assert pochhammer(1, k) == math.factorial(k)
    assert pochhammer(-3, 4) == 0  # terminates past the zero factor


def test_pochhammer_rejects_bad_k():
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)
    with pytest.raises(ValueError):
        pochhammer(1.0, 0.5)


def test_2f1_empty_series():
    assert gauss_2f1(0.3, 0.7, 1.1, 0.0) == 1.0


def test_2f1_geometric():
    # 2F1(1, b; b; x) = 1/(1-x)
    assert abs(gauss_2f1(1.0, 2.0, 2.0, 0.3) - 1.0 / 0.7) < 1e-14


def test_2f1_against_brute_force():
    a, b, c, x = 0.5, 0.4, 1.2, 0.3
    brute = 0.0
    for k in range(120):
        term = 1.0
        for j in range(k):
            term *= (a + j) * (b + j) / (c + j) * x / (j + 1)
        brute += term
    assert abs(gauss_2f1(a, b, c, x) - brute) < 1e-12


def test_2f1_domain_errors():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, -1.0, 0.3)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.5, 1.2)


# 2F1(1, c; c+1; x) is elementary at c = 1/2, 1 and 2.
ELEMENTARY_1C = {
    0.5: lambda x: cmath.atanh(cmath.sqrt(x)) / cmath.sqrt(x),
    1.0: lambda x: -cmath.log(1.0 - x) / x,
    2.0: lambda x: -2.0 * (x + cmath.log(1.0 - x)) / (x * x),
}
# one point per route of hyp2f1_1c: power series, 1/x connection, Pfaff,
# log series about 1, Taylor centres, and a point on either side of the
# cut that the centres of its own side take
ROUTE_POINTS = [0.3 - 0.2j, -0.45j, 2.5 + 1.0j, -40.0 + 3.0j, 120j,
                -1.2 + 0.1j, -0.3 + 0.9j, 1.3 + 0.2j, 0.7 - 0.3j,
                0.4 + 1.2j, 1.55 + 0.5j, cmath.exp(1j * math.pi / 3),
                1.6 + 1e-9j, 1.6 - 1e-9j]


def test_hyp2f1_1c_elementary_cases():
    for c, ref in ELEMENTARY_1C.items():
        for x in ROUTE_POINTS:
            exact = ref(x)
            assert abs(hyp2f1_1c(c, x) - exact) <= 1e-13 * abs(exact), (c, x)


def test_hyp2f1_1c_origin_and_series():
    assert hyp2f1_1c(1.5, 0.0) == 1.0
    x = 0.2 + 0.1j
    series = sum(1.5 / (1.5 + m) * x ** m for m in range(60))
    assert abs(hyp2f1_1c(1.5, x) - series) < 1e-15


def test_hyp2f1_1c_sides_of_the_cut():
    # principal branch: the two sides of (1, inf) differ by 2 pi i c x^-c
    c = 0.7
    for t in (1.3, 1.6, 4.0):
        above = hyp2f1_1c(c, complex(t, 1e-13))
        below = hyp2f1_1c(c, complex(t, -1e-13))
        jump = 2j * math.pi * c * t ** -c
        assert abs((above - below) - jump) < 1e-9, t


def test_hyp2f1_1c_taylor_centres_cover_the_zone():
    # The Taylor route takes the zone no other route takes: 1/2 < |x| <
    # 5/3 outside the Pfaff disc |x/(x-1)| <= 0.6, which is |x + 9/16| <=
    # 15/16, and the log disc |1 - x| <= 1/2, off the cut.  Each lattice
    # point of spacing h with Im >= 0 that lies within h of the zone is
    # within (reach - h) of an upper centre.  A zone point with Im >= 0
    # is within h/sqrt(2) of such a lattice point, so within reach of that
    # centre; the lower half is the mirror image under the conjugate
    # centres.
    def in_series_route(x):
        return (abs(x) <= 0.5 or abs(x) >= 5.0 / 3.0
                or abs(x) <= 0.6 * abs(1.0 - x) or abs(1.0 - x) <= 0.5)

    h = 0.005
    steps = np.arange(-340, 341) * h
    x = (steps + 1j * steps[340:, None]).ravel()
    x = x[(np.abs(x) > 0.5 - h) & (np.abs(x) < 5.0 / 3.0 + h)
          & (np.abs(x + 9.0 / 16.0) > 15.0 / 16.0 - h)
          & (np.abs(1.0 - x) > 0.5 - h)]
    slack = np.full(x.shape, np.inf)
    for x0 in special._TAYLOR_CENTRES:
        # F(x0) at table time takes a series route, not a centre
        assert x0.imag >= 0.0 and in_series_route(x0), x0
        reach = special._TAYLOR_RATIO * min(abs(x0), abs(1.0 - x0))
        slack = np.minimum(slack, np.abs(x - x0) - reach)
    assert slack.max() <= -h


def test_hyp2f1_1c_taylor_route_takes_the_nearest_centre():
    # brute force: the first centre of least |x - x0|/R, after mirroring
    # x to the upper half-plane
    rng = np.random.default_rng(11)
    x = (rng.uniform(0.5, 5.0 / 3.0, 4000)
         * np.exp(2j * np.pi * rng.uniform(size=4000)))
    x = x[(np.abs(x + 9.0 / 16.0) > 15.0 / 16.0) & (np.abs(1.0 - x) > 0.5)]
    x = np.concatenate([x, special._TAYLOR_CENTRES,
                        special._TAYLOR_CENTRES.conj()])
    centres = special._TAYLOR_CENTRES.tolist()
    radii = special._TAYLOR_RADII.tolist()
    want = [min(range(len(centres)),
                key=lambda j: abs(p - centres[j]) / radii[j])
            for p in np.where(x.imag < 0.0, x.conj(), x).tolist()]
    table = special._f1c_centres(1.5)
    order, series = special._f1c_taylor(1.5, x)
    got = np.empty(len(x), dtype=int)
    got[order] = np.concatenate([
        np.full(len(y), [np.array_equal(row, r) for r in table].index(True))
        for row, _, y in series])
    assert got.tolist() == want


def test_horner_keeps_a_python_complex_and_an_array_shape():
    # the one-point near-origin series stays in Python arithmetic
    coeffs = families._series(1.5, 8)[0]
    z = 0.1 + 0.2j
    value = special._horner(coeffs, z)
    assert type(value) is complex
    plain = sum(a * z ** k for k, a in enumerate(coeffs[::-1]))
    assert abs(value - plain) <= 1e-15 * abs(plain)
    y = np.array([[0.1 + 0.2j, -0.2j, 0.0], [0.25, -0.1 + 0.1j, 1e-3j]])
    got = special._horner(coeffs, y)
    assert isinstance(got, np.ndarray) and got.shape == y.shape
    # numpy's complex multiply may round apart from Python's
    for p, v in zip(y.ravel().tolist(), got.ravel().tolist()):
        want = special._horner(coeffs, p)
        assert abs(v - want) <= 2.0 * np.finfo(float).eps * abs(want), p


def test_horner_many_is_each_series_alone_to_roundoff():
    # numpy may round an in-place complex multiply differently with the
    # length of the arrays, so a series summed in a batch can differ in
    # the last bit from the same series summed alone: allow 2 ulp of the
    # magnitude bound sum |a_k| |y|^k
    tables = special._f1c_tables(1.5)
    rows = [tables.power, tables.inverse, tables.pfaff, tables.log_a,
            tables.log_b]
    rng = np.random.default_rng(5)
    for _ in range(60):
        series = []
        for _ in range(rng.integers(1, 6)):
            coeffs = rows[rng.integers(len(rows))]
            size = int(rng.integers(1, 60))
            y = (0.5 * rng.uniform(size=size)
                 * np.exp(2j * np.pi * rng.uniform(size=size)))
            series.append((coeffs, special._terms_at_most(coeffs, y), y))
        for (coeffs, m, y), got in zip(series,
                                       special._horner_many(series)):
            top_first = coeffs[:m][::-1]
            alone = special._horner(top_first, y)
            bound = special._horner(np.abs(top_first), np.abs(y))
            assert got.shape == y.shape
            assert np.all(np.abs(got - alone)
                          <= 2.0 * np.finfo(float).eps * bound)


def test_hyp2f1_1c_domain_errors():
    with pytest.raises(DomainError):
        hyp2f1_1c(0.0, 0.3)
    with pytest.raises(DomainError):
        hyp2f1_1c(3.5, 0.3)
    with pytest.raises(DomainError):
        hyp2f1_1c(0.5, 1.0)
    with pytest.raises(DomainError):
        hyp2f1_1c(0.5, 3.0)
    for x in (math.nan, complex(math.nan, 1.0), complex(0.3, math.nan)):
        with pytest.raises(DomainError, match="NaN"):
            hyp2f1_1c(0.5, x)
    for x in (complex(math.inf, math.inf), complex(-math.inf, 0.0),
              complex(0.0, math.inf)):
        with pytest.raises(DomainError, match="infinite"):
            hyp2f1_1c(0.5, x)


@pytest.mark.parametrize("c", (1e-6, 0.1, 0.5, 0.9995, 1.0, 1.0005, 1.5,
                               2.0))
def test_hyp2f1_1c_array_matches_scalar(c):
    # a 2-D array over every route and the route radii; a route sums its
    # series to the tail bound of its largest argument, so values may
    # differ in the last bits
    x = np.array(ROUTE_POINTS + [0j, 0.5, -5.0 / 3.0, 0.6 + 0.8j])
    x = x.reshape(3, -1)
    got = hyp2f1_1c(c, x)
    assert got.shape == x.shape
    for p, value in zip(x.ravel().tolist(), got.ravel().tolist()):
        want = hyp2f1_1c(c, p)
        assert abs(value - want) <= 1e-14 * abs(want), (c, p)


def test_hyp2f1_1c_array_shapes_and_domain_errors():
    assert hyp2f1_1c(0.5, np.zeros((0, 3))).shape == (0, 3)
    point = hyp2f1_1c(0.5, np.array(0.3 - 0.2j))
    assert point.shape == ()
    assert abs(point - hyp2f1_1c(0.5, 0.3 - 0.2j)) <= 1e-15
    with pytest.raises(DomainError):
        hyp2f1_1c(0.0, np.array([0.3]))
    with pytest.raises(DomainError, match=r"x = \(3\+0j\)"):
        hyp2f1_1c(0.5, np.array([[0.3, 0.2j], [3.0, 1.0]]))
    for x in (math.nan, complex(math.nan, 1.0), complex(0.3, math.nan)):
        with pytest.raises(DomainError, match="NaN"):
            hyp2f1_1c(0.5, np.array([0.3, x, 3.0]))


def test_f1_at_origin():
    p = F1Params(0.5, 0.3, 0.7, 1.5)
    assert appell_f1_series(p, 0.0, 0.0) == 1.0
    assert abs(appell_f1_integral(p, 0.0, 0.0) - 1.0) < 1e-12


def test_f1_gamma_validation():
    with pytest.raises(ValueError):
        F1Params(0.5, 0.3, 0.7, 0.0)
    with pytest.raises(ValueError):
        F1Params(0.5, 0.3, 0.7, -2.0)


def test_f1_reduction_equal_arguments():
    # F1(a; b1, b2; g; x, x) = 2F1(a, b1+b2; g; x)
    p = F1Params(0.5, 0.3, 0.7, 1.5)
    assert abs(appell_f1(p, 0.2, 0.2)
               - gauss_2f1(0.5, 1.0, 1.5, 0.2)) < 1e-10


def test_f1_reduction_beta2_zero():
    p = F1Params(0.5, 0.4, 0.0, 1.2)
    assert abs(appell_f1(p, 0.3, 0.9)
               - gauss_2f1(0.5, 0.4, 1.2, 0.3)) < 1e-10


def test_f1_reduction_y_zero():
    p = F1Params(0.6, 0.4, 0.9, 1.7)
    assert abs(appell_f1(p, 0.35, 0.0)
               - gauss_2f1(0.6, 0.4, 1.7, 0.35)) < 1e-10


def test_f1_terminating_alpha():
    # F1(-1; b1, b2; g; x, y) = 1 - (b1*x + b2*y)/g
    p = F1Params(-1.0, 0.3, 0.7, 1.5)
    val = appell_f1(p, 0.4, 2.3)  # valid outside the bi-disk
    assert abs(val - (1.0 - (0.3 * 0.4 + 0.7 * 2.3) / 1.5)) < 1e-14


def test_f1_series_against_brute_force():
    p = F1Params(0.5, 0.3, 0.7, 1.5)
    for x, y in ((0.2, 0.2), (0.3, -0.4), (0.1 + 0.2j, -0.3j)):
        assert abs(appell_f1_series(p, x, y) - f1_brute(p, x, y)) < 1e-12


def test_f1_series_integral_overlap():
    p = F1Params(0.5, 0.3, 0.7, 1.5)
    x, y = 0.4, 0.4j
    assert abs(appell_f1_series(p, x, y)
               - appell_f1_integral(p, x, y)) < 1e-10


def test_f1_integral_outside_series_domain():
    # |y| > 1: series inapplicable; integral must still give a finite value
    p = F1Params(0.5, 0.3, 0.7, 1.5)
    val = appell_f1(p, 0.2, 1.8j)
    # refined-quadrature oracle: t = s^2 removes the t^(alpha-1) endpoint
    # singularity (gamma - alpha - 1 = 0, so t = 1 is already smooth),
    # then fixed-order composite Gauss on 400 panels
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(12)
    total = 0.0j
    edges = np.linspace(0.0, 1.0, 401)
    for s0, s1 in zip(edges[:-1], edges[1:]):
        s = 0.5 * (s1 - s0) * nodes + 0.5 * (s0 + s1)
        t = s * s
        f = (2.0 * s ** (2.0 * p.alpha - 1.0)
             * (1.0 - t) ** (p.gamma - p.alpha - 1.0)
             * (1.0 - 0.2 * t) ** -p.beta1 * (1.0 - 1.8j * t) ** -p.beta2)
        total += 0.5 * (s1 - s0) * np.sum(weights * f)
    total *= (math.gamma(p.gamma)
              / (math.gamma(p.alpha) * math.gamma(p.gamma - p.alpha)))
    assert abs(val - total) < 1e-8


def test_f1_refuses_uncovered_domain():
    # alpha <= 0 non-terminating kills the integral; |x| > 1 kills the series
    p = F1Params(-0.5, 0.3, 0.7, 1.5)
    with pytest.raises(UnsupportedDomainError):
        appell_f1(p, 1.4, 0.2)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 0.9), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_f1_series_matches_brute_force_property(alpha, b1, b2, x, y):
    p = F1Params(alpha, b1, b2, alpha + 1.1)
    assert abs(appell_f1_series(p, x, y) - f1_brute(p, x, y)) < 1e-10
