"""Pochhammer symbols, Gauss 2F1 and the two-variable Appell F1.

``hyp2f1_1c`` evaluates 2F1(1, c; c+1; x) on the whole cut plane, for a
number or an array of any shape by the same code: each route is a mask
over the points and every series is summed in one Horner pass.  The f_cn
family and its lift are built from it.  F1 is the paper's form of
the same family and is kept as a reference.  F1 carries two independent
representations:

* a double power series summed along anti-diagonals (|x| < 1, |y| < 1, or
  terminating parameter cases), and
* a one-dimensional Euler-type integral (Re gamma > Re alpha > 0),

plus a dispatcher that picks whichever applies and refuses to extrapolate
outside both domains.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from ._kernels import fallback
from .analytic import DEFAULT_QUADRATURE
from .errors import ConvergenceError, DomainError, UnsupportedDomainError


@dataclass(frozen=True)
class F1Params:
    alpha: float
    beta1: float
    beta2: float
    gamma: float

    def __post_init__(self):
        if _is_nonpositive_int(self.gamma):
            raise ValueError("gamma must not be a non-positive integer")


# gauss_2f1 and appell_f1_series stop once three consecutive terms fall
# below SERIES_TERM_TOL relative to the sum, and give up after
# SERIES_MAX_ORDER terms.
SERIES_TERM_TOL = 1e-15
SERIES_MAX_ORDER = 4000

# Series is preferred inside this radius; beyond it the terms decay too
# slowly for the anti-diagonal tail bound to be trusted.
SERIES_RADIUS = 0.95


def _is_nonpositive_int(q):
    q = float(q)
    return q <= 0 and q == round(q)


def pochhammer(q, k):
    """Rising factorial (q)_k = q (q+1) ... (q+k-1), with (q)_0 = 1."""
    if k < 0 or k != int(k):
        raise ValueError("k must be a non-negative integer")
    acc = 1.0 if not isinstance(q, complex) else 1.0 + 0j
    for j in range(int(k)):
        acc *= q + j
    return acc


def gauss_2f1(a, b, c, x):
    """Gauss hypergeometric series for |x| < 1."""
    x = complex(x)
    if _is_nonpositive_int(c):
        raise DomainError("2F1 undefined for non-positive integer c")
    terminating = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    if abs(x) >= 1.0 and not terminating:
        raise DomainError("2F1 series requires |x| < 1")
    term = 1.0 + 0j
    total = term
    small = 0
    for k in range(SERIES_MAX_ORDER):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
        if term == 0:
            return total
        if abs(term) < SERIES_TERM_TOL * (1.0 + abs(total)):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"2F1 series did not converge within {SERIES_MAX_ORDER} terms")


# --- 2F1(1, c; c+1; x) on the whole cut plane --------------------------------

# Series are summed until the geometric bound |ratio|^m falls below this.
_TAIL = 2.0 ** -57
_EULER_GAMMA = 0.57721566490153286061
# Route radii of hyp2f1_1c.
_POWER_RADIUS = 0.5
_INVERSE_RADIUS = 5.0 / 3.0
_LOG_RADIUS = 0.5
_PFAFF_RADIUS = 0.6
_MAX_PANELS = 3
# The log series also takes the points whose ray passes so close to s = 1
# that the quadrature would need more than _MAX_PANELS panels: the ray then
# comes within (5/3 - 1/2)/6 of s = 1, which keeps |1-x| below 0.72.
_LOG_REACH = 0.75


def _legendre(m, x):
    """P_m(x) and P_m'(x) by the three-term recurrence."""
    p0, p1 = 1.0, x
    for k in range(2, m + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, m * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(m):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1],
    by Newton iteration on P_m."""
    nodes, weights = [], []
    for i in range(1, m + 1):
        x = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(100):
            p, dp = _legendre(m, x)
            step = p / dp
            x -= step
            if abs(step) < 1e-15:
                break
        dp = _legendre(m, x)[1]
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(24)


def _terms(r, growth=0.0):
    """Number of terms m after which r^m (or growth * m * r^m, for
    coefficients that grow like m) is below the summation tail."""
    if r <= _TAIL:
        return 1
    m = int(math.log(_TAIL) / math.log(r)) + 2
    if growth:
        m += int(math.log(growth * m) / -math.log(r)) + 1
    return m


def _horner_many(series):
    """The sums sum_{k<m} coeffs[k] y^k of several series (coeffs, m, y),
    with y a complex ndarray, in one in-place Horner pass over all their
    points.  A series of fewer terms than the longest starts at its own
    top term, so each sum is bit for bit that of a pass of its own."""
    sizes = np.array([y.size for _, _, y in series])
    table = np.zeros((len(series), max(m for _, m, _ in series)))
    for row, (coeffs, m, _) in zip(table, series):
        row[:m] = coeffs[:m]
    y = np.concatenate([y for _, _, y in series])
    acc = np.zeros(y.shape, dtype=complex)
    for column in table.T[::-1]:
        acc *= y
        acc += column.repeat(sizes)
    return np.split(acc, np.cumsum(sizes)[:-1])


def _terms_at_most(coeffs, y, growth=0.0):
    """The terms of coeffs that _terms asks for at the largest |y|."""
    if not y.size:
        return 0
    return min(len(coeffs), _terms(float(np.abs(y).max()), growth))


def _digamma(x):
    """psi(x) for x > 0: recurrence up to x >= 10, then the asymptotic
    series through the x^-12 term."""
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / (x * x)
    tail = inv * (1.0 / 12 - inv * (1.0 / 120 - inv * (
        1.0 / 252 - inv * (1.0 / 240 - inv * (1.0 / 132
                                               - inv * 691.0 / 32760)))))
    return acc + math.log(x) - 0.5 / x - tail


def cexpm1(u):
    """exp(u) - 1 for complex u without cancellation near u = 0."""
    if abs(u) > 0.5:
        return cmath.exp(u) - 1.0
    a, b = u.real, u.imag
    s = math.sin(0.5 * b)
    return complex(math.expm1(a) * math.cos(b) - 2.0 * s * s,
                   math.exp(a) * math.sin(b))


def _powm1_over(m, p, log_w):
    """(w^p - 1)/p from log w, in the math namespace m, without
    cancellation for small p log w.  Below |p| = 1e-20 it is log w to
    double precision, and p log w could lose its digits to underflow."""
    if abs(p) < 1e-20:
        return log_w
    return m.expm1(p * log_w) / p


def _log_sinc_pi(eps):
    """log(sin(pi*eps) / (pi*eps)), accurate relative to its size."""
    y2 = (math.pi * eps) ** 2
    if abs(eps) >= 0.02:
        return math.log(math.sin(math.pi * eps) / (math.pi * eps))
    return -y2 * (1.0 / 6 + y2 * (1.0 / 180 + y2 * (
        1.0 / 2835 + y2 * (1.0 / 37800 + y2 / 467775.0))))


@dataclass(frozen=True)
class _F1cTables:
    """Series coefficients of hyp2f1_1c for one c, lowest order first."""

    power: tuple  # c/(c+m)
    inverse: tuple  # c/(j-c) for j >= 1, 0 at j = round(c)
    pfaff: tuple  # k!/(c+1)_k
    log_b: tuple  # (c)_k/k!
    log_a: tuple  # (c)_k/k! (psi(k+1) - psi(c+k))


@lru_cache(maxsize=64)
def _f1c_tables(c):
    near = round(c)
    m = _terms(_PFAFF_RADIUS)
    pfaff = [1.0]
    for k in range(m - 1):
        pfaff.append(pfaff[-1] * (k + 1.0) / (c + 1.0 + k))
    log_b, log_a = [], []
    coeff = 1.0
    gap = -_EULER_GAMMA - _digamma(c)
    for k in range(_terms(_LOG_REACH, 3.0)):
        log_b.append(coeff)
        log_a.append(coeff * gap)
        gap += 1.0 / (k + 1.0) - 1.0 / (c + k)
        coeff *= (c + k) / (k + 1.0)
    return _F1cTables(
        power=tuple(c / (c + k) for k in range(_terms(_POWER_RADIUS))),
        inverse=tuple(0.0 if j == near else c / (j - c)
                      for j in range(1, _terms(1.0 / _INVERSE_RADIUS) + 1)),
        pfaff=tuple(pfaff), log_b=tuple(log_b), log_a=tuple(log_a))


# Math namespace for formulas written once, for one point
# (families.evaluate): cmath's log and the complex expm1 that cmath lacks.
# numpy is the namespace for arrays.
_CMATH = SimpleNamespace(log=cmath.log, expm1=cexpm1)


def _f1c_inverse(c, x, y, series):
    """DLMF 15.8.2 for |x| > 1:

        pi c (-x)^-c / sin(pi c) + sum_{j>=1} c x^-j / (j - c),

    with the j = N term (N the nearest integer to c, if N >= 1) folded
    into the first one, since both grow like 1/(N - c) and cancel.  y is
    1/x and series the sum of the inverse table in y, all ndarrays."""
    log_mx = np.log(-x)
    total = y * series
    near = round(c)
    if near < 1:
        return total + (math.pi * c / math.sin(math.pi * c)
                        * np.exp(-c * log_mx))
    eps = near - c
    # pi c (-x)^-c / sin(pi c) + c x^-N / eps
    #   = -c x^-N (exp(eps log(-x) - log sinc(pi eps)) - 1) / eps
    if eps == 0.0:
        folded = -log_mx
    else:
        folded = -np.expm1(eps * log_mx - _log_sinc_pi(eps)) / eps
    return total + c * y ** near * folded


# Panels a broadcast of the ray continuation takes at once: its
# temporaries hold 24 values a panel.
_RAY_CHUNK = 1024


def _f1c_ray_array(c, r, direction, pole_gap, at_x1):
    """The ray continuation of hyp2f1_1c at the points |x| = r, x/|x| =
    direction, given F at x1 = direction/2:

        F(x) = (r1/r)^c F(x1) + c x^-c int_{x1}^x s^(c-1)/(1-s) ds,

    and on the ray x^-c s^(c-1) ds = (rho/r)^c drho/rho.  The 24 nodes of
    every panel of every point are one broadcast, summed per point."""
    r1 = _POWER_RADIUS
    panels = np.ceil((r - r1) / (2.0 * pole_gap))
    half = 0.5 * (r - r1) / panels
    point, panel = np.nonzero(np.arange(_MAX_PANELS) < panels[:, None])
    nodes, weights = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    acc = np.zeros(r.shape, dtype=complex)
    for start in range(0, point.size, _RAY_CHUNK):
        p = point[start:start + _RAY_CHUNK, None]
        rho = (r1 + (2 * panel[start:start + _RAY_CHUNK, None] + 1) * half[p]
               + half[p] * nodes)
        f = (weights * np.power(rho / r[p], c)
             / (rho * (1.0 - rho * direction[p])))
        np.add.at(acc, p[:, 0], f.sum(axis=1))
    return np.power(r1 / r, c) * at_x1 + c * half * acc


def hyp2f1_1c(c, x):
    """Gauss 2F1(1, c; c+1; x) for 0 < c <= 2 and complex x off the cut
    [1, inf), principal branch: a Python complex for a number x, a
    complex ndarray of x's shape for an array.

    Equivalently c x^-c int_0^x s^(c-1)/(1-s) ds.  Each point takes the
    first route whose test its x meets:

    * |x| <= 1/2: the power series sum_m c/(c+m) x^m;
    * |x| >= 5/3: the 1/x connection formula (DLMF 15.8.2);
    * |x/(x-1)| <= 0.6: the Pfaff transform (DLMF 15.8.1);
    * |1-x| <= 1/2, or x just past the pole along its ray: the
      logarithmic series about x = 1 (DLMF 15.8.10, a + b = c + 1);
    * otherwise the integral continued from |x| = 1/2 along the ray
      through x, by a 24-point Gauss-Legendre rule on at most three
      panels, each no longer than twice its distance to the pole s = 1.

    Each route is a boolean mask over the points.  The series of all
    routes are summed in one Horner pass, each to the tail bound at the
    largest |argument| of its route, so a point's value can differ in the
    last bits between batches; the ray continuation is one broadcast over
    its points' panels and nodes."""
    c = float(c)
    number = np.isscalar(x)
    x = np.asarray(x, dtype=complex)
    if not 0.0 < c <= 2.0:
        raise DomainError("hyp2f1_1c needs 0 < c <= 2")
    bad = ~np.isfinite(x)
    if bad.any():
        raise DomainError(f"hyp2f1_1c: x = {x[bad][0]} is NaN or infinite")
    on_cut = (x.imag == 0.0) & (x.real >= 1.0)
    if on_cut.any():
        raise DomainError(f"hyp2f1_1c: x = {x[on_cut][0]} lies on the "
                          "branch cut [1, inf)")
    shape, x = x.shape, x.ravel()
    out = np.empty(x.shape, dtype=complex)
    if not x.size:
        return out.reshape(shape)
    tables = _f1c_tables(c)
    r = np.abs(x)
    u = 1.0 - x
    ru = np.abs(u)
    power = r <= _POWER_RADIUS
    inverse = ~power & (r >= _INVERSE_RADIUS)
    pfaff = ~(power | inverse) & (r <= _PFAFF_RADIUS * ru)
    rest = ~(power | inverse | pfaff)
    # the log series and the ray continuation split what is left
    x_rest, r_rest = x[rest], r[rest]
    direction = x_rest / r_rest
    pole_gap = np.abs(1.0 - np.minimum(np.maximum(direction.real,
                                                  _POWER_RADIUS), r_rest)
                      * direction)
    near = ((ru[rest] <= _LOG_RADIUS)
            | (r_rest - _POWER_RADIUS > 2.0 * _MAX_PANELS * pole_gap))
    far = ~near
    log, ray = rest.copy(), rest.copy()
    log[rest] = near
    ray[rest] = far

    # 1/x through |x|, since numpy's 1/x overflows on the way for |x|
    # near the largest double
    r_inverse = r[inverse]
    y_power, y_inverse = x[power], np.conj(x[inverse] / r_inverse) / r_inverse
    y_pfaff, u_log = -x[pfaff] / u[pfaff], u[log]
    x1 = _POWER_RADIUS * direction[far]
    m_log = _terms_at_most(tables.log_a, u_log, 3.0)
    s_power, s_inverse, s_pfaff, s_log_a, s_log_b, s_x1 = _horner_many([
        (tables.power, _terms_at_most(tables.power, y_power), y_power),
        (tables.inverse, _terms_at_most(tables.inverse, y_inverse),
         y_inverse),
        (tables.pfaff, _terms_at_most(tables.pfaff, y_pfaff), y_pfaff),
        (tables.log_a, m_log, u_log), (tables.log_b, m_log, u_log),
        (tables.power, len(tables.power) if x1.size else 0, x1)])
    out[power] = s_power
    out[inverse] = _f1c_inverse(c, x[inverse], y_inverse, s_inverse)
    out[pfaff] = s_pfaff / u[pfaff]
    out[log] = c * (s_log_a - np.log(u_log) * s_log_b)
    out[ray] = _f1c_ray_array(c, r_rest[far], direction[far], pole_gap[far],
                              s_x1)
    out = out.reshape(shape)
    return out.item() if number else out


def _series_applicable(p, x, y):
    if _is_nonpositive_int(p.alpha):
        return True
    ok_x = abs(x) < 1.0 or _is_nonpositive_int(p.beta1)
    ok_y = abs(y) < 1.0 or _is_nonpositive_int(p.beta2)
    return ok_x and ok_y


def appell_f1_series(p, x, y):
    """Double series for F1, summed along anti-diagonals k + l = m.

    Stops when three consecutive anti-diagonal sums fall below
    SERIES_TERM_TOL.
    Terminating parameter cases (alpha or a beta a non-positive integer)
    truncate exactly and are valid outside the unit bi-disk.
    """
    x = complex(x)
    y = complex(y)
    if not _series_applicable(p, x, y):
        raise DomainError(
            "F1 series requires |x| < 1 and |y| < 1 for non-terminating "
            "parameters")

    # b1x[k] = (beta1)_k x^k / k!, extended one entry per anti-diagonal.
    b1x = [1.0 + 0j]
    b2y = [1.0 + 0j]
    ratio_ag = 1.0 + 0j  # (alpha)_m / (gamma)_m
    total = 1.0 + 0j
    small = 0
    for m in range(1, SERIES_MAX_ORDER + 1):
        b1x.append(b1x[-1] * (p.beta1 + m - 1) * x / m)
        b2y.append(b2y[-1] * (p.beta2 + m - 1) * y / m)
        ratio_ag *= (p.alpha + m - 1) / (p.gamma + m - 1)
        if ratio_ag == 0:
            return total  # alpha terminated the series
        diag = 0j
        for k in range(m + 1):
            diag += b1x[k] * b2y[m - k]
        term = ratio_ag * diag
        total += term
        if abs(term) < SERIES_TERM_TOL * (1.0 + abs(total)):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"F1 series did not converge within {SERIES_MAX_ORDER} terms")


def _integral_applicable(p, x, y):
    if not (p.gamma > p.alpha > 0):
        return False
    for w in (x, y):
        if w.imag == 0 and w.real >= 1.0:
            return False
    return True


def appell_f1_integral(p, x, y):
    """Euler-type integral for F1:

        Gamma(g)/(Gamma(a) Gamma(g-a)) *
        int_0^1 t^(a-1) (1-t)^(g-a-1) (1-x t)^(-b1) (1-y t)^(-b2) dt

    valid for gamma > alpha > 0.  Endpoint singularities with exponent
    below 1 are removed by the power substitutions t = (s^(1/a))/2 and
    1 - t = (s^(1/(g-a)))/2 on the two halves.
    """
    x = complex(x)
    y = complex(y)
    if not (p.gamma > p.alpha > 0):
        raise DomainError("Euler integral requires gamma > alpha > 0")
    if not _integral_applicable(p, x, y):
        raise DomainError("1 - x*t or 1 - y*t vanishes on [0, 1]")

    a, d = p.alpha, p.gamma - p.alpha

    def regular(t):
        return (np.power(1.0 - x * t, -p.beta1)
                * np.power(1.0 - y * t, -p.beta2))

    def half_integral(exponent, smooth):
        # int_0^(1/2) t^exponent * smooth(t) dt with t = (s^m)/2.  The
        # integer m is picked so the transformed power m*(exponent+1)-1
        # is at least 1, keeping the integrand C^1 at s = 0 even when
        # the original exponent is fractional.
        m = max(1, math.ceil(2.0 / (exponent + 1.0)))
        scale = 0.5 ** (exponent + 1.0) * m
        q = m * (exponent + 1.0) - 1.0

        def transformed(s):
            t = 0.5 * np.power(s, m)
            return scale * np.power(s, q) * smooth(t)

        return fallback.adaptive_segment(
            transformed, 0.0, 1.0, DEFAULT_QUADRATURE.abs_tol,
            DEFAULT_QUADRATURE.rel_tol, DEFAULT_QUADRATURE.max_subdivisions)

    il = half_integral(a - 1.0,
                       lambda t: np.power(1.0 - t, d - 1.0) * regular(t))
    ir = half_integral(d - 1.0,
                       lambda u: np.power(1.0 - u, a - 1.0)
                       * regular(1.0 - u))
    pref = math.gamma(p.gamma) / (math.gamma(a) * math.gamma(d))
    return pref * (il + ir)


def appell_f1(p, x, y):
    """Evaluate F1 by whichever representation covers (x, y).

    Terminating and contractive (|x|, |y| < 0.95) cases use the series;
    otherwise the Euler integral.  Raises UnsupportedDomainError when
    neither applies -- never extrapolates.
    """
    x = complex(x)
    y = complex(y)
    if _is_nonpositive_int(p.alpha) or (
            _is_nonpositive_int(p.beta1) and _is_nonpositive_int(p.beta2)):
        return appell_f1_series(p, x, y)
    if max(abs(x), abs(y)) < SERIES_RADIUS and _series_applicable(p, x, y):
        return appell_f1_series(p, x, y)
    if _integral_applicable(p, x, y):
        return appell_f1_integral(p, x, y)
    if _series_applicable(p, x, y):
        return appell_f1_series(p, x, y)
    raise UnsupportedDomainError(
        f"F1{(p.alpha, p.beta1, p.beta2, p.gamma)} at ({x}, {y}) is outside "
        "both the series and the Euler-integral domains")
