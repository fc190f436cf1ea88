"""Pochhammer symbols, Gauss 2F1 and the two-variable Appell F1.

``hyp2f1_1c`` evaluates 2F1(1, c; c+1; x) for 0 < c <= 3 on the whole cut
plane, for a number or an array of any shape by the same code: each route
is a mask over the points and every series is summed in one Horner pass.
The f_cn family and its lift are built from it, at c + 1 for the family's
c in (0, 2).  F1 is the paper's form of the same family and is kept as a
reference.  F1 carries two independent representations:

* a double power series summed along anti-diagonals (|x| < 1, |y| < 1, or
  terminating parameter cases), and
* a one-dimensional Euler-type integral (Re gamma > Re alpha > 0),

plus a dispatcher that picks whichever applies and refuses to extrapolate
outside both domains.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import clog, integrate_segment
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
# The rest of the cut plane lies in 1/2 < |x| < 5/3, outside the Pfaff and
# log discs.  Taylor series about these centres x0 and their conjugates
# cover it: a centre serves the points within _TAYLOR_RATIO of its radius
# min(|x0|, |1 - x0|), on its own side of the real axis.  Beyond |x0| the
# coefficient recurrence would grow the solution x^-c, singular at 0, out
# of rounding, and a disc across (1, inf) holds the other branch on its
# far side.  Each centre lies in one of the series routes above.
_TAYLOR_CENTRES = np.array([0.48 + 1.6j, -1.4 + 1.02j, 1.5 + 0.74j,
                            0.68 + 0.38j, 0.19 + 0.51j, 1.48 + 0.02j,
                            0.86 + 0.47j, -0.74 + 0.92j, 0.36 + 0.02j, -2.3])
_TAYLOR_RADII = np.minimum(np.abs(_TAYLOR_CENTRES),
                           np.abs(1.0 - _TAYLOR_CENTRES))
_TAYLOR_RATIO = 0.6


def _terms(r, growth=0.0, degree=1.0):
    """Number of terms m after which r^m (or growth * m^degree * r^m, for
    coefficients that grow like m^degree) is below the summation tail."""
    if r <= _TAIL:
        return 1
    m = int(math.log(_TAIL) / math.log(r)) + 2
    if growth:
        m += int(math.log(growth * m ** degree) / -math.log(r)) + 1
    return m


# numbers of one block of repeated coefficients in _horner_many (64 kB, so
# that a block stays in cache while the loop reads it and adds little to
# the peak memory)
_HORNER_BLOCK = 2 ** 12


def _horner(coeffs, y, acc=0.0):
    """The polynomial with coeffs, highest order first, at y: the one
    Horner loop of the package.  A Python complex y stays in Python
    arithmetic; on an ndarray the sum accumulates in place.  acc carries
    the sum of the higher-order coefficients, when they came before."""
    for a in coeffs:
        acc *= y
        acc += a
    return acc


def _horner_many(series):
    """The sums sum_{k<m} coeffs[k] y^k of several series (coeffs, m, y),
    with coeffs a complex ndarray and y a complex ndarray, in one _horner
    pass over all their points: the series are stacked in one table,
    zero-padded to the longest, and each coefficient is repeated over its
    series' points, as many terms at a time as fit in _HORNER_BLOCK
    numbers (all of them on a small batch, in one numpy call); _horner
    runs on each block in turn.  Returns one view of the sums per series.
    A value can move in the last bit with the batch it is in, since numpy
    may round an in-place complex multiply differently with the length of
    the arrays."""
    sizes = [y.size for _, _, y in series]
    table = np.zeros((len(series), max(m for _, m, _ in series)),
                     dtype=complex)
    for row, (coeffs, m, _) in zip(table, series):
        row[:m] = coeffs[:m]
    y = np.concatenate([y for _, _, y in series])
    columns = table.T[::-1]
    step = max(1, _HORNER_BLOCK // max(1, y.size))
    counts = np.array(sizes)
    acc = 0.0
    for j in range(0, len(columns), step):
        acc = _horner(columns[j:j + step].repeat(counts, axis=1), y, acc)
    bounds = np.cumsum([0] + sizes).tolist()
    return [acc[a:b] for a, b in zip(bounds, bounds[1:])]


def _terms_at_most(coeffs, y, growth=0.0, degree=1.0):
    """The terms of coeffs that _terms asks for at the largest |y|."""
    if not y.size:
        return 0
    return min(len(coeffs), _terms(float(np.abs(y).max()), growth, degree))


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


def _powm1_over(p, log_w):
    """(w^p - 1)/p from log w (a number or an array), without
    cancellation for small p log w.  Below |p| = 1e-20 it is log w to
    double precision, and p log w could lose its digits to underflow."""
    if abs(p) < 1e-20:
        return log_w
    return np.expm1(p * log_w) / p


def _log_sinc_pi(eps):
    """log(sin(pi*eps) / (pi*eps)), accurate relative to its size."""
    y2 = (math.pi * eps) ** 2
    if abs(eps) >= 0.02:
        return math.log(math.sin(math.pi * eps) / (math.pi * eps))
    return -y2 * (1.0 / 6 + y2 * (1.0 / 180 + y2 * (
        1.0 / 2835 + y2 * (1.0 / 37800 + y2 / 467775.0))))


@dataclass(frozen=True)
class _F1cTables:
    """Series coefficients of hyp2f1_1c for one c, lowest order first, as
    read-only complex ndarrays, the type of _horner_many's table."""

    power: np.ndarray  # c/(c+m)
    inverse: np.ndarray  # c/(j-c) for j >= 1, 0 at j = round(c)
    pfaff: np.ndarray  # k!/(c+1)_k
    log_b: np.ndarray  # (c)_k/k!
    log_a: np.ndarray  # (c)_k/k! (psi(k+1) - psi(c+k))


def _constant(values):
    """values as a read-only complex ndarray."""
    out = np.array(values, dtype=complex)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _f1c_tables(c):
    """The _F1cTables of c, built once per c: each coefficient in float
    arithmetic, then the tables as complex ndarrays."""
    near = round(c)
    m = _terms(_PFAFF_RADIUS)
    pfaff = [1.0]
    for k in range(m - 1):
        pfaff.append(pfaff[-1] * (k + 1.0) / (c + 1.0 + k))
    log_b, log_a = [], []
    coeff = 1.0
    gap = -_EULER_GAMMA - _digamma(c)
    # (c)_k/k! grows like k^(c-1), so like k up to c = 2
    for k in range(_terms(_LOG_RADIUS, 3.0, max(1.0, c - 1.0))):
        log_b.append(coeff)
        log_a.append(coeff * gap)
        gap += 1.0 / (k + 1.0) - 1.0 / (c + k)
        coeff *= (c + k) / (k + 1.0)
    return _F1cTables(
        power=_constant([c / (c + k) for k in range(_terms(_POWER_RADIUS))]),
        inverse=_constant([0.0 if j == near else c / (j - c) for j in
                           range(1, _terms(1.0 / _INVERSE_RADIUS) + 1)]),
        pfaff=_constant(pfaff), log_b=_constant(log_b),
        log_a=_constant(log_a))


def _f1c_inverse(c, log_mx, y, series):
    """DLMF 15.8.2 for |x| > 1:

        pi c (-x)^-c / sin(pi c) + sum_{j>=1} c x^-j / (j - c),

    with the j = N term (N the nearest integer to c, if N >= 1) folded
    into the first one, since both grow like 1/(N - c) and cancel.  log_mx
    is log(-x), y is 1/x and series the sum of the inverse table in y, all
    ndarrays."""
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


@lru_cache(maxsize=64)
def _f1c_centres(c):
    """The series of hyp2f1_1c about each Taylor centre x0 in y = (x -
    x0)/R, R its radius, one row per centre: a_k R^k, lowest order first.
    a_0 = F(x0), a_1 = F'(x0) = c (1/(1 - x0) - F(x0))/x0, and the
    hypergeometric equation of F gives

        x0 (1-x0) (k+2) a_(k+2)
            = -((1 - 2 x0) k + c + 1 - (c+2) x0) a_(k+1) + (k + c) a_k."""
    x0, radius = _TAYLOR_CENTRES, _TAYLOR_RADII
    f0 = hyp2f1_1c(c, x0)
    rows = [f0, radius * c * (1.0 / (1.0 - x0) - f0) / x0]
    for k in range(_terms(_TAYLOR_RATIO) - 2):
        rows.append(radius * (
            radius * (k + c) * rows[-2]
            - ((1.0 - 2.0 * x0) * k + c + 1.0 - (c + 2.0) * x0) * rows[-1])
            / ((k + 2.0) * x0 * (1.0 - x0)))
    return np.array(rows).T


def _f1c_taylor(c, x):
    """The Taylor route at the points x.  Each point is mirrored to the
    upper half-plane (F(conj x) = conj F(x)) and takes the centre nearest
    to it relative to the centre's radius.  Returns the order that sorts
    the points by centre and, in that order, one series (coeffs, m, y) for
    each centre in use."""
    table = _f1c_centres(c)
    x = np.where(x.imag < 0.0, x.conj(), x)
    # argmin takes the lowest index on a tie
    centre = (np.abs(x[:, None] - _TAYLOR_CENTRES) / _TAYLOR_RADII).argmin(
        axis=1)
    order = np.argsort(centre, kind="stable")
    centre = centre[order]
    y = (x[order] - _TAYLOR_CENTRES[centre]) / _TAYLOR_RADII[centre]
    bounds = np.searchsorted(centre, range(len(table) + 1)).tolist()
    return order, [(row, _terms_at_most(row, y[a:b]), y[a:b])
                   for row, a, b in zip(table, bounds, bounds[1:]) if a < b]


def hyp2f1_1c(c, x):
    """Gauss 2F1(1, c; c+1; x) for 0 < c <= 3 and complex x off the cut
    [1, inf), principal branch: a Python complex for a number x, a
    complex ndarray of x's shape for an array.

    Equivalently c x^-c int_0^x s^(c-1)/(1-s) ds.  Each point takes the
    first route whose test its x meets:

    * |x| <= 1/2: the power series sum_m c/(c+m) x^m;
    * |x| >= 5/3: the 1/x connection formula (DLMF 15.8.2);
    * |x/(x-1)| <= 0.6: the Pfaff transform (DLMF 15.8.1);
    * |1-x| <= 1/2: the logarithmic series about x = 1 (DLMF 15.8.10,
      a + b = c + 1);
    * otherwise the Taylor series about the nearest of ten fixed centres
      on its side of the real axis, within 0.6 of the centre's distance
      to 0 or 1.

    Each route is a boolean mask over the points.  The series of all
    routes are summed in one Horner pass, each to the tail bound at the
    largest |argument| of its route, so a point's value can differ in the
    last bits between batches."""
    c = float(c)
    number = np.isscalar(x)
    x = np.asarray(x, dtype=complex)
    if not 0.0 < c <= 3.0:
        raise DomainError("hyp2f1_1c needs 0 < c <= 3")
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
    log = ~(power | inverse | pfaff) & (ru <= _LOG_RADIUS)
    taylor = ~(power | inverse | pfaff | log)
    # the centres take other routes, so the table call of _f1c_centres
    # ends here
    order, s_taylor = _f1c_taylor(c, x[taylor]) if taylor.any() else ((), [])

    # 1/x through |x|, since numpy's 1/x overflows on the way for |x|
    # near the largest double
    r_inverse = r[inverse]
    y_power, y_inverse = x[power], np.conj(x[inverse] / r_inverse) / r_inverse
    y_pfaff, u_log = -x[pfaff] / u[pfaff], u[log]
    m_log = _terms_at_most(tables.log_a, u_log, 3.0, max(1.0, c - 1.0))
    s_power, s_inverse, s_pfaff, s_log_a, s_log_b, *s_taylor = _horner_many([
        (tables.power, _terms_at_most(tables.power, y_power), y_power),
        (tables.inverse, _terms_at_most(tables.inverse, y_inverse),
         y_inverse),
        (tables.pfaff, _terms_at_most(tables.pfaff, y_pfaff), y_pfaff),
        (tables.log_a, m_log, u_log), (tables.log_b, m_log, u_log)]
        + s_taylor)
    out[power] = s_power
    # one clog call for the logarithms of both routes: on the few points
    # of a small batch its fixed cost outweighs its work
    if s_inverse.size or s_log_a.size:
        logs = clog(np.concatenate((-x[inverse], u_log)))
        out[inverse] = _f1c_inverse(c, logs[:s_inverse.size], y_inverse,
                                    s_inverse)
        out[log] = c * (s_log_a - logs[s_inverse.size:] * s_log_b)
    out[pfaff] = s_pfaff / u[pfaff]
    if taylor.any():
        f_taylor = np.empty(len(order), dtype=complex)
        f_taylor[order] = np.concatenate(s_taylor)
        lower = x[taylor].imag < 0.0
        f_taylor[lower] = f_taylor[lower].conj()
        out[taylor] = f_taylor
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

        return integrate_segment(transformed, 0.0, 1.0)

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
