"""Closed-form evaluators for the cataloged harmonic mapping families.

Each family is the shear of a prevertex map phi (identity or generalized
Koebe k_c) by a dilatation omega (z*(z+a)/(1+a*z) or z^n).  The closed
forms store the analytic parts: either h directly or the analytic sum
P = h + g with h = (P + phi)/2, g = (P - phi)/2 recovered from the
prevertex relation h - g = phi.

Families:

* F_a    -- phi = z,   omega = z(z+a)/(1+az)
* F_0a   -- phi = k_0, same omega (strip images)
* F_1a   -- phi = k_1, same omega (half-plane shear)
* F_ca   -- phi = k_c, same omega, c in [0, 2]
* f_0n   -- phi = k_0, omega = z^n (strip images)
* f_1n   -- phi = k_1, omega = z^n (wave planes)
* f_2n   -- phi = k_2, omega = z^n (slit planes)
* f_cn   -- phi = k_c, omega = z^n, through one Gauss 2F1(1, c; c+1; x)
           per n-th root of unity (the paper writes h with Appell F1,
           which special.appell_f1 keeps as the reference form)
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .analytic import require_disk_point, require_disk_points
from .errors import ConvergenceError, UnsupportedParameterError
from .shear import DilatationSpec, MapSample, PrevertexSpec
from .special import _powm1_over, hyp2f1_1c
# Bound here only so that perfbench/spans.py can wrap families.appell_f1
# and families.shear_at; no closed form calls them.
from .special import appell_f1  # noqa: F401
from .shear import shear_at  # noqa: F401

FAMILY_NAMES = ("F_a", "F_0a", "F_1a", "F_ca", "f_0n", "f_1n", "f_2n", "f_cn")

_MOBIUS_FAMILIES = {"F_a", "F_0a", "F_1a", "F_ca"}
_POWER_FAMILIES = {"f_0n", "f_1n", "f_2n", "f_cn"}
# the families whose maps depend on each parameter of FamilyParams
PARAMETER_FAMILIES = {"c": {"F_ca", "f_cn"}, "a": _MOBIUS_FAMILIES,
                      "n": _POWER_FAMILIES}


@dataclass(frozen=True)
class FamilyParams:
    family: str
    c: float = 0.0
    a: float = 0.0
    n: int = 1

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise UnsupportedParameterError(f"unknown family {self.family!r}")
        if self.family in _MOBIUS_FAMILIES and not -1.0 <= self.a <= 1.0:
            raise UnsupportedParameterError("a must lie in [-1, 1]")
        if self.family in _POWER_FAMILIES and (self.n < 1
                                               or self.n != int(self.n)):
            raise UnsupportedParameterError("n must be a positive integer")
        if (self.family in PARAMETER_FAMILIES["c"]
                and not 0.0 <= self.c <= 2.0):
            raise UnsupportedParameterError("c must lie in [0, 2]")


@lru_cache(maxsize=64)
def family_phi(params):
    """PrevertexSpec of the family (phi = z or k_c), built once per
    parameter set."""
    f = params.family
    if f == "F_a":
        return PrevertexSpec.identity()
    c = {"F_0a": 0.0, "F_1a": 1.0, "f_0n": 0.0, "f_1n": 1.0, "f_2n": 2.0}
    return PrevertexSpec.koebe(c.get(f, params.c))


@lru_cache(maxsize=64)
def family_omega(params):
    """DilatationSpec of the family (Mobius-type or z^n), built once per
    parameter set: the Mobius spec checks |omega| < 1 on a 48-point
    lattice when it is built."""
    if params.family in _MOBIUS_FAMILIES:
        return DilatationSpec.mobius(params.a)
    return DilatationSpec.power(params.n)


def hprime(params, z):
    """Closed-form h'(z) = phi'(z)/(1 - omega(z)) of the family at a disk
    point."""
    z = require_disk_point(z, r_max=1.0)
    phi = family_phi(params)
    omega = family_omega(params)
    return complex(phi.derivative(z)) / (1.0 - complex(omega(z)))


def gprime(params, z):
    """Closed-form g'(z) = omega(z) * h'(z) of the family at a disk
    point."""
    hp = hprime(params, z)
    return complex(family_omega(params)(complex(z))) * hp


def derivatives_array(params, z):
    """h' and g' of the family at an array of disk points, as complex
    ndarrays of z's shape: the formulas of hprime and gprime, run once
    through numpy."""
    z = require_disk_points(z, r_max=1.0)
    omega = family_omega(params)(z)
    hp = family_phi(params).derivative(z) / (1.0 - omega)
    return hp, omega * hp


# --- closed forms ----------------------------------------------------------
#
# Each closed form is written once with numpy, whose functions take a
# number (evaluate) or an array (evaluate_array) alike.  A form takes the
# family parameters p, the point z and the prevertex value phi at z, and
# returns (h, g); _FORMS below registers them by family name.
#
# The four power-dilatation forms take lift=True from the lifts in surface
# (even n) and then return (h, g, F3), with
#
#     F3 = 2 Im T,   T(z) = int_0^z h'(s) q(s) ds,
#
# and the principal root q = +z^(n/2) (the mirrored surface has -F3).  T
# sums the same root terms as h with weights e_k^(n/2) = (-1)^k, so each
# logarithm is taken once for both.  The forms of T were checked
# against the quadrature lift; the partial-fraction derivation forces the
# f_1n log(1 - z) coefficient (n^2+2)/12 and the numerator 2z^2 - 3z + 3
# of the slit surface (f_2n, n = 2).


def _from_sum(p, phi):
    # h + g = P and h - g = phi pin both analytic parts.
    return 0.5 * (p + phi), 0.5 * (p - phi)


def _F_a(p, z, phi):
    a = float(p.a)
    return _from_sum(-z + (1.0 - a) * np.log(1.0 + z)
                     - (1.0 + a) * np.log(1.0 - z), phi)


def _F_0a(p, z, phi):
    a = float(p.a)
    return _from_sum(0.5 * (1.0 + a) * z / (1.0 - z)
                     + 0.5 * (1.0 - a) * z / (1.0 + z), phi)


def _F_1a(p, z, phi):
    a = float(p.a)
    return _from_sum(0.25 * (1.0 - a) * np.log((1.0 + z) / (1.0 - z))
                     + 0.5 * (1.0 + a) * z / (1.0 - z) ** 2, phi)


def _F_ca(p, z, phi):
    # the w-plane form with (w^p - 1)/p terms, so that nothing cancels as
    # c nears 0 or 1
    c, a = float(p.c), float(p.a)
    log_w = np.log((1.0 + z) / (1.0 - z))
    h = 0.125 * ((a + 1.0) * _powm1_over(c + 1.0, log_w)
                 + 2.0 * _powm1_over(c, log_w)
                 - (a - 1.0) * _powm1_over(c - 1.0, log_w))
    return h, h - phi


def _pole_angles(n):
    """Simple-pole angle indices k with theta_k = 2*k*pi/n: the odd case
    pairs all non-real n-th roots of unity, the even case additionally
    drops z = -1 (k = n/2), which is handled by a dedicated term or is
    removable."""
    if n % 2 == 1:
        return range(1, (n - 1) // 2 + 1)
    return range(1, n // 2)


def _f_0n(p, z, phi, lift=False):
    n = int(p.n)
    if n % 2 == 1:
        s = z / (1.0 - z)
    else:
        s = 2.0 * z / (1.0 - z * z)
    if lift:
        t = z / (1.0 - z) + (-1.0) ** (n // 2) * z / (1.0 + z)
    for k in _pole_angles(n):
        th = 2.0 * math.pi * k / n
        log_k = np.log((1.0 - z * cmath.exp(-1j * th))
                       / (1.0 - z * cmath.exp(1j * th)))
        s -= (1j / math.sin(th)) * log_k
        if lift:
            t -= (1j * (-1.0) ** k / math.sin(th)) * log_k
    s /= n
    h, g = _from_sum(s, phi)
    return (h, g, (t / n).imag) if lift else (h, g)


def _f_1n(p, z, phi, lift=False):
    n = int(p.n)
    log_1mz = np.log(1.0 - z)
    h = ((n - 1.0) / (2.0 * n) * z / (1.0 - z)
         + z * (2.0 - z) / (2.0 * n * (1.0 - z) ** 2)
         - (n * n - 1.0) / (12.0 * n) * log_1mz)
    if n % 2 == 0:
        log_1pz = np.log(1.0 + z)
        h += log_1pz / (4.0 * n)
    if lift:
        t = (-z / (1.0 - z) + z * (2.0 - z) / (1.0 - z) ** 2
             + (n * n + 2.0) / 12.0 * log_1mz
             + (-1.0) ** (n // 2) / 2.0 * log_1pz)
    for k in _pole_angles(n):
        th = math.pi * k / n
        log_k = np.log(1.0 - 2.0 * z * math.cos(2.0 * th) + z * z)
        h += log_k / (4.0 * n * math.sin(th) ** 2)
        if lift:
            t += 0.5 * (-1.0) ** k / math.sin(th) ** 2 * log_k
    return (h, h - phi, (t / n).imag) if lift else (h, h - phi)


def _f_2n(p, z, phi, lift=False):
    n = int(p.n)
    h = ((n - 1.0) * (n - 2.0) / (6.0 * n) * z / (1.0 - z)
         + (n - 2.0) / (2.0 * n) * z * (2.0 - z) / (1.0 - z) ** 2
         + 2.0 * z * (z * z - 3.0 * z + 3.0) / (3.0 * n * (1.0 - z) ** 3))
    if lift:
        t = ((4.0 - n * n) / (6.0 * n) * z / (1.0 - z)
             - 2.0 / n * z * (2.0 - z) / (1.0 - z) ** 2
             + 4.0 * z * (z * z - 3.0 * z + 3.0) / (3.0 * n * (1.0 - z) ** 3))
    for k in _pole_angles(n):
        th = math.pi * k / n
        log_k = np.log((1.0 - z * cmath.exp(-2j * th))
                       / (1.0 - z * cmath.exp(2j * th)))
        h += 1j / (4.0 * n) * math.cos(th) / math.sin(th) ** 3 * log_k
        if lift:
            t += (1j / (2.0 * n) * (-1.0) ** k
                  * math.cos(th) / math.sin(th) ** 3 * log_k)
    return (h, h - phi, t.imag) if lift else (h, h - phi)


# Bound here only so that perfbench/spans.py can wrap
# families._oracle_sample; no closed form calls it.
def _oracle_sample(params, z):
    try:
        sample = shear_at(family_phi(params), family_omega(params), z)
    except ConvergenceError as exc:
        raise ConvergenceError(f"shear quadrature at z={z}: {exc}") from exc
    return MapSample.from_hg(sample.z, sample.h, sample.g, fallback=True)


# --- partial fraction coefficients of h' ----------------------------------

@dataclass(frozen=True)
class PartialFractionCoeffs:
    """Partial-fraction data of h' for the f_1n / f_2n families.

    ``scalars`` holds the exact rational coefficients of the poles at
    z = 1 (and z = -1 where present); ``pole_coeffs`` holds the complex
    conjugate pairs at the remaining n-th roots of unity, keyed by the
    angle index k (theta_k = 2*k*pi/n).
    """

    family: str
    n: int
    scalars: tuple  # ((name, Fraction), ...)
    pole_coeffs: tuple  # ((k, coeff_at_exp(-i theta), conjugate), ...)

    def scalar(self, name):
        return dict(self.scalars)[name]

    def target(self, z):
        """The rational function the decomposition must reproduce."""
        z = complex(z)
        if self.family == "f_1n":
            return 1.0 / ((1.0 - z) ** 2 * (1.0 - z ** self.n))
        return (1.0 + z) / ((1.0 - z) ** 3 * (1.0 - z ** self.n))

    def reconstruct(self, z):
        """Evaluate the partial-fraction sum at z."""
        z = complex(z)
        names = dict(self.scalars)
        total = 0j
        for name, p in (("kappa1", 1), ("kappa2", 2), ("kappa3", 3),
                        ("lambda1", 1), ("lambda2", 2), ("lambda3", 3)):
            if name in names:
                total += float(names[name]) / (1.0 - z) ** p
        if "lambda4" in names:
            if self.family == "f_1n":
                total += float(names["lambda4"]) / (1.0 + z)
            else:
                total += float(names["lambda4"]) / (1.0 - z) ** 4
        for k, alpha, beta in self.pole_coeffs:
            t = 2.0 * math.pi * k / self.n
            total += alpha / (1.0 - z * cmath.exp(-1j * t))
            total += beta / (1.0 - z * cmath.exp(1j * t))
        return total


def coeffs_f1n(n):
    """Residue coefficients of h'_{1,n} = 1/((1-z)^2 (1-z^n))."""
    FamilyParams(family="f_1n", n=n)
    n = int(n)
    base = (("1", Fraction(n * n - 1, 12 * n)),
            ("2", Fraction(n - 1, 2 * n)),
            ("3", Fraction(1, n)))
    if n % 2 == 1:
        scalars = tuple((f"kappa{i}", v) for (i, v) in base)
    else:
        scalars = tuple((f"lambda{i}", v) for (i, v) in base)
        scalars += (("lambda4", Fraction(1, 4 * n)),)
    poles = []
    for k in _pole_angles(n):
        e = cmath.exp(2j * math.pi * k / n)
        alpha = 1.0 / (n * (1.0 - e) ** 2)
        poles.append((k, alpha, alpha.conjugate()))
    return PartialFractionCoeffs(family="f_1n", n=n, scalars=scalars,
                                 pole_coeffs=tuple(poles))


def coeffs_f2n(n):
    """Residue coefficients of h'_{2,n} = (1+z)/((1-z)^3 (1-z^n))."""
    FamilyParams(family="f_2n", n=n)
    n = int(n)
    scalars = (("lambda1", Fraction(0)),
               ("lambda2", Fraction((n - 1) * (n - 2), 6 * n)),
               ("lambda3", Fraction(n - 2, n)),
               ("lambda4", Fraction(2, n)))
    poles = []
    for k in _pole_angles(n):
        e = cmath.exp(2j * math.pi * k / n)
        a_k = (1.0 + e) / (n * (1.0 - e) ** 3)
        poles.append((k, a_k, a_k.conjugate()))
    return PartialFractionCoeffs(family="f_2n", n=n, scalars=scalars,
                                 pole_coeffs=tuple(poles))


# --- f_cn through one Gauss 2F1 per root of unity ------------------------
#
# With w = (1+z)/(1-z), k_c'(z) dz = w^(c-1) dw / 2, and with
# conj(e_k) = exp(-2 pi i k/n),
#
#     1/(1 - z^n) = (1/n) sum_k 1/(1 - z conj(e_k))
#                 = (1/n) sum_k (w+1) / ((1 - conj(e_k)) w + 1 + conj(e_k)),
#
# so h = (1/2n) sum_k I_k(w) with I_k(w) = int_1^w t^(c-1) (t+1) /
# ((1 - conj(e_k)) t + 1 + conj(e_k)) dt.  The lift integral
# T = int_0^z h'(s) s^(n/2) ds carries the weights e_k^(n/2) = (-1)^k on
# the same terms, because z^m/(1 - z^n) = (1/n) sum_k e_k^m/(1 - z conj(e_k))
# for 0 <= m < n.  I_k is elementary for e_k = 1 and e_k = -1; otherwise,
# with beta_k = (1 + conj(e_k))/(1 - conj(e_k)),
#
#     I_k(w) = ((w^c - 1)/c + (1 - beta_k) (J_k(w) - J_k(1))) / (1 - conj(e_k)),
#     J_k(t) = int_0^t s^(c-1)/(s + beta_k) ds
#            = t^c/(c beta_k) 2F1(1, c; c+1; -t/beta_k).
#
# beta_k is imaginary and w lies in the right half-plane, so -w/beta_k
# never meets the cut [1, inf) of 2F1.
#
# The 1/c of J_k costs about eps/c of accuracy as c -> 0.  Below
# _SMALL_C the identity F(x) = 1 + c x/(c+1) G(x), G = 2F1(1, c+1; c+2; x)
# (the series of DLMF 15.2.1 term by term), cancels it: with
# x_w = -w/beta_k and x_1 = -1/beta_k,
#
#     I_k(w) = ((w^c - 1)/c + (1 - beta_k)/beta_k D_k) / (1 - conj(e_k)),
#     D_k = (w^c - 1)/c + (w^c x_w G(x_w) - x_1 G(x_1))/(c+1).
#
# The form above stays in use from _SMALL_C up: there, and near c = 1, it
# is already accurate to a few units of roundoff.

_SMALL_C = 0.25


@dataclass(frozen=True)
class _FcnRoot:
    """One root e_k other than +-1: I_k(w) = scale (w^c - 1)/c
    + weight (w^c F(x_w) - F(x_1)) from _SMALL_C up, and
    I_k(w) = scale (w^c - 1)/c + weight D_k below it."""

    sign: float  # e_k^(n/2) = (-1)^k, the weight of I_k in T
    scale: complex  # 1/(1 - conj(e_k))
    weight: complex  # scale (1 - beta_k)/beta_k, over c from _SMALL_C up
    neg_inv_beta: complex  # x_1 = -1/beta_k
    at_one: complex  # F(x_1), or x_1 G(x_1)/(c+1) below _SMALL_C


@lru_cache(maxsize=64)
def _fcn_roots(c, n):
    """Constants of the roots other than +-1, once per (c, n)."""
    roots = []
    for k in range(1, n):
        if 2 * k == n:
            continue
        ebar = cmath.exp(-2j * math.pi * k / n)
        beta = (1.0 + ebar) / (1.0 - ebar)
        scale = 1.0 / (1.0 - ebar)
        x_1 = -1.0 / beta
        if c < _SMALL_C:
            weight = scale * (1.0 - beta) / beta
            at_one = x_1 * hyp2f1_1c(c + 1.0, x_1) / (c + 1.0)
        else:
            weight = scale * (1.0 - beta) / (c * beta)
            at_one = hyp2f1_1c(c, x_1)
        roots.append(_FcnRoot(sign=(-1.0) ** k, scale=scale, weight=weight,
                              neg_inv_beta=x_1, at_one=at_one))
    return tuple(roots)


def fcn_h_and_lift(c, n, z):
    """h(z) of f_cn and T(z) = int_0^z h'(s) s^(n/2) ds, for c in (0, 2)
    other than 1 (T is None for odd n): Python complex values at a disk
    point z, complex ndarrays of z's shape at an array of disk points.
    The minimal-surface height is F3 = 2 Im T."""
    return _fcn_sums(c, n, z, n % 2 == 0)


def _fcn_sums(c, n, z, lift):
    """h of f_cn, and T when lift (even n) or else None.  The roots
    e_k = +-1 give elementary terms; the others go through one hyp2f1_1c
    call over (roots, points)."""
    number = np.isscalar(z)
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    w = (1.0 + z) / (1.0 - z)
    log_w = np.log(w)
    wc = np.exp(c * log_w)
    base = _powm1_over(c, log_w)
    # e_k = 1
    h = t = 0.5 * (_powm1_over(c + 1.0, log_w) + base)
    if n % 2 == 0:
        # e_k = -1, k = n/2
        i_k = 0.5 * (base + _powm1_over(c - 1.0, log_w))
        h = h + i_k
        if lift:
            t = t + (-1.0) ** (n // 2) * i_k
    roots = _fcn_roots(c, n)
    if roots:
        # the constants of each root as a column, one row per root
        scale, weight, neg_inv_beta, at_one = np.array(
            [(r.scale, r.weight, r.neg_inv_beta, r.at_one)
             for r in roots]).T[..., None]
        x_w = w * neg_inv_beta
        if c < _SMALL_C:
            d = base + (wc * x_w * hyp2f1_1c(c + 1.0, x_w) / (c + 1.0)
                        - at_one)
        else:
            d = wc * hyp2f1_1c(c, x_w) - at_one
        for root, i_k in zip(roots, scale * base + weight * d):
            h = h + i_k
            if lift:
                t = t + root.sign * i_k
    scale = 0.5 / n
    h = (scale * h).reshape(shape)
    t = (scale * t).reshape(shape) if lift else None
    if number:
        return h.item(), None if t is None else t.item()
    return h, t


def _f_cn(p, z, phi, lift=False):
    h, t = _fcn_sums(float(p.c), int(p.n), z, lift)
    return (h, h - phi, 2.0 * t.imag) if lift else (h, h - phi)


_FORMS = {"F_a": _F_a, "F_0a": _F_0a, "F_1a": _F_1a, "F_ca": _F_ca,
          "f_0n": _f_0n, "f_1n": _f_1n, "f_2n": _f_2n, "f_cn": _f_cn}

_DELEGATES = {("F_ca", 0.0): "F_0a", ("F_ca", 1.0): "F_1a",
              ("f_cn", 0.0): "f_0n", ("f_cn", 1.0): "f_1n",
              ("f_cn", 2.0): "f_2n"}


def resolve_family(params):
    """The parameters whose closed form evaluates params: F_ca at c = 0
    and 1 is F_0a and F_1a, f_cn at c = 0, 1 and 2 is f_0n, f_1n and
    f_2n.  Every other c in [0, 2] takes the general form, which stays
    accurate as c nears these values."""
    family = _DELEGATES.get((params.family, params.c))
    if family is None:
        return params
    return FamilyParams(family=family, a=params.a, n=params.n)


def evaluate(params, z):
    """The family's closed form at a disk point, as a MapSample."""
    params = resolve_family(params)
    z = require_disk_point(z, r_max=1.0)
    h, g = _FORMS[params.family](params, z, family_phi(params).phi(z))
    return MapSample.from_hg(z, h, g)


def evaluate_array(params, z):
    """h and g of the family at an array of disk points, as complex
    ndarrays of z's shape: the closed form runs once on the whole array
    with numpy (for f_cn, one hyp2f1_1c call routes every root term of
    every point by mask)."""
    z = require_disk_points(z, r_max=1.0)
    params = resolve_family(params)
    return _FORMS[params.family](params, z, family_phi(params).phi(z))


# --- shorthands: evaluate of one family ------------------------------------

def eval_F_a(a, z):
    """Shear of the identity map."""
    return evaluate(FamilyParams("F_a", a=a), z)


def eval_F_0a(a, z):
    """Shear of the strip map k_0; image lies in |v| < pi/4."""
    return evaluate(FamilyParams("F_0a", a=a), z)


def eval_F_1a(a, z):
    """Shear of the half-plane map k_1."""
    return evaluate(FamilyParams("F_1a", a=a), z)


def eval_F_ca(c, a, z):
    """Shear of k_c by the Mobius-type dilatation."""
    return evaluate(FamilyParams("F_ca", c=c, a=a), z)


def eval_f0n(n, z):
    """Strip family: shear of k_0 by z^n."""
    return evaluate(FamilyParams("f_0n", n=n), z)


def eval_f1n(n, z):
    """Wave-plane family: shear of k_1 by z^n."""
    return evaluate(FamilyParams("f_1n", n=n), z)


def eval_f2n(n, z):
    """Slit family: shear of k_2 by z^n (n = 1 is the harmonic Koebe
    function)."""
    return evaluate(FamilyParams("f_2n", n=n), z)


def eval_fcn(c, n, z):
    """General family: shear of k_c by z^n, through the 2F1 reduction
    above (the paper writes the same h with Appell F1)."""
    return evaluate(FamilyParams("f_cn", c=c, n=n), z)
