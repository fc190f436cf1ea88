"""Closed-form evaluators for the cataloged harmonic mapping families.

Each family is the shear of a prevertex map phi (identity or generalized
Koebe k_c) by a dilatation omega (z*(z+a)/(1+a*z) or z^n).  The closed
forms store the analytic parts: either h directly or the analytic sum
P = h + g with h = (P + phi)/2, g = (P - phi)/2 recovered from the
prevertex relation h - g = phi.  Each form returns phi with h and g, and
the image takes v = Im phi from it (shear.coordinates).  Near z = 0 the
power families take one Taylor series instead.

Families:

* F_a    -- phi = z,   omega = z(z+a)/(1+az)
* F_0a   -- phi = k_0, same omega (strip images)
* F_1a   -- phi = k_1, same omega (half-plane shear)
* F_ca   -- phi = k_c, same omega, c in [0, 2]
* f_0n   -- phi = k_0, omega = z^n (strip images)
* f_1n   -- phi = k_1, omega = z^n (wave planes)
* f_2n   -- phi = k_2, omega = z^n (slit planes)
* f_cn   -- phi = k_c, omega = z^n, through one Gauss 2F1(1, c+1; c+2; x)
           per n-th root of unity (the paper writes h with Appell F1,
           which special.appell_f1 keeps as the reference form)
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .analytic import (clog, require_disk_point, require_disk_points,
                       unit_roots)
from .errors import ConvergenceError, UnsupportedParameterError
from .shear import DilatationSpec, MapSample, PrevertexSpec
from .special import _horner, _powm1_over, _terms, hyp2f1_1c
# Bound here only so that perfbench/spans.py can wrap families.appell_f1
# and families.shear_at; no closed form calls them.
from .special import appell_f1  # noqa: F401
from .shear import shear_at  # noqa: F401

FAMILY_NAMES = ("F_a", "F_0a", "F_1a", "F_ca", "f_0n", "f_1n", "f_2n", "f_cn")

_MOBIUS_FAMILIES = {"F_a", "F_0a", "F_1a", "F_ca"}
_POWER_FAMILIES = {"f_0n", "f_1n", "f_2n", "f_cn"}
# each family that is a general family at one fixed c: (general family, c)
_FIXED_C = {"F_0a": ("F_ca", 0.0), "F_1a": ("F_ca", 1.0),
            "f_0n": ("f_cn", 0.0), "f_1n": ("f_cn", 1.0),
            "f_2n": ("f_cn", 2.0)}
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
    if params.family == "F_a":
        return PrevertexSpec.identity()
    _, c = _FIXED_C.get(params.family, (params.family, params.c))
    return PrevertexSpec.koebe(c)


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
    plan = _plan(params)
    return complex(plan.derivative(z)) / (1.0 - complex(plan.omega(z)))


def gprime(params, z):
    """Closed-form g'(z) = omega(z) * h'(z) of the family at a disk
    point."""
    hp = hprime(params, z)
    return complex(_plan(params).omega(complex(z))) * hp


def derivatives_array(params, z):
    """h' and g' of the family at an array of disk points, as complex
    ndarrays of z's shape: the formulas of hprime and gprime, run once
    through numpy."""
    z = require_disk_points(z, r_max=1.0)
    plan = _plan(params)
    omega = plan.omega(z)
    hp = plan.derivative(z) / (1.0 - omega)
    return hp, omega * hp


# --- closed forms ----------------------------------------------------------
#
# Each closed form is written once with numpy, whose functions take a
# number (evaluate) or an array (evaluate_array) alike, and takes its
# logarithms from analytic.clog, which does the same.  A form takes the
# family parameters p, the point z and the prevertex function phi, which
# it evaluates at z, and returns (h, g, phi), phi at z; _FORMS below
# registers them by family name, and _closed_form is the one caller of
# them.  _F_ca and _f_cn take phi from a term of their own instead and
# leave the phi they are given unused (_f_cn leaves it to the near-origin
# series).
#
# The four power-dilatation forms take lift=True from the lifts in surface
# (even n) and then return (h, g, phi, F3), with
#
#     F3 = 2 Im T,   T(z) = int_0^z h'(s) q(s) ds,
#
# and the principal root q = +z^(n/2) (the mirrored surface has -F3).  T
# sums the same root terms as h with weights e_k^(n/2) = (-1)^k, so each
# logarithm is taken once for both.  At integer c, _root_pairs sums the
# root terms other than +-1 and each form adds its own terms at z = +-1.
# The forms of T were checked against the quadrature lift; the
# partial-fraction derivation forces the f_1n log(1 - z) coefficient
# (n^2+2)/12 and the numerator 2z^2 - 3z + 3 of the slit surface (f_2n,
# n = 2).


def _from_sum(p, phi):
    # h + g = P and h - g = phi pin both analytic parts.
    return 0.5 * (p + phi), 0.5 * (p - phi), phi


def _F_a(p, z, phi):
    a = float(p.a)
    return _from_sum(-z + (1.0 - a) * clog(1.0 + z)
                     - (1.0 + a) * clog(1.0 - z), phi(z))


def _F_0a(p, z, phi):
    a = float(p.a)
    return _from_sum(0.5 * (1.0 + a) * z / (1.0 - z)
                     + 0.5 * (1.0 - a) * z / (1.0 + z), phi(z))


def _F_1a(p, z, phi):
    a = float(p.a)
    return _from_sum(0.25 * (1.0 - a) * clog((1.0 + z) / (1.0 - z))
                     + 0.5 * (1.0 + a) * z / (1.0 - z) ** 2, phi(z))


def _F_ca(p, z, phi):
    # the w-plane form with (w^p - 1)/p terms, so that nothing cancels as
    # c nears 0 or 1; its middle term is 4 k_c, so it also gives phi, with
    # the operations of shear.koebe_phi at a non-integer c
    c, a = float(p.c), float(p.a)
    log_w = clog((1.0 + z) / (1.0 - z))
    k = _powm1_over(c, log_w)
    h = 0.125 * ((a + 1.0) * _powm1_over(c + 1.0, log_w)
                 + 2.0 * k
                 - (a - 1.0) * _powm1_over(c - 1.0, log_w))
    phi = 0.5 * k
    return h, h - phi, phi


@lru_cache(maxsize=64)
def _residues(c, n):
    """(k, e_k, alpha_k) for k = 1, ..., ceil(n/2) - 1, one root e_k of
    each conjugate pair of n-th roots of unity other than +-1: h' has the
    term alpha_k/(1 - z conj(e_k)), alpha_k = k_c'(e_k)/n, in Python
    complex arithmetic as coeffs_f1n/f2n print it."""
    roots = enumerate(unit_roots(n).tolist()[1:(n + 1) // 2], start=1)
    return tuple((k, e, (1.0 + e) ** (c - 1) / (n * (1.0 - e) ** (c + 1)))
                 for k, e in roots)


@lru_cache(maxsize=64)
def _root_weights(c, n):
    """((-1)^k, e_k, conj(e_k), w_k, conj(w_k)) for each root of
    _residues(c, n) at integer c, w_k = -e_k alpha_k, once per (c, n).
    w_k is real for odd c and imaginary for even c: its other part is
    rounding, dropped."""
    weights = []
    for k, e, alpha in _residues(c, n):
        w = -e * alpha
        w = w.real if c % 2 else 1j * w.imag
        weights.append(((-1.0) ** k, e, e.conjugate(), w, w.conjugate()))
    return tuple(weights)


def _root_pairs(c, n, z, lift=False):
    """The root terms of h, and with lift=True of T, at integer c: each pair
    w_k log(1 - z conj(e_k)) + conj(w_k) log(1 - z e_k) of
    _root_weights(c, n), exactly real on the real axis (T weighs it by
    (-1)^k)."""
    h = t = 0.0
    for sign, e, e_bar, w, w_bar in _root_weights(c, n):
        pair = w * clog(1.0 - z * e_bar) + w_bar * clog(1.0 - z * e)
        h += pair
        if lift:
            t += sign * pair
    return h, t


def _f_0n(p, z, phi, lift=False):
    # P' = (1 + z^n) h' has twice the root terms of h'
    n = int(p.n)
    roots, roots_t = _root_pairs(0, n, z, lift)
    s = z / (1.0 - z) if n % 2 else 2.0 * z / (1.0 - z * z)
    hgk = _from_sum(s / n + 2.0 * roots, phi(z))
    if not lift:
        return hgk
    t = z / (1.0 - z) + (-1.0) ** (n // 2) * z / (1.0 + z)
    return (*hgk, (t / n + 2.0 * roots_t).imag)


def _f_1n(p, z, phi, lift=False):
    n = int(p.n)
    roots, roots_t = _root_pairs(1, n, z, lift)
    log_1mz = clog(1.0 - z)
    h = ((n - 1.0) / (2.0 * n) * z / (1.0 - z)
         + z * (2.0 - z) / (2.0 * n * (1.0 - z) ** 2)
         - (n * n - 1.0) / (12.0 * n) * log_1mz)
    if n % 2 == 0:
        log_1pz = clog(1.0 + z)
        h += log_1pz / (4.0 * n)
    h += roots
    k = phi(z)
    if not lift:
        return h, h - k, k
    t = (-z / (1.0 - z) + z * (2.0 - z) / (1.0 - z) ** 2
         + (n * n + 2.0) / 12.0 * log_1mz
         + (-1.0) ** (n // 2) / 2.0 * log_1pz)
    return h, h - k, k, (t / n + 2.0 * roots_t).imag


def _f_2n(p, z, phi, lift=False):
    n = int(p.n)
    roots, roots_t = _root_pairs(2, n, z, lift)
    h = ((n - 1.0) * (n - 2.0) / (6.0 * n) * z / (1.0 - z)
         + (n - 2.0) / (2.0 * n) * z * (2.0 - z) / (1.0 - z) ** 2
         + 2.0 * z * (z * z - 3.0 * z + 3.0) / (3.0 * n * (1.0 - z) ** 3))
    h += roots
    k = phi(z)
    if not lift:
        return h, h - k, k
    t = ((4.0 - n * n) / (6.0 * n) * z / (1.0 - z)
         - 2.0 / n * z * (2.0 - z) / (1.0 - z) ** 2
         + 4.0 * z * (z * z - 3.0 * z + 3.0) / (3.0 * n * (1.0 - z) ** 3))
    return h, h - k, k, (t + 2.0 * roots_t).imag


# Bound here only so that perfbench/spans.py can wrap
# families._oracle_sample; no closed form calls it.
def _oracle_sample(params, z):
    try:
        sample = shear_at(family_phi(params), family_omega(params), z)
    except ConvergenceError as exc:
        raise ConvergenceError(f"shear quadrature at z={z}: {exc}") from exc
    return MapSample.from_hg(sample.z, sample.h, sample.g,
                             family_phi(params).phi(sample.z), fallback=True)


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
        e = unit_roots(self.n).tolist()
        for k, alpha, beta in self.pole_coeffs:
            total += alpha / (1.0 - z * e[k].conjugate())
            total += beta / (1.0 - z * e[k])
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
    poles = tuple((k, a_k, a_k.conjugate()) for k, _, a_k in _residues(1, n))
    return PartialFractionCoeffs(family="f_1n", n=n, scalars=scalars,
                                 pole_coeffs=poles)


def coeffs_f2n(n):
    """Residue coefficients of h'_{2,n} = (1+z)/((1-z)^3 (1-z^n))."""
    FamilyParams(family="f_2n", n=n)
    n = int(n)
    scalars = (("lambda1", Fraction(0)),
               ("lambda2", Fraction((n - 1) * (n - 2), 6 * n)),
               ("lambda3", Fraction(n - 2, n)),
               ("lambda4", Fraction(2, n)))
    poles = tuple((k, a_k, a_k.conjugate()) for k, _, a_k in _residues(2, n))
    return PartialFractionCoeffs(family="f_2n", n=n, scalars=scalars,
                                 pole_coeffs=poles)


# the partial-fraction decomposition of h' of each family that has one
PARTIAL_FRACTIONS = {"f_1n": coeffs_f1n, "f_2n": coeffs_f2n}


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
# for 0 <= m < n.  I_k is elementary for e_k = 1 and e_k = -1.  Otherwise,
# with beta_k = (1 + conj(e_k))/(1 - conj(e_k)), (t+1)/(t+beta_k) =
# 1 + (1 - beta_k)/(t + beta_k) and int_0^t s^(c-1)/(s + beta_k) ds =
# t^c/(c beta_k) F(-t/beta_k), F = 2F1(1, c; c+1; .).  The identity
# F(x) = 1 + c x G(x)/(c+1), G = 2F1(1, c+1; c+2; .) (DLMF 15.2.1 term by
# term), takes the 1/c out of every term but one: with x_w = -w/beta_k and
# x_1 = -1/beta_k,
#
#     I_k(w) = ((w^c - 1)/c + (1 - beta_k)/beta_k D_k) / (1 - conj(e_k)),
#     D_k = (w^c - 1)/c + (w^c x_w G(x_w) - x_1 G(x_1))/(c+1),
#
# and (w^c - 1)/c goes through expm1.  So the form holds for every c in
# (0, 2), with G = hyp2f1_1c(c+1, .).  beta_k is imaginary and w lies in
# the right half-plane, so x_w never meets the cut [1, inf) of G.
#
# The roots other than +-1 come in conjugate pairs e_k, e_(n-k) =
# conj(e_k), and every constant of e_(n-k) is the conjugate of that of
# e_k, so the term of e_(n-k) at z is conj(term of e_k at conj(z)), with
# the same weight (-1)^(n-k) = (-1)^k in T for even n.  Each pair is summed
# as term(z) + conj(term(conj z)): on the real axis the two terms are the
# same numbers, so h and T come out exactly real there and F3 exactly 0.


@lru_cache(maxsize=64)
def _fcn_roots(c, n):
    """The constants of the roots e_k of _residues(c, n), one of each
    conjugate pair other than +-1, once per (c, n), as arrays over these
    roots: (-1)^k, 1/(1 - conj(e_k)), the weight (1 - beta_k)/(beta_k
    (1 - conj(e_k))) of D_k, x_1 and x_1 G(x_1)/(c+1)."""
    roots = _residues(c, n)
    k = np.array([k for k, _, _ in roots], dtype=int)
    ebar = np.array([e for _, e, _ in roots], dtype=complex).conj()
    beta = (1.0 + ebar) / (1.0 - ebar)
    scale = 1.0 / (1.0 - ebar)
    x_1 = -1.0 / beta
    return ((-1.0) ** k, scale, scale * (1.0 - beta) / beta, x_1,
            x_1 * hyp2f1_1c(c + 1.0, x_1) / (c + 1.0))


def fcn_h_and_lift(c, n, z):
    """h(z) of f_cn, T(z) = int_0^z h'(s) s^(n/2) ds, and phi = k_c, for c
    in (0, 2) (T is None for odd n): Python complex values at a disk point
    z, complex ndarrays of z's shape at an array of disk points.  The
    minimal-surface height is F3 = 2 Im T, and phi is half the (w^c - 1)/c
    term of h, in the operations of the expm1 form of shear.koebe_phi.
    The roots e_k = +-1 give elementary terms; the others go through one
    hyp2f1_1c call over (points, one root of each conjugate pair at z and
    at conj z).  Each point sums its roots along a row of its own, in the
    same order alone as in an array."""
    number = np.isscalar(z)
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.reshape(-1, 1)
    # column 0 at z, column 1 at conj(z)
    z = np.concatenate([z, z.conj()], axis=1)
    w = (1.0 + z) / (1.0 - z)
    log_w = clog(w)
    base = _powm1_over(c, log_w)
    phi = (0.5 * base[:, 0]).reshape(shape)
    # e_k = 1
    h = t = 0.5 * (_powm1_over(c + 1.0, log_w[:, :1]) + base[:, :1])
    if n % 2 == 0:
        # e_k = -1, k = n/2
        i_k = 0.5 * (base[:, :1] + _powm1_over(c - 1.0, log_w[:, :1]))
        h = h + i_k
        t = t + (-1.0) ** (n // 2) * i_k
    sign, scale, weight, x_1, at_one = _fcn_roots(c, n)
    # one hyp2f1_1c call over (points, the roots at z then at conj z)
    x = (w[..., None] * x_1).reshape(len(z), 2 * x_1.size)
    x_g = (x * hyp2f1_1c(c + 1.0, x) / (c + 1.0)).reshape(len(z), 2, -1)
    base = base[..., None]
    d = base + (np.exp(c * log_w)[..., None] * x_g - at_one)
    i_k = scale * base + weight * d
    # e_k at z plus e_(n-k) = conj(e_k) at z, which is conj(e_k at conj z)
    pair = i_k[:, 0] + i_k[:, 1].conj()
    h = h + pair.sum(axis=1, keepdims=True)
    t = t + (sign * pair).sum(axis=1, keepdims=True)
    h = (0.5 / n * h).reshape(shape)
    t = (0.5 / n * t).reshape(shape) if n % 2 == 0 else None
    if number:
        return h.item(), None if t is None else t.item(), phi.item()
    return h, t, phi


def _f_cn(p, z, phi, lift=False):
    h, t, k = fcn_h_and_lift(float(p.c), int(p.n), z)
    return (h, h - k, k, 2.0 * t.imag) if lift else (h, h - k, k)


# --- the near-origin series of every power family --------------------------
#
# The closed forms sum root terms of size |z| to T, of size |z|^(n/2+1), so
# T loses a factor of about |z|^(-n/2) of its relative accuracy, and
# _closed_form sends |z| <= _series_radius(n) here.  k_c'(s) = sum a_j s^j,
# a_0 = 1, a_1 = 2c, (j+1) a_(j+1) = 2c a_j + (j+1) a_(j-1) from (1 - s^2)
# k_c'' = 2(c + s) k_c'; h' = sum b_j s^j, b_j = a_j + b_(j-n) ~ j^(c+1);
# P = h + g = sum (2b_j - a_j) z^(j+1)/(j+1), T = sum b_j z^(j+m)/(j+m),
# m = n/2 + 1.  Every coefficient is positive, so Horner's sum loses at most
# P(|z|)/|P(z)|, about ((1+|z|)/(1-|z|))^2 at c = 2 on the negative axis.
_SERIES_RADIUS = 0.25
# the closed forms' loss |z|^(-n/2) on _SERIES_RADIUS at n = 8, where
# F3 holds to 1.3e-13 in verify's surface check; beyond _SERIES_CAP the
# series would take over 1,000 terms
_SERIES_LOSS = 4.0 ** 4
_SERIES_CAP = 0.95


def _series_radius(n):
    """The radius up to which a power family takes the near-origin series:
    _SERIES_RADIUS up to n = 8, then the r at which r^(-n/2) reaches
    _SERIES_LOSS, up to _SERIES_CAP (0.33 at n = 10, 0.45 at 14, 0.5 at 16,
    0.84 at 64).  Both sides take g as a difference with phi, so the
    radius moves only g's roundoff; it is chosen for T."""
    return min(_SERIES_CAP, max(_SERIES_RADIUS, _SERIES_LOSS ** (-2.0 / n)))


@lru_cache(maxsize=64)
def _series(c, n):
    """The coefficients of P/z and of T/z^(n/2+1), highest order first."""
    m = _terms(_series_radius(n), 1.0, c + 1.0)
    a = [1.0, 2.0 * c]
    for j in range(1, m - 1):
        a.append((2.0 * c * a[j] + (j + 1) * a[j - 1]) / (j + 1))
    b = a[:]
    for j in range(n, m):
        b[j] += b[j - n]
    return ([(2.0 * b[j] - a[j]) / (j + 1) for j in reversed(range(m))],
            [b[j] / (j + n / 2 + 1) for j in reversed(range(m))])


def _near_origin(p, z, phi, lift=False):
    n = int(p.n)
    p_coeffs, t_coeffs = _series(family_phi(p).c, n)
    # h - g = phi, so phi's roundoff cancels in u = Re P
    hgk = _from_sum(z * _horner(p_coeffs, z), phi(z))
    if not lift:
        return hgk
    return (*hgk, 2.0 * (z ** (n // 2 + 1) * _horner(t_coeffs, z)).imag)


_FORMS = {"F_a": _F_a, "F_0a": _F_0a, "F_1a": _F_1a, "F_ca": _F_ca,
          "f_0n": _f_0n, "f_1n": _f_1n, "f_2n": _f_2n, "f_cn": _f_cn}

_DELEGATES = {general: family for family, general in _FIXED_C.items()}


def resolve_family(params):
    """The parameters whose closed form evaluates params: F_ca at c = 0
    and 1 is F_0a and F_1a, f_cn at c = 0, 1 and 2 is f_0n, f_1n and
    f_2n.  Every other c in [0, 2] takes the general form, which stays
    accurate as c nears these values."""
    family = _DELEGATES.get((params.family, params.c))
    if family is None:
        return params
    return FamilyParams(family=family, a=params.a, n=params.n)


@dataclass(frozen=True, slots=True)
class _Plan:
    """What a parameter set fixes for every call of its closed form and
    derivatives: the parameters of its closed form (resolve_family), the
    form, phi and phi' (family_phi), omega (family_omega), and a power
    family's near-origin radius (_series_radius; None otherwise)."""

    params: FamilyParams
    form: object
    phi: object
    derivative: object
    omega: object
    radius: object


@lru_cache(maxsize=64)
def _plan(params):
    """The _Plan of params, built once per parameter set."""
    resolved = resolve_family(params)
    prevertex = family_phi(params)
    radius = (_series_radius(int(resolved.n))
              if resolved.family in _POWER_FAMILIES else None)
    return _Plan(resolved, _FORMS[resolved.family], prevertex.phi,
                 prevertex.derivative, family_omega(params).omega, radius)


def _closed_form(params, z, lift=False):
    """(h, g, phi) of the family at checked disk points from one call of its
    closed form, and with lift=True (power families only) (h, g, phi, F3).
    A power family takes its near-origin series inside _series_radius(n)."""
    plan = _plan(params)
    params, form, phi = plan.params, plan.form, plan.phi
    if plan.radius is None:
        return form(params, z, phi)
    near = abs(z) <= plan.radius
    if not isinstance(near, bool):
        if near.any() and not near.all():
            out = np.empty((3 + lift,) + z.shape, complex)
            for mask, f in ((near, _near_origin), (~near, form)):
                out[:, mask] = f(params, z[mask], phi, lift)
            return (*out[:3], out[3].real.copy()) if lift else tuple(out)
        near = near.all()
    return (_near_origin if near else form)(params, z, phi, lift)


def evaluate(params, z):
    """The family's closed form at a disk point, as a MapSample."""
    z = require_disk_point(z, r_max=1.0)
    return MapSample.from_hg(z, *_closed_form(params, z))


def evaluate_array(params, z):
    """h and g of the family at an array of disk points, as complex
    ndarrays of z's shape: the closed form, and a power family's series,
    run once on their points with numpy (for f_cn, one hyp2f1_1c call
    routes every root term of every point by mask)."""
    return _closed_form(params, require_disk_points(z, r_max=1.0))[:2]


# --- shorthands: evaluate of one family ------------------------------------

def eval_F_0a(a, z):
    """Shear of the strip map k_0; image lies in |v| < pi/4."""
    return evaluate(FamilyParams("F_0a", a=a), z)


def eval_F_1a(a, z):
    """Shear of the half-plane map k_1."""
    return evaluate(FamilyParams("F_1a", a=a), z)


def eval_F_ca(c, a, z):
    """Shear of k_c by the Mobius-type dilatation."""
    return evaluate(FamilyParams("F_ca", c=c, a=a), z)
