"""Generic shear construction and numeric Weierstrass-Enneper lift.

For an analytic prevertex function phi and a dilatation omega with
|omega| < 1 on the disk, the sheared harmonic map f = h + conj(g) solves

    h' - g' = phi',    g' = omega * h',

so h(z) = int_0^z phi'(s) / (1 - omega(s)) ds and g = h - phi.  The planar
image is u + i*v with u = Re(h + g) and v = Im(h - g) = Im(phi);
coordinates writes this rule once, and takes v from phi itself, so that v
carries phi's rounding alone, not that of h and of g.  These
quadrature-defined values are the ground truth every closed-form family is
verified against.
"""

from dataclasses import dataclass

import numpy as np

from .analytic import (clog, integrate_segment, require_disk_point,
                       require_disk_points, unit_roots, vectorize)
from .errors import ConvergenceError, InvalidDilatationError
from .special import _powm1_over

# Deterministic lattice used for constructor-time sampled invariant checks.
_CHECK_RADII = (0.25, 0.5, 0.75, 0.9)


def _check_points():
    turn = unit_roots(12).tolist()
    return [r * e for r in _CHECK_RADII for e in turn]


def koebe_phi(c, z):
    """Generalized Koebe function k_c(z) = (((1+z)/(1-z))^c - 1) / (2c).
    k_1 = z/(1-z) and k_2 = z/(1-z)^2 are rational; every other c goes
    through expm1, so that k_c tends to its c = 0 limit
    (1/2) log((1+z)/(1-z)) without cancellation."""
    if c == 1.0:
        return z / (1.0 - z)
    if c == 2.0:
        return z / (1.0 - z) ** 2
    return 0.5 * _powm1_over(c, clog((1.0 + z) / (1.0 - z)))


def koebe_phi_prime(c, z):
    """k_c'(z) = (1+z)^(c-1) (1-z)^(-(c+1)) for c in [0, 2].  An integer
    c takes the two powers, except that numpy's (1+z)^0 is exactly 1 + 0j
    and its (1+z)^1 is 1 + z, so c = 1 and 2 multiply by these and take
    the (1-z) power alone, with the same bits.  A non-integer c takes one
    power, w^(c-1)/(1-z)^2 with w = (1+z)/(1-z), which is the same value
    on the principal branch: arg(1+z) - arg(1-z) lies in (-pi, pi) on the
    disk."""
    if c == 1.0:
        return (1.0 + 0j) * np.power(1.0 - z, -2.0)
    if c == 2.0:
        return (1.0 + z) * np.power(1.0 - z, -3.0)
    if float(c).is_integer():
        return np.power(1.0 + z, c - 1.0) * np.power(1.0 - z, -(c + 1.0))
    one_minus_z = 1.0 - z
    return np.power((1.0 + z) / one_minus_z, c - 1.0) / one_minus_z ** 2


@dataclass(frozen=True)
class DilatationSpec:
    """Analytic dilatation omega (of a number or an array) with
    |omega| < 1 and omega(0) = 0; custom, and so mobius and square_of,
    check both on a 48-point lattice."""

    omega: object

    @classmethod
    def zero(cls):
        return cls(lambda z: np.zeros_like(np.asarray(z)))

    @classmethod
    def power(cls, n):
        if not (n >= 1 and n % 1 == 0):
            raise ValueError("power dilatation requires integer n >= 1")
        n = int(n)
        return cls(lambda z: z**n)

    @classmethod
    def mobius(cls, a):
        a = float(a)
        if not -1.0 <= a <= 1.0:
            raise ValueError("mobius dilatation requires a in [-1, 1]")
        return cls.custom(lambda z: z * (z + a) / (1.0 + a * z))

    @classmethod
    def square_of(cls, q):
        return cls.custom(lambda z: q(z) ** 2)

    @classmethod
    def custom(cls, omega):
        spec = cls(omega)
        spec._validate_samples()
        return spec

    def _validate_samples(self):
        if abs(complex(self.omega(0j))) > 1e-12:
            raise InvalidDilatationError("omega(0) must be 0")
        for z in _check_points():
            if abs(complex(self.omega(z))) >= 1.0:
                raise InvalidDilatationError(
                    f"|omega({z})| >= 1 on the sampled disk lattice")

    def __call__(self, z):
        return self.omega(z)


@dataclass(frozen=True)
class PrevertexSpec:
    """Conformal prevertex map phi with nonvanishing derivative phi', both
    of a number or an array."""

    phi: object
    derivative: object

    @classmethod
    def identity(cls):
        return cls(lambda z: z, lambda z: np.ones_like(np.asarray(z)))

    @classmethod
    def koebe(cls, c):
        c = float(c)
        if not 0.0 <= c <= 2.0:
            raise ValueError("koebe prevertex requires c in [0, 2]")
        return cls(lambda z: koebe_phi(c, z), lambda z: koebe_phi_prime(c, z))

    @classmethod
    def custom(cls, phi, derivative):
        spec = cls(phi, derivative)
        for z in _check_points():
            if abs(complex(derivative(z))) == 0.0:
                raise ValueError(
                    f"prevertex derivative vanishes at sampled point {z}")
        return spec


@dataclass(frozen=True)
class MapSample:
    """One evaluated point of a planar harmonic map f = h + conj(g)."""

    z: complex
    h: complex
    g: complex
    u: float
    v: float
    fallback: bool = False

    @property
    def f(self):
        return complex(self.u, self.v)

    @classmethod
    def from_hg(cls, z, h, g, phi, fallback=False):
        h, g = complex(h), complex(g)
        u, v = coordinates(h, g, complex(phi))
        # positional: keyword arguments cost ~0.4 us more a sample
        return cls(complex(z), h, g, u, v, fallback)


def coordinates(h, g, phi, *f3):
    """The image (u, v) of f = h + conj(g), h - g = phi, for numbers or
    arrays: u = Re(h + g), v = Im phi, then a lift's F3 when given."""
    return ((h + g).real, phi.imag) + f3


def _shear_integrand(phi, omega):
    """h' = phi'/(1 - omega) on an array of path points (or one point),
    refusing a path point where |omega| >= 1."""
    def integrand(zs):
        w = np.asarray(omega(zs))
        bad = np.abs(w) >= 1.0
        if bad.any():
            raise InvalidDilatationError(
                f"dilatation modulus >= 1 at {complex(np.asarray(zs)[bad][0])}"
                " on the integration path")
        return np.asarray(phi.derivative(zs)) / (1.0 - w)

    return integrand


def shear_at(phi, omega, z):
    """Evaluate the sheared map at a disk point by radial quadrature of
    h' = phi'/(1 - omega)."""
    z = require_disk_point(z)
    h = integrate_segment(_shear_integrand(phi, omega), 0j, z)
    k = complex(phi.phi(z))
    return MapSample.from_hg(z, h, h - k, k)


def shear_array(phi, omega, z):
    """h and g of the sheared map at an array of disk points, as complex
    ndarrays of z's shape: shear_at's quadrature on every point at once.

    Each point is integrated along its own ray from 0, and each panel's
    sums come from one row-wise reduction of its own values, so h equals
    shear_at's bit for bit, whatever the size of the array; a lattice is
    cheaper through shear_grid.  A ConvergenceError names the first
    point, in C order, where the quadrature failed, and carries its flat
    index.
    """
    z = require_disk_points(z)
    h = _integrate_h(phi, omega, 0j, z)
    return h, h - vectorize(phi.phi)(z)


def shear_grid(phi, omega, grid):
    """h and g of the sheared map on grid_array(grid), each spoke
    integrated once: one batched quadrature of the ring-to-ring segments
    [r_(j-1) e_k, r_j e_k] (r_0 = 0), summed outward along each spoke.

    The sums agree with shear_at within 1e-12 max(1, |h|), not bit for
    bit (4.7e-14 at worst over the catalog shears on the verify grid, a
    map grid at r_max 0.999 and a 40 x 96 surface grid).  A
    ConvergenceError names the grid point at the outer end of the first
    failing segment, in ring-major order, and carries its flat index.
    """
    _, h, k = _grid_h_phi(phi, omega, grid)
    return h, h - k


def _grid_h_phi(phi, omega, grid):
    """The lattice grid_array(grid), h on it as shear_grid integrates it,
    and phi on it from one call, all flat in ring-major order."""
    z = require_disk_points(grid_array(grid)).reshape(grid.rings,
                                                      grid.spokes)
    inner = np.concatenate([np.zeros((1, grid.spokes), complex), z[:-1]])
    h = np.cumsum(_integrate_h(phi, omega, inner, z), axis=0).ravel()
    z = z.ravel()
    return z, h, vectorize(phi.phi)(z)


def _integrate_h(phi, omega, z0, z):
    """The integrals of h' over the segments [z0, z] of an array of end
    points z, from one batched quadrature.  A ConvergenceError names the
    point z of the first failing segment, in C order, and carries its
    flat index."""
    try:
        return integrate_segment(_shear_integrand(phi, omega), z0, z)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"at grid point z={complex(z.flat[exc.index])}: {exc}",
            index=exc.index) from exc


def lift_third_coordinate(hprime, q, z):
    """Third Weierstrass-Enneper coordinate 2 Im int_0^z h'(s) q(s) ds.

    The caller guarantees omega = q^2; with that, the lifted graph
    (u, v, F3) is a minimal surface over the planar image.
    """
    z = require_disk_point(z)

    def integrand(zs):
        return np.asarray(hprime(zs)) * np.asarray(q(zs))

    return 2.0 * integrate_segment(integrand, 0j, z).imag


def grid_array(grid):
    """Deterministic ring-major lattice as a complex ndarray: for each ring
    radius r_max*j/rings (innermost first), the spoke angles
    2*pi*k/spokes in increasing k."""
    radii = grid.r_max * np.arange(1, grid.rings + 1) / grid.rings
    return (radii[:, None] * unit_roots(grid.spokes)).ravel()


def grid_points(grid):
    """grid_array as a list of Python complex numbers."""
    return grid_array(grid).tolist()


def sample_grid(phi, omega, grid):
    """One MapSample per grid node, ring-major then spoke order, from the
    quadrature of shear_grid: the lattice is integrated ring to ring, and
    phi evaluated on it once, for g = h - phi and for v."""
    z, h, k = _grid_h_phi(phi, omega, grid)
    return [MapSample.from_hg(*p) for p in zip(
        z.tolist(), h.tolist(), (h - k).tolist(), k.tolist())]
