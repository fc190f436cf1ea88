"""Generic shear construction and numeric Weierstrass-Enneper lift.

For an analytic prevertex function phi and a dilatation omega with
|omega| < 1 on the disk, the sheared harmonic map f = h + conj(g) solves

    h' - g' = phi',    g' = omega * h',

so h(z) = int_0^z phi'(s) / (1 - omega(s)) ds and g = h - phi.  The planar
image is u + i*v with u = Re(h + g), v = Im(h - g) = Im(phi).  These
quadrature-defined values are the ground truth every closed-form family is
verified against.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .analytic import (DEFAULT_QUADRATURE, QuadratureConfig,
                       integrate_segment, require_disk_point,
                       require_disk_points, vectorize)
from .errors import ConvergenceError, InvalidDilatationError
from .special import _powm1_over

# Deterministic lattice used for constructor-time sampled invariant checks.
_CHECK_RADII = (0.25, 0.5, 0.75, 0.9)
_CHECK_ANGLES = tuple(2.0 * np.pi * k / 12 for k in range(12))


def _check_points():
    for r in _CHECK_RADII:
        for t in _CHECK_ANGLES:
            yield r * cmath.exp(1j * t)


def koebe_phi(c, z):
    """Generalized Koebe function k_c(z) = (((1+z)/(1-z))^c - 1) / (2c),
    through expm1, so that it tends to its c = 0 limit
    (1/2) log((1+z)/(1-z)) without cancellation."""
    return 0.5 * _powm1_over(np, c, np.log((1.0 + z) / (1.0 - z)))


def koebe_phi_prime(c, z):
    # k_c'(z) = (1+z)^(c-1) * (1-z)^(-(c+1)), valid for all c in [0, 2].
    return np.power(1.0 + z, c - 1.0) * np.power(1.0 - z, -(c + 1.0))


@dataclass(frozen=True)
class DilatationSpec:
    """Analytic dilatation omega with |omega| < 1 and omega(0) = 0."""

    kind: str
    n: int = 0
    a: float = 0.0
    q: object = None
    omega: object = None

    @classmethod
    def zero(cls):
        return cls(kind="zero", omega=lambda z: np.zeros_like(np.asarray(z)))

    @classmethod
    def power(cls, n):
        if n < 1 or n != int(n):
            raise ValueError("power dilatation requires integer n >= 1")
        return cls(kind="power_n", n=int(n), omega=lambda z: z**int(n))

    @classmethod
    def mobius(cls, a):
        a = float(a)
        if not -1.0 <= a <= 1.0:
            raise ValueError("mobius dilatation requires a in [-1, 1]")
        spec = cls(kind="mobius_a", a=a,
                   omega=lambda z: z * (z + a) / (1.0 + a * z))
        spec._validate_samples()
        return spec

    @classmethod
    def square_of(cls, q):
        spec = cls(kind="square_of_q", q=q, omega=lambda z: q(z) ** 2)
        spec._validate_samples()
        return spec

    @classmethod
    def custom(cls, omega):
        spec = cls(kind="custom", omega=omega)
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
    """Conformal prevertex map phi with nonvanishing derivative."""

    kind: str
    c: float = 0.0
    phi: object = None
    derivative: object = None

    @classmethod
    def identity(cls):
        return cls(kind="identity", phi=lambda z: z,
                   derivative=lambda z: np.ones_like(np.asarray(z)))

    @classmethod
    def koebe(cls, c):
        c = float(c)
        if not 0.0 <= c <= 2.0:
            raise ValueError("koebe prevertex requires c in [0, 2]")
        return cls(kind="koebe_c", c=c,
                   phi=lambda z: koebe_phi(c, z),
                   derivative=lambda z: koebe_phi_prime(c, z))

    @classmethod
    def custom(cls, phi, derivative):
        spec = cls(kind="custom", phi=phi, derivative=derivative)
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
    def from_hg(cls, z, h, g, fallback=False):
        h = complex(h)
        g = complex(g)
        return cls(z=complex(z), h=h, g=g, u=(h + g).real, v=(h - g).imag,
                   fallback=fallback)


def _shear_integrand(phi, omega):
    """h' = phi'/(1 - omega) on an array of path points, refusing a path
    point where |omega| >= 1."""
    def integrand(zs):
        w = np.asarray(omega(zs))
        bad = np.abs(w) >= 1.0
        if bad.any():
            raise InvalidDilatationError(
                f"dilatation modulus >= 1 at {complex(zs[bad][0])} on the "
                "integration path")
        return np.asarray(phi.derivative(zs)) / (1.0 - w)

    return integrand


def shear_at(phi, omega, z, cfg=DEFAULT_QUADRATURE):
    """Evaluate the sheared map at a disk point by radial quadrature of
    h' = phi'/(1 - omega)."""
    z = require_disk_point(z)
    h = integrate_segment(_shear_integrand(phi, omega), 0j, z, cfg)
    g = h - complex(phi.phi(z))
    return MapSample.from_hg(z, h, g)


def shear_array(phi, omega, z, cfg=DEFAULT_QUADRATURE):
    """h and g of the sheared map at an array of disk points, as complex
    ndarrays of z's shape: shear_at's quadrature on every point at once.

    A ConvergenceError names the first point, in C order, where the
    quadrature failed, and carries its flat index.
    """
    z = require_disk_points(z)
    try:
        h = integrate_segment(_shear_integrand(phi, omega), 0j, z, cfg)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"at grid point z={complex(z.flat[exc.index])}: {exc}",
            index=exc.index) from exc
    return h, h - vectorize(phi.phi)(z)


def lift_third_coordinate(hprime, q, z, cfg=DEFAULT_QUADRATURE):
    """Third Weierstrass-Enneper coordinate 2 Im int_0^z h'(s) q(s) ds.

    The caller guarantees omega = q^2; with that, the lifted graph
    (u, v, F3) is a minimal surface over the planar image.
    """
    z = require_disk_point(z)

    def integrand(zs):
        return np.asarray(hprime(zs)) * np.asarray(q(zs))

    return 2.0 * integrate_segment(integrand, 0j, z, cfg).imag


def grid_points(grid):
    """Deterministic ring-major lattice: for each ring radius (innermost
    first), the spoke angles 2*pi*k/spokes in increasing k."""
    turn = [cmath.exp(2j * cmath.pi * k / grid.spokes)
            for k in range(grid.spokes)]
    return [grid.r_max * j / grid.rings * e
            for j in range(1, grid.rings + 1) for e in turn]


def sample_grid(phi, omega, grid, cfg=DEFAULT_QUADRATURE):
    """One MapSample per grid node, ring-major then spoke order, from one
    shear_array call."""
    points = grid_points(grid)
    h, g = shear_array(phi, omega, np.array(points), cfg)
    return [MapSample.from_hg(z, a, b)
            for z, a, b in zip(points, h.tolist(), g.tolist())]
