import cmath
import math
import re

import numpy as np
import pytest

from shearlift import verify
from shearlift.analytic import unit_roots
from shearlift.errors import (DilatationNotSquareError, DomainError,
                              InvalidDilatationError)
from shearlift.families import FamilyParams, evaluate
from shearlift.shear import (DilatationSpec, MapSample, PrevertexSpec,
                             grid_array, grid_points, koebe_phi, koebe_phi_prime,
                             lift_third_coordinate, sample_grid, shear_array,
                             shear_at)
from shearlift.surface import GridSpec, slit_surface_reference


def test_koebe_endpoints():
    # c=1 is the Koebe function, c=0 the horizontal strip log
    assert abs(koebe_phi(1.0, 0.5) - 1.0) < 1e-15
    assert abs(koebe_phi(0.0, 0.5) - 0.5 * math.log(3.0)) < 1e-15
    assert abs(koebe_phi(2.0, 0.5) - 2.0) < 1e-15  # equals z/(1-z)^2


def test_koebe_c_to_zero_continuity():
    z = 0.3 + 0.2j
    assert abs(koebe_phi(1e-12, z) - koebe_phi(0.0, z)) < 1e-9


def test_koebe_derivative():
    z = 0.4 - 0.3j
    for c in (0.0, 0.5, 1.0, 2.0):
        h = 1e-6
        fd = (koebe_phi(c, z + h) - koebe_phi(c, z - h)) / (2.0 * h)
        assert abs(koebe_phi_prime(c, z) - fd) < 1e-8


def test_dilatation_validation():
    with pytest.raises(InvalidDilatationError):
        DilatationSpec.custom(lambda z: 2.0 * z)  # |omega| >= 1 inside
    with pytest.raises(InvalidDilatationError):
        DilatationSpec.custom(lambda z: 0.5 + 0.0 * z)  # omega(0) != 0
    with pytest.raises(ValueError):
        DilatationSpec.power(0)
    with pytest.raises(ValueError):
        DilatationSpec.mobius(1.5)


def test_shear_refuses_a_path_point_where_omega_leaves_the_disk():
    # |2 z^60| < 1 on the 48-point lattice (|z| <= 0.9) but not beyond
    # |z| = 2^(-1/60) ~ 0.9885, which the path to 0.995 crosses
    omega = DilatationSpec.custom(lambda z: 2 * z ** 60)
    phi = PrevertexSpec.identity()
    for call in (lambda: shear_at(phi, omega, 0.995),
                 lambda: shear_array(phi, omega, np.array([0.5, 0.995]))):
        with pytest.raises(InvalidDilatationError) as info:
            call()
        m = re.fullmatch(r"dilatation modulus >= 1 at (\S+) on the "
                         r"integration path", str(info.value))
        assert m, str(info.value)
        assert 2.0 ** (-1.0 / 60.0) <= abs(complex(m.group(1))) <= 0.995


def test_prevertex_validation():
    with pytest.raises(ValueError):
        PrevertexSpec.koebe(2.5)
    with pytest.raises(ValueError):
        # derivative vanishes at the sampled lattice point z = 0.25
        PrevertexSpec.custom(lambda z: 0.5 * z ** 2 - 0.25 * z,
                             lambda z: z - 0.25)


def test_shear_zero_dilatation_returns_phi():
    s = shear_at(PrevertexSpec.koebe(1.0), DilatationSpec.zero(), 0.5)
    assert abs(s.h - 1.0) < 1e-12
    assert abs(s.g) < 1e-14
    assert abs(s.f - 1.0) < 1e-12


def test_shear_koebe_power_antiderivative_oracle():
    # omega=z, phi'=1/(1-z)^2: h' = (1-z)^-3, h = (1-z)^-2/2 - 1/2
    s = shear_at(PrevertexSpec.koebe(1.0), DilatationSpec.power(1), 0.5)
    assert abs(s.h - 1.5) < 1e-12
    assert abs(s.g - 0.5) < 1e-12


def test_shear_f02_closed_form():
    # omega=z^2, phi=k_0: f = Re{z/(1-z^2)} + i Im{k_0}
    s = shear_at(PrevertexSpec.koebe(0.0), DilatationSpec.power(2), 0.5)
    assert abs(s.f - 2.0 / 3.0) < 1e-12
    z = 0.3 + 0.4j
    s = shear_at(PrevertexSpec.koebe(0.0), DilatationSpec.power(2), z)
    assert abs(s.u - (z / (1.0 - z * z)).real) < 1e-12
    assert abs(s.v - koebe_phi(0.0, z).imag) < 1e-12


def test_shear_rejects_boundary():
    with pytest.raises(DomainError):
        shear_at(PrevertexSpec.koebe(1.0), DilatationSpec.zero(), 0.9999)


def test_lift_trivialities():
    phi = PrevertexSpec.koebe(1.0)
    hp = lambda z: koebe_phi_prime(1.0, z) / (1.0 - z ** 2)
    q = lambda z: z
    assert lift_third_coordinate(hp, q, 0j) == 0.0
    assert abs(lift_third_coordinate(hp, q, 0.5)) < 1e-13  # real axis


def test_lift_matches_slit_reference():
    # c=2, omega=z^2, q=z: cross-oracle against the explicit slit surface
    hp = lambda z: koebe_phi_prime(2.0, z) / (1.0 - z ** 2)
    z = 0.3 + 0.4j
    val = lift_third_coordinate(hp, lambda w: w, z)
    assert abs(val - slit_surface_reference(z).f3) < 1e-9


def test_grid_points_layout():
    pts = list(grid_points(GridSpec(rings=2, spokes=8, r_max=0.8)))
    assert len(pts) == 16
    # ring-major: first 8 points on r=0.4, next 8 on r=0.8
    assert all(abs(abs(z) - 0.4) < 1e-15 for z in pts[:8])
    assert all(abs(abs(z) - 0.8) < 1e-15 for z in pts[8:])
    assert pts == list(grid_points(GridSpec(rings=2, spokes=8, r_max=0.8)))


def grid_points_by_loop(grid):
    # the reference lattice: one Python float-by-complex product per point
    turn = unit_roots(grid.spokes).tolist()
    return [grid.r_max * j / grid.rings * e
            for j in range(1, grid.rings + 1) for e in turn]


@pytest.mark.parametrize("grid", [
    GridSpec(rings=1, spokes=3), GridSpec(r_max=0.999),
    GridSpec(rings=40, spokes=96), verify.SURFACE_GRID,
], ids=["rings1_spokes3", "rmax0.999", "40x96", "SURFACE_GRID"])
def test_grid_array_is_the_loop_bit_for_bit(grid):
    z = grid_array(grid)
    loop = np.array(grid_points_by_loop(grid))
    assert z.dtype == complex and z.shape == loop.shape
    # bit patterns, so that a zero of the other sign counts as a difference
    assert z.view(np.uint64).tolist() == loop.view(np.uint64).tolist()
    assert grid_points(grid) == z.tolist()


def test_sample_grid_zero_dilatation():
    phi = PrevertexSpec.koebe(1.0)
    samples = sample_grid(phi, DilatationSpec.zero(),
                          GridSpec(rings=1, spokes=4, r_max=0.5))
    assert len(samples) == 4
    for s in samples:
        assert abs(s.h - koebe_phi(1.0, s.z)) < 1e-12
        assert abs(s.g) < 1e-14


def test_sample_grid_matches_f2n_closed_form():
    phi = PrevertexSpec.koebe(2.0)
    samples = sample_grid(phi, DilatationSpec.power(2),
                          GridSpec(rings=1, spokes=6, r_max=0.5))
    for s in samples:
        ref = evaluate(FamilyParams("f_2n", n=2), s.z)
        assert abs(s.f - ref.f) < 1e-9


def test_map_sample_from_hg():
    s = MapSample.from_hg(0.1, 1.0 + 2.0j, 0.5 - 1.0j, 0.5 + 3.0j)
    assert s.u == 1.5
    assert s.v == 3.0
    assert s.f == 1.5 + 3.0j
    # v is Im phi itself, not Im(h - g), which carries the rounding of g
    h, phi = 0.1 + 0.7j, 0.1j
    assert (h - (h - phi)).imag != 0.1
    assert MapSample.from_hg(0.1, h, h - phi, phi).v == 0.1
