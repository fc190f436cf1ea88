import cmath
import math

import numpy as np
import pytest

from shearlift.errors import DilatationNotSquareError
from shearlift.families import FamilyParams, evaluate, evaluate_array
from shearlift.shear import (grid_points, koebe_phi_prime,
                             lift_third_coordinate)
from shearlift.surface import (GridSpec, build_mesh, lift_array, lift_f0n,
                               lift_f1n, lift_f2n, lift_fcn, lift_sample,
                               slit_surface_reference)

TEST_POINTS = [0.3 + 0.4j, -0.2 + 0.5j, 0.55j, -0.6 - 0.1j,
               0.45 * cmath.exp(2.4j)]


def numeric_f3(c, n, z):
    """Independent lift oracle straight from the defining integral."""
    hp = lambda s: koebe_phi_prime(c, s) / (1.0 - s ** n)
    return lift_third_coordinate(hp, lambda s: s ** (n // 2), z)


def test_odd_n_rejected():
    for fn in (lift_f0n, lift_f1n, lift_f2n):
        with pytest.raises(DilatationNotSquareError):
            fn(3, 0.2)
    with pytest.raises(DilatationNotSquareError):
        lift_fcn(0.5, 5, 0.2)


def test_lifts_vanish_at_origin():
    for fn, n in ((lift_f0n, 4), (lift_f1n, 2), (lift_f2n, 6)):
        s = fn(n, 0j)
        assert (s.u, s.v, s.f3) == (0.0, 0.0, 0.0)
    s = lift_fcn(0.5, 4, 0j)
    assert (s.u, s.v, s.f3) == (0.0, 0.0, 0.0)


def test_real_axis_f3_vanishes():
    for fn, n in ((lift_f0n, 2), (lift_f1n, 4), (lift_f2n, 2)):
        assert abs(fn(n, 0.55).f3) < 1e-13


def test_f0n_lift_oracle():
    assert abs(lift_f0n(4, 0.3 + 0.4j).f3 - numeric_f3(0.0, 4, 0.3 + 0.4j)) < 1e-9
    for z in TEST_POINTS:
        for n in (2, 6, 8):
            assert abs(lift_f0n(n, z).f3 - numeric_f3(0.0, n, z)) < 1e-9


def test_f1n_lift_oracle():
    assert abs(lift_f1n(2, 0.5j).f3 - numeric_f3(1.0, 2, 0.5j)) < 1e-9
    for z in TEST_POINTS:
        for n in (4, 6, 8):
            assert abs(lift_f1n(n, z).f3 - numeric_f3(1.0, n, z)) < 1e-9


def test_f2n_lift_oracle():
    for z in TEST_POINTS:
        for n in (2, 4, 6, 8):
            assert abs(lift_f2n(n, z).f3 - numeric_f3(2.0, n, z)) < 1e-9


def test_fcn_lift_oracle():
    assert abs(lift_fcn(0.5, 4, 0.3).f3 - numeric_f3(0.5, 4, 0.3)) < 1e-6
    for z in TEST_POINTS[:3]:
        for c in (0.5, 1.5):
            assert abs(lift_fcn(c, 4, z).f3 - numeric_f3(c, 4, z)) < 1e-8


def test_fcn_delegates_to_f2n():
    for z in TEST_POINTS:
        a = lift_fcn(2.0, 2, z)
        b = lift_f2n(2, z)
        assert abs(a.f3 - b.f3) < 1e-12
        assert abs(complex(a.u, a.v) - complex(b.u, b.v)) < 1e-12


def test_slit_reference_matches_lift():
    # the explicit rational slit surface equals the n=2 lift exactly
    for z in TEST_POINTS:
        ref = slit_surface_reference(z)
        lifted = lift_f2n(2, z)
        assert abs(ref.u - lifted.u) < 1e-12
        assert abs(ref.v - lifted.v) < 1e-12
        assert abs(ref.f3 - lifted.f3) < 1e-12


def test_slit_reference_real_axis():
    s = slit_surface_reference(0.5)
    assert abs(s.u - 8.0 / 3.0) < 1e-14
    assert s.v == 0.0
    assert abs(s.f3) < 1e-15


def test_lift_projects_onto_planar_map():
    # a lift runs the family's closed form with its F3 terms switched on;
    # its planar part must be the planar map's, bit for bit
    z = np.array(grid_points(GridSpec(rings=6, spokes=11, r_max=0.999)))
    for p in ([FamilyParams(family=f, n=n) for f in ("f_0n", "f_1n", "f_2n")
               for n in (2, 4, 6, 8)]
              + [FamilyParams(family="f_cn", c=c, n=n)
                 for c in (0.1, 0.5, 1.5) for n in (2, 4, 8)]):
        h, g = evaluate_array(p, z)
        u, v, _ = lift_array(p, z)
        assert np.array_equal(u, (h + g).real), p
        assert np.array_equal(v, (h - g).imag), p
        for point in TEST_POINTS:
            s = lift_sample(p, point)
            planar = evaluate(p, point)
            assert (s.u, s.v) == (planar.u, planar.v), (p, point)


def test_lift_takes_each_log_once(monkeypatch):
    # h and F3 share the logarithms of the root terms and of 1 -+ z, so a
    # lift takes no more logs than the planar map alone
    calls = []

    def log(x):
        calls.append(1)
        return np_log(x)

    np_log = np.log
    monkeypatch.setattr(np, "log", log)
    z = np.array(TEST_POINTS)
    for p in (FamilyParams(family="f_1n", n=4),
              FamilyParams(family="f_2n", n=6)):
        calls.clear()
        evaluate_array(p, z)
        planar = len(calls)
        calls.clear()
        lift_array(p, z)
        assert len(calls) == planar, p


def test_mesh_counts_minimal_fan():
    mesh = build_mesh(FamilyParams(family="f_2n", n=2),
                      GridSpec(rings=1, spokes=3, r_max=0.5))
    assert len(mesh.vertices) == 4
    assert len(mesh.faces) == 3


def test_mesh_counts_quads():
    mesh = build_mesh(FamilyParams(family="f_2n", n=2),
                      GridSpec(rings=2, spokes=4, r_max=0.5))
    assert len(mesh.vertices) == 9
    assert len(mesh.faces) == 12
    # every face references valid vertices, no degenerate triangles
    for i, j, k in mesh.faces:
        assert len({i, j, k}) == 3
        assert all(0 <= t < 9 for t in (i, j, k))


def test_mesh_vertices_are_lift_samples():
    p = FamilyParams(family="f_1n", n=4)
    grid = GridSpec(rings=2, spokes=5, r_max=0.6)
    mesh = build_mesh(p, grid)
    assert mesh.vertices[0].z == 0j
    # build_mesh lifts the whole grid through numpy (lift_array), which
    # agrees with the scalar lift to roundoff rather than bit for bit
    for v in mesh.vertices[1:]:
        s = lift_sample(p, v.z)
        for got, want in ((v.u, s.u), (v.v, s.v), (v.f3, s.f3)):
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(rings=0)
    with pytest.raises(ValueError):
        GridSpec(spokes=2)
    with pytest.raises(ValueError):
        GridSpec(r_max=1.2)
