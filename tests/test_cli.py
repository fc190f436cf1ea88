import cmath
import json
import math
import re

import pytest

from shearlift._kernels import fallback
from shearlift.cli import main
from shearlift.families import FamilyParams, evaluate
from shearlift.render import fmt9
from shearlift.shear import grid_points
from shearlift.surface import GridSpec, build_mesh, lift_sample


def run(*argv):
    return main(list(argv))


def polyline_points(svg_text):
    curves = []
    for m in re.finditer(r'points="([^"]+)"', svg_text):
        curves.append([tuple(map(float, p.split(",")))
                       for p in m.group(1).split()])
    return curves


def test_fmt9():
    assert fmt9(0.0) == "0"
    assert fmt9(-0.0) == "0"
    assert fmt9(2.0 / 3.0) == "0.666666667"
    assert fmt9(123456789012.0) == "1.23456789e+11"
    assert fmt9(3e-15) == "0"  # rounding residue flushes to zero


def test_map_determinism(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (a, b):
        assert run("map", "--family", "f_1n", "--n", "3", "--rings", "4",
                   "--spokes", "8", "--samples", "64", "--out",
                   str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_map_strip_geometry(tmp_path):
    out = tmp_path / "strip.svg"
    assert run("map", "--family", "F_0a", "--a", "0", "--rings", "5",
               "--spokes", "8", "--samples", "64", "--out", str(out)) == 0
    text = out.read_text()
    assert "<polyline" in text and "<path" not in text
    curves = polyline_points(text)
    assert len(curves) == 5 + 8
    # coordinates are raw (u, v): the strip bound is visible in the file
    vs = [v for c in curves for _, v in c]
    assert max(abs(v) for v in vs) < math.pi / 4.0
    # single viewBox, no per-element transforms
    assert len(re.findall(r'viewBox="', text)) == 1
    assert "transform=" not in text


def test_map_slit_figure(tmp_path):
    out = tmp_path / "slit.svg"
    assert run("map", "--family", "f_2n", "--n", "3", "--rings", "4",
               "--spokes", "8", "--samples", "64", "--out", str(out)) == 0
    assert len(polyline_points(out.read_text())) == 12


def test_surface_counts_and_determinism(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    for out in (a, b):
        assert run("surface", "--family", "f_2n", "--n", "2", "--rings", "2",
                   "--spokes", "4", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 9
    assert sum(1 for l in lines if l.startswith("f ")) == 12
    # one-based face indices
    for l in lines:
        if l.startswith("f "):
            assert all(1 <= int(t) <= 9 for t in l.split()[1:])


def test_surface_matches_mesh(tmp_path):
    out = tmp_path / "m.obj"
    assert run("surface", "--family", "f_1n", "--n", "4", "--rings", "2",
               "--spokes", "4", "--rmax", "0.6", "--out", str(out)) == 0
    mesh = build_mesh(FamilyParams(family="f_1n", n=4),
                      GridSpec(rings=2, spokes=4, r_max=0.6))
    vlines = [l for l in out.read_text().splitlines() if l.startswith("v ")]
    for line, s in zip(vlines, mesh.vertices):
        assert line == f"v {fmt9(s.u)} {fmt9(s.v)} {fmt9(s.f3)}"


def test_surface_rejects_odd_n(tmp_path, capsys):
    out = tmp_path / "x.obj"
    assert run("surface", "--family", "f_2n", "--n", "3",
               "--out", str(out)) == 2
    assert not out.exists()
    assert "even n" in capsys.readouterr().err


def test_verify_pass_and_report(tmp_path):
    out = tmp_path / "rep.json"
    assert run("verify", "--family", "f_1n", "--n", "4",
               "--out", str(out)) == 0
    reports = json.loads(out.read_text())
    assert all(r["passed"] for r in reports)
    assert all("worst_point" in r for r in reports)
    names = [r["check_name"] for r in reports]
    assert "oracle_equivalence" in names
    assert "surface_properties" in names


def test_verify_forced_failure_exits_one(tmp_path):
    out = tmp_path / "rep.json"
    assert run("verify", "--family", "f_0n", "--n", "2", "--tol", "0",
               "--checks", "oracle_equivalence", "--out", str(out)) == 1
    reports = json.loads(out.read_text())
    assert reports[0]["passed"] is False


def test_verify_unknown_check_usage_error(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run("verify", "--family", "f_0n", "--n", "2",
               "--checks", "bogus", "--out", str(out)) == 2
    assert "bogus" in capsys.readouterr().err


def test_verify_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run("verify", "--family", "f_0n", "--n", "2", "--checks",
            "prevertex_identity,jacobian_positive", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_coeffs_stdout(capsys):
    assert run("coeffs", "--family", "f_1n", "--n", "3") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family"] == "f_1n_odd"
    assert doc["scalars"]["kappa1"] == {"num": 2, "den": 9}
    assert doc["reconstruction_residual"] < 1e-12


def test_coeffs_f2n_even(capsys):
    assert run("coeffs", "--family", "f_2n", "--n", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scalars"]["lambda4"] == {"num": 1, "den": 2}
    assert doc["reconstruction_residual"] < 1e-12
    assert len(doc["pole_coeffs"]) == 1  # k = 1 only for n = 4


def test_usage_errors():
    assert run("map", "--family", "not_a_family", "--out", "x.svg") == 2
    assert run() == 2


def test_bad_parameter_exits_two(tmp_path, capsys):
    out = tmp_path / "x.svg"
    assert run("map", "--family", "F_ca", "--c", "3.0",
               "--out", str(out)) == 2
    assert capsys.readouterr().err


def test_quadrature_failure_exits_two_naming_the_point(tmp_path, capsys,
                                                      monkeypatch):
    # the quadrature oracle of oracle_equivalence, capped at one
    # bisection, cannot converge on the default verify grid; the error
    # names the first point that failed, for f_cn and for F_ca
    batched = fallback.adaptive_segments
    monkeypatch.setattr(
        fallback, "adaptive_segments",
        lambda f, z0, z1, abs_tol, rel_tol, _: batched(f, z0, z1, abs_tol,
                                                       rel_tol, 1))
    for family, point in (
            (["--family", "f_cn", "--c", "1.0005", "--n", "8"],
             "z=(0.54+0j)"),
            (["--family", "F_ca", "--c", "0.0005", "--a", "-1"],
             "z=(-0.5991656052659468+0.19468070645621693j)")):
        out = tmp_path / "r.json"
        assert run("verify", *family, "--checks", "oracle_equivalence",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("shearlift verify: ")
        assert f"at grid point {point}:" in err
        assert "Traceback" not in err
        assert "too close to the boundary" not in err
        assert not out.exists()


def test_oracle_band_surface_at_rmax_limit(tmp_path):
    # c = 1.0005 lay in the former oracle band around 1; the closed-form
    # lift holds up to |z| = 0.999
    out = tmp_path / "x.obj"
    assert run("surface", "--family", "f_cn", "--c", "1.0005", "--n", "8",
               "--rmax", "0.999", "--rings", "1", "--spokes", "4",
               "--out", str(out)) == 0
    p = FamilyParams(family="f_cn", c=1.0005, n=8)
    vlines = [l for l in out.read_text().splitlines() if l.startswith("v ")]
    points = [0j] + grid_points(GridSpec(rings=1, spokes=4, r_max=0.999))
    assert len(vlines) == len(points)
    for line, z in zip(vlines[1:], points[1:]):
        s = lift_sample(p, z)
        assert not s.fallback
        assert line == f"v {fmt9(s.u)} {fmt9(s.v)} {fmt9(s.f3)}"


def test_verify_report_of_fallback_lift_is_plain_json(tmp_path):
    # the quadrature oracle feeds numpy residuals to oracle_equivalence;
    # neither their floats nor a numpy bool may leak into the report
    out = tmp_path / "r.json"
    assert run("verify", "--family", "f_cn", "--c", "1.0005", "--n", "8",
               "--checks", "oracle_equivalence,surface_properties",
               "--out", str(out)) == 0
    for report in json.loads(out.read_text()):
        assert report["passed"] is True
        assert isinstance(report["max_residual"], float)


def test_map_accepts_its_own_grid_at_rmax_limit(tmp_path, capsys):
    # r*exp(i*theta) with r = 0.999 can round to a modulus just above
    # 0.999; the grid must not be refused for it.  F_ca at c = 0.0005 lay
    # in the former oracle band; its closed form holds up to z = +-0.999
    # on the real axis.
    out = tmp_path / "x.svg"
    assert run("map", "--family", "F_ca", "--c", "0.0005", "--a", "-1",
               "--rmax", "0.999", "--rings", "2", "--spokes", "8",
               "--samples", "32", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    rings = polyline_points(out.read_text())[:2]
    p = FamilyParams(family="F_ca", c=0.0005, a=-1.0)
    for k in (0, 8, 16, 24):
        z = 0.999 * cmath.exp(2j * math.pi * k / 32)
        s = evaluate(p, z)
        assert not s.fallback
        assert rings[1][k] == (float(fmt9(s.u)), float(fmt9(s.v)))
