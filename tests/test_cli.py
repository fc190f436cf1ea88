import cmath
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

import shearlift
from shearlift._kernels import fallback
from shearlift.cli import build_parser, main
from shearlift.families import FamilyParams, evaluate
from shearlift.render import fmt9, report_document
from shearlift.shear import grid_points
from shearlift.surface import GridSpec, build_mesh, lift_sample
from shearlift.verify import default_check_set, run_checks


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
    # a call with other options between the two runs must leave no trace
    # in the parser that main reuses
    a, b, other = tmp_path / "a.svg", tmp_path / "b.svg", tmp_path / "o.svg"
    for out in (a, b):
        assert run("map", "--family", "f_1n", "--n", "3", "--rings", "4",
                   "--spokes", "8", "--samples", "64", "--out",
                   str(out)) == 0
        assert run("map", "--family", "F_ca", "--c", "1.5", "--a", "0.2",
                   "--rings", "2", "--spokes", "5", "--rmax", "0.5",
                   "--samples", "16", "--out", str(other)) == 0
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
    for line, (u, v, f3) in zip(vlines, mesh.vertices):
        assert line == f"v {fmt9(u)} {fmt9(v)} {fmt9(f3)}"


def test_surface_rejects_odd_n(tmp_path, capsys):
    out = tmp_path / "x.obj"
    assert run("surface", "--family", "f_2n", "--n", "3",
               "--out", str(out)) == 2
    assert not out.exists()
    assert "even n" in capsys.readouterr().err


def test_surface_of_a_mobius_family_exits_two(tmp_path, capsys):
    # F_ca has no power dilatation at any n; the lift's one check says so
    # before it looks at n
    out = tmp_path / "x.obj"
    assert run("surface", "--family", "F_ca", "--c", "0.5",
               "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("shearlift surface: ")
    assert "no power dilatation" in err


# one small job of each command that writes --out
OUT_JOBS = pytest.mark.parametrize("argv", [
    ("map", "--family", "F_a", "--rings", "2", "--spokes", "4",
     "--samples", "16"),
    ("surface", "--family", "f_2n", "--n", "2", "--rings", "2",
     "--spokes", "4"),
    ("verify", "--family", "f_0n", "--n", "2", "--checks",
     "prevertex_identity"),
    ("coeffs", "--family", "f_1n", "--n", "3"),
], ids=lambda argv: argv[0])


@OUT_JOBS
def test_unwritable_output_exits_two(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.out"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"shearlift {argv[0]}: ")
    assert str(out) in err
    assert "Traceback" not in err
    assert not out.parent.exists()


@OUT_JOBS
@pytest.mark.parametrize("size", [2 ** 20, 10], ids=("1MB", "10B"))
def test_overwrite_gives_the_bytes_of_a_fresh_write(tmp_path, argv, size):
    # the old file is written over in place and cut to the new length:
    # none of its bytes may survive, whether it was longer or shorter
    fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
    assert run(*argv, "--out", str(fresh)) == 0
    old.write_bytes(b"\xff" * size)
    assert run(*argv, "--out", str(old)) == 0
    assert old.read_bytes() == fresh.read_bytes()


@OUT_JOBS
def test_output_to_devnull(argv):
    # a character device cannot be truncated; it is only written
    assert run(*argv, "--out", os.devnull) == 0


@OUT_JOBS
def test_output_through_links(tmp_path, argv):
    fresh, target = tmp_path / "fresh.out", tmp_path / "target.out"
    assert run(*argv, "--out", str(fresh)) == 0
    target.write_bytes(b"\xff" * 2 ** 16)
    symlink, hardlink = tmp_path / "sym.out", tmp_path / "hard.out"
    try:
        symlink.symlink_to(target)
        os.link(target, hardlink)
    except (OSError, NotImplementedError) as exc:
        pytest.skip(f"no links here: {exc}")
    assert run(*argv, "--out", str(symlink)) == 0
    assert symlink.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()
    target.write_bytes(b"\xff" * 10)
    assert run(*argv, "--out", str(hardlink)) == 0
    assert os.path.samefile(hardlink, target)
    assert target.read_bytes() == fresh.read_bytes()


@OUT_JOBS
def test_output_to_a_directory_exits_two(tmp_path, capsys, argv):
    assert run(*argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"shearlift {argv[0]}: cannot write {tmp_path}: ")
    assert "Traceback" not in err
    assert tmp_path.is_dir()


def test_out_of_memory_exits_two(tmp_path):
    # a grid too large for a 512 MiB address space, set on the child
    # process only: exit 2 naming the size options, not a traceback
    resource = pytest.importorskip("resource")
    limit = 512 * 2 ** 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    package_root = os.path.dirname(os.path.dirname(shearlift.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [package_root, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "x.obj"
    proc = subprocess.run(
        [sys.executable, "-m", "shearlift.cli", "surface", "--family",
         "f_2n", "--n", "2", "--rings", "3000", "--spokes", "3000",
         "--out", str(out)],
        env=env, preexec_fn=cap_address_space, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("shearlift surface: out of memory")
    assert "--rings, --spokes" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("option", [("--tol", "-1"), ("--tol", "nan"),
                                    ("--tol", "inf"), ("--tol", "abc"),
                                    ("--checks", ",")],
                         ids=("tol-negative", "tol-nan", "tol-inf",
                              "tol-text", "checks-empty"))
def test_verify_bad_arguments_exit_two(tmp_path, capsys, option):
    out = tmp_path / "r.json"
    assert run("verify", "--family", "f_0n", "--n", "2", *option,
               "--out", str(out)) == 2
    assert f"argument {option[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    (("--samples", "8"), "samples_per_curve must be >= 16"),
    (("--spokes", "0"), "rings and spokes must be >= 1"),
], ids=("samples", "spokes"))
def test_map_bad_grid_exits_two(tmp_path, capsys, option, message):
    out = tmp_path / "x.svg"
    assert run("map", "--family", "F_a", *option, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"shearlift map: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("family", (["f_cn", "--c", "1.999", "--n", "4"],
                                    ["f_cn", "--c", "0.0005", "--n", "2"],
                                    ["f_0n", "--n", "2"]),
                         ids=("f_cn_n4", "f_cn_n2", "f_0n_n2"))
def test_surface_height_is_zero_on_the_real_axis(tmp_path, family):
    # F3 of a real z is exactly 0, not roundoff residue above fmt9's flush:
    # the two terms of each conjugate root pair are the same numbers there,
    # and the spoke at angle pi lies exactly on the axis (1.2e-16 r off it,
    # F3 next to z = -1 would be ~6e-11)
    out = tmp_path / "x.obj"
    assert run("surface", "--family", *family, "--rmax", "0.999",
               "--rings", "10", "--spokes", "8", "--out", str(out)) == 0
    axis = [line.split() for line in out.read_text().splitlines()
            if line.startswith("v ") and line.split()[2] == "0"]
    # the centre and the spokes at angles 0 and pi
    assert len(axis) == 21
    assert all(f3 == "0" for _, _, _, f3 in axis)


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


@pytest.mark.parametrize("family", ("f_1n", "f_2n"))
@pytest.mark.parametrize("n", (4, 8, 12))
def test_coeffs_write_no_negative_zero(capsys, family, n):
    # the k = n/4 pole coefficient has an exact zero part, and the complex
    # division that gives it leaves that zero's sign to its operand order
    assert run("coeffs", "--family", family, "--n", str(n)) == 0
    text = capsys.readouterr().out
    assert re.search(r"-0\.0(?!\d)", text) is None
    zeros = [x for pole in json.loads(text)["pole_coeffs"]
             for x in pole["coeff"] + pole["conjugate"] if x == 0.0]
    assert zeros and all(math.copysign(1.0, x) > 0 for x in zeros)


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
    # the quadrature oracle of oracle_equivalence, allowed no bisection,
    # cannot converge on the default verify grid (its ring-to-ring
    # segments converge within one); the error names the outer end of
    # the first segment that failed, for f_cn and for F_ca
    batched = fallback.adaptive_segments
    monkeypatch.setattr(
        fallback, "adaptive_segments",
        lambda f, z0, z1, abs_tol, rel_tol, _: batched(f, z0, z1, abs_tol,
                                                       rel_tol, 0))
    for family, point in (
            (["--family", "f_cn", "--c", "1.0005", "--n", "8"],
             "z=(0.9+0j)"),
            (["--family", "F_ca", "--c", "0.0005", "--a", "-1"],
             "z=(0.9+0j)")):
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


def _strict_json(text):
    def refuse(name):
        raise AssertionError(f"{name} in a report")
    return json.loads(text, parse_constant=refuse)


def test_verify_non_finite_residual_is_null_and_named(tmp_path, capsys):
    # at n = 1024, h' z^(n/2) underflows to 0 on the ring |z| = 0.2 and
    # the lift residual divides by it: the check fails, the report stays
    # strict JSON, and no floating-point warning is printed
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("verify", "--family", "f_2n", "--n", "1024", "--checks",
                   "surface_properties", "--out", str(out)) == 1
    (report,) = _strict_json(out.read_text())
    assert report["max_residual"] is None
    assert report["passed"] is False
    assert report["worst_point"] == [0.2, 0.0]
    assert capsys.readouterr().err == (
        "shearlift verify: surface_properties: residual inf at "
        "z = (0.2+0j)\n")


def test_report_document_refuses_non_finite_numbers():
    (report,) = run_checks(FamilyParams(family="f_0n", n=2),
                           ["prevertex_identity"])
    assert _strict_json(report_document([report]))[0]["passed"] is True
    for field in ("tolerance", "worst_point"):
        bad = dataclasses.replace(report, **{field: math.nan})
        with pytest.raises(ValueError):
            report_document([bad])
    nan = dataclasses.replace(report, max_residual=math.nan, passed=False)
    assert _strict_json(report_document([nan]))[0]["max_residual"] is None


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


def test_verify_rejects_a_repeated_check_name(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run("verify", "--family", "f_0n", "--n", "2", "--checks",
               "prevertex_identity,jacobian_positive,prevertex_identity",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "argument --checks" in err and "'prevertex_identity'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("map", "--family", "F_a", "--samples", "16"),
    ("surface", "--family", "f_2n", "--n", "2"),
], ids=lambda argv: argv[0])
def test_map_and_surface_share_the_rmax_bound(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    grid = ("--rings", "1", "--spokes", "4", "--out", str(out))
    assert run(*argv, *grid, "--rmax", "0.9995") == 2
    assert "r_max must lie in (0, 0.999]" in capsys.readouterr().err
    assert not out.exists()
    assert run(*argv, *grid, "--rmax", "0.999") == 0
    assert out.exists()


@pytest.mark.parametrize("argv,name", [
    (("map", "--family", "F_a", "--c", "1.7"), "--c"),
    (("map", "--family", "F_a", "--n", "5"), "--n"),
    (("surface", "--family", "f_2n", "--n", "2", "--a", "0.5"), "--a"),
    (("verify", "--family", "f_cn", "--c", "0.5", "--n", "3",
      "--a", "-0.2", "--checks", "prevertex_identity"), "--a"),
    (("map", "--family", "f_0n", "--n", "3", "--c", "5"), "--c"),
], ids=lambda v: v if isinstance(v, str) else v[0] + "-" + v[2])
def test_parameter_the_family_does_not_use_exits_two(tmp_path, capsys, argv,
                                                      name):
    out = tmp_path / "x.out"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{name} " in err and "does not apply to family" in err
    assert not out.exists()


def test_unused_parameters_at_their_defaults_are_accepted(tmp_path):
    out = tmp_path / "x.svg"
    assert run("map", "--family", "F_a", "--c", "0", "--n", "1", "--a",
               "0.3", "--rings", "1", "--spokes", "4", "--samples", "16",
               "--out", str(out)) == 0
    assert "family: F_a c=0 a=0.3 n=1" in out.read_text()


# main builds its parser once per process and reuses it: no parse may leave
# state behind for the next one


def test_build_parser_returns_one_parser():
    assert build_parser() is build_parser()


def test_verify_options_do_not_carry_over(tmp_path):
    out = tmp_path / "rep.json"
    argv = ("verify", "--family", "F_a", "--a", "0.3", "--out", str(out))

    def reports():
        return json.loads(out.read_text())

    assert run(*argv, "--checks", "prevertex_identity") == 0
    assert [r["check_name"] for r in reports()] == ["prevertex_identity"]
    assert run(*argv) == 0
    assert [r["check_name"] for r in reports()] == [
        name for name, _ in default_check_set(FamilyParams("F_a", a=0.3))]

    assert run(*argv, "--checks", "oracle_equivalence", "--tol", "0") == 1
    assert reports()[0]["tolerance"] == 0.0
    assert run(*argv, "--checks", "oracle_equivalence") == 0
    assert reports()[0]["tolerance"] == 1e-8


def test_parser_serves_later_calls_after_a_usage_error(tmp_path, capsys):
    # built on the real streams, it must still write to the captured ones
    with capsys.disabled():
        build_parser()
    assert run("map", "--family", "nope", "--out", "x.svg") == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "'nope'" in err
    assert run("--version") == 0
    assert capsys.readouterr().out == shearlift.__version__ + "\n"
    assert run("map", "--help") == 0
    assert capsys.readouterr().out.startswith("usage: shearlift map")
    out = tmp_path / "x.svg"
    assert run("map", "--family", "F_a", "--rings", "1", "--spokes", "3",
               "--samples", "16", "--out", str(out)) == 0
    assert out.read_text().startswith("<?xml")
    assert capsys.readouterr().err == ""
