"""Golden outputs of the command line.

SVG figures are pinned by SHA-256 and must stay byte-identical, and so
must the partial-fraction coefficients of `coeffs`.  OBJ meshes
and verify reports are compared with the files in tests/golden/ number by
number: two numbers agree when they differ by at most one unit in their
9th significant digit, the precision of the OBJ text (fmt9).  A verify
residual pinned below ROUNDOFF measures rounding noise only (the closed
forms are O(1) to O(1e3) on these grids); it must stay below that bound,
and the worst point it names is not compared.  Other worst points are
grid points and must agree up to the signs of their coordinates.

To regenerate the golden files after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from shearlift.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# criterion 10's figures, default-grid maps of the catalog, and a small
# map of F_ca inside the oracle band around c = 1
SVG_JOBS = {
    "crit10_F_a": (["--family", "F_a", "--a", "0.3", "--rings", "6",
                    "--spokes", "12", "--samples", "128"],
        "b0f9df38c4ad72fb4d5180cbc5dc0eee835597ec3529a7ce4300f3bbbc9373bb"),
    "crit10_F_0a": (["--family", "F_0a", "--a", "0.3", "--rings", "6",
                     "--spokes", "12", "--samples", "128"],
        "b4060b86fd2aa516003cdedffeacff71450530e62caa66a70e2cbe348bb7634b"),
    "crit10_f_1n": (["--family", "f_1n", "--n", "4", "--rings", "6",
                     "--spokes", "12", "--samples", "128"],
        "6c8b96ef783b714997f9366d0275cecffd9fe71915d9ad68ca85f7b57761927f"),
    "crit10_f_2n": (["--family", "f_2n", "--n", "4", "--rings", "6",
                     "--spokes", "12", "--samples", "128"],
        "83222437490467a91b49084302c9e8d033b410835b360480d0fdf6b7e5655b3b"),
    "crit10_f_cn": (["--family", "f_cn", "--c", "0.5", "--n", "3", "--rings",
                     "6", "--spokes", "12", "--samples", "128"],
        "c8cd9e277610b89e9203642cf1915ffd83cde031274093513e8b0e207e334c5b"),
    "F_ca_c1.5": (["--family", "F_ca", "--c", "1.5", "--a", "-0.4"],
        "498f341c52b43f789f18a0ec412d2412b384550878e2bc08256d43a66e3a2724"),
    "F_ca_c0.5": (["--family", "F_ca", "--c", "0.5", "--a", "0.7"],
        "5953ecdb0963d4893525d009789d16292451c8cf90d8c48b6848fd99b0a7a47d"),
    "F_ca_c2": (["--family", "F_ca", "--c", "2", "--a", "0.2"],
        "4f71be43c25bc44bd166cd6cd5bd858f14b1ae21adfd3eae5ed2d46574b6b35c"),
    "F_1a": (["--family", "F_1a", "--a", "-0.6"],
        "c315db35b87cef57b7a7a9463c4ef271f559c9ad7a401b4e7e053630eba7d973"),
    # the innermost samples of the +-pi/2 spokes, exactly +-0.003828125i,
    # write u = 1.07376737e-10 (mpmath: 1.07376737152733e-10 at both)
    "f_0n_n3": (["--family", "f_0n", "--n", "3"],
        "4ad7b10aa962e817836a152ef760a3666671d9acdc8c20ad8e212b32caf53d72"),
    "f_2n_n2": (["--family", "f_2n", "--n", "2"],
        "65e56a22f26e64791cb5377aca5aff2b336209c7e195ca134b1e9199b149e676"),
    "F_ca_band": (["--family", "F_ca", "--c", "1.0005", "--a", "0.5",
                   "--rings", "2", "--spokes", "4", "--samples", "16"],
        "5fee7a7a92512a706149fa555cdfcb518be934e91d6160c941b6f9708eb5457e"),
    # every v is Im z, written the same at every SIMD level of numpy; as
    # Im(h - g), a few 9-digit ties came out differently at its baseline
    "F_a_a0.5": (["--family", "F_a", "--a", "0.5"],
        "dececa346c6b5c57dc44fe541b9939c25992b6a2f63d83c43eb43af337280d9d"),
    "F_a_a0.9": (["--family", "F_a", "--a", "0.9"],
        "1636cdeb4841abb7b3cf65d07812f212aa93a6117e0b6c942308061fec7cdd2f"),
}

OBJ_JOBS = {
    "crit09_f_2n": ["--family", "f_2n", "--n", "4", "--rings", "3",
                    "--spokes", "6"],
    "f_0n_n2": ["--family", "f_0n", "--n", "2"],
    "f_1n_n4": ["--family", "f_1n", "--n", "4"],
    "f_2n_n6": ["--family", "f_2n", "--n", "6", "--rmax", "0.999"],
    "f_cn_c0.5_n4": ["--family", "f_cn", "--c", "0.5", "--n", "4",
                     "--rings", "4", "--spokes", "12"],
    "f_cn_c1.5_n8": ["--family", "f_cn", "--c", "1.5", "--n", "8",
                     "--rings", "3", "--spokes", "8", "--rmax", "0.95"],
}

JSON_JOBS = {
    "crit09_f_0n": ["--family", "f_0n", "--n", "2", "--checks",
                    "prevertex_identity,jacobian_positive,chd_heuristic"],
    "F_a": ["--family", "F_a", "--a", "0.3"],
    "F_0a": ["--family", "F_0a", "--a", "-1"],
    "F_1a": ["--family", "F_1a", "--a", "0.5"],
    "F_ca_c2": ["--family", "F_ca", "--c", "2", "--a", "0.4"],
    "f_2n_n2": ["--family", "f_2n", "--n", "2"],
    "f_cn_c0.5_n4": ["--family", "f_cn", "--c", "0.5", "--n", "4",
                     "--checks", "prevertex_identity,jacobian_positive,"
                                 "chd_heuristic,surface_properties"],
}

COEFFS_JOBS = {
    "coeffs_f1n_n7": ["--family", "f_1n", "--n", "7"],
    "coeffs_f2n_n10": ["--family", "f_2n", "--n", "10"],
}

ROUNDOFF = 1e-10


def _run(kind, args, path):
    assert main([kind] + args + ["--out", str(path)]) == 0


def _ninth_digit_unit(x):
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def agree9(a, b):
    """a and b differ by at most one unit in the 9th significant digit."""
    if a == b:
        return True
    big = max(abs(a), abs(b))
    # fmt9 flushes |x| < 1e-12 to 0, so a value at that edge may flip
    if min(abs(a), abs(b)) == 0.0:
        return big < 1e-11
    return abs(a - b) <= _ninth_digit_unit(big) * (1.0 + 1e-6)


def _obj_numbers(text):
    return [[float(q) for q in line.split()[1:]]
            for line in text.splitlines() if line.startswith(("v ", "f "))]


@pytest.mark.parametrize("name", sorted(SVG_JOBS))
def test_svg_byte_identical(name, tmp_path):
    args, digest = SVG_JOBS[name]
    out = tmp_path / f"{name}.svg"
    _run("map", args, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(OBJ_JOBS))
def test_obj_numbers(name, tmp_path):
    out = tmp_path / f"{name}.obj"
    _run("surface", OBJ_JOBS[name], out)
    text = out.read_text()
    golden = (GOLDEN / f"{name}.obj").read_text()
    # the manifest comments are text, not numbers
    comments = [line for line in text.splitlines() if line.startswith("#")]
    assert comments == [line for line in golden.splitlines()
                        if line.startswith("#")]
    got, want = _obj_numbers(text), _obj_numbers(golden)
    assert [len(r) for r in got] == [len(r) for r in want]
    bad = [(i, g, w) for i, (rg, rw) in enumerate(zip(got, want))
           for g, w in zip(rg, rw) if not agree9(g, w)]
    assert not bad, bad[:5]


@pytest.mark.parametrize("name", sorted(COEFFS_JOBS))
def test_coeffs_byte_identical(name, tmp_path):
    out = tmp_path / f"{name}.json"
    _run("coeffs", COEFFS_JOBS[name], out)
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def _compare_report(got, want):
    problems = []
    for key in ("check_name", "family", "grid", "tolerance", "passed",
                "n_points"):
        if got[key] != want[key]:
            problems.append(f"{key}: {got[key]!r} != {want[key]!r}")
    if abs(want["max_residual"]) < ROUNDOFF:
        if not abs(got["max_residual"]) < ROUNDOFF:
            problems.append(f"roundoff residual {got['max_residual']!r} "
                            f"over {ROUNDOFF!r}")
        return problems
    if not agree9(got["max_residual"], want["max_residual"]):
        problems.append(f"max_residual: {got['max_residual']!r} != "
                        f"{want['max_residual']!r}")
    # a residual that is even in Re z or Im z ties between mirror points
    # to the last bit, so the worst point is compared up to sign
    if not all(abs(abs(g) - abs(w)) <= 1e-12
               for g, w in zip(got["worst_point"], want["worst_point"])):
        problems.append(f"worst_point: {got['worst_point']!r} != "
                        f"{want['worst_point']!r}")
    return problems


@pytest.mark.parametrize("name", sorted(JSON_JOBS))
def test_verify_report_numbers(name, tmp_path):
    out = tmp_path / f"{name}.json"
    _run("verify", JSON_JOBS[name], out)
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert [r["check_name"] for r in got] == [r["check_name"] for r in want]
    problems = [p for g, w in zip(got, want) for p in _compare_report(g, w)]
    assert not problems, problems


def test_agree9():
    assert agree9(1.23456789, 1.2345679)
    assert not agree9(1.23456789, 1.23456791)
    assert agree9(-2.0e-7, -2.00000001e-7)
    assert agree9(9.99999999e-13, 0.0)
    assert not agree9(1e-10, 0.0)


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, args in OBJ_JOBS.items():
        _run("surface", args, GOLDEN / f"{name}.obj")
    for name, args in JSON_JOBS.items():
        _run("verify", args, GOLDEN / f"{name}.json")
    for name, args in COEFFS_JOBS.items():
        _run("coeffs", args, GOLDEN / f"{name}.json")
    scratch = GOLDEN / "scratch.svg"
    for name, (args, _) in sorted(SVG_JOBS.items()):
        _run("map", args, scratch)
        print(name, hashlib.sha256(scratch.read_bytes()).hexdigest())
    scratch.unlink()


if __name__ == "__main__":
    sys.exit(_regenerate())
