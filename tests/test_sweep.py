"""tools/sweep.py on a tiny subset of its jobs and dumps: a directory
compared with itself reads no difference, one perturbed number is reported
with its relative move, and one changed dump word is counted."""

import importlib.util
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SUBSET = ("map_F_a_a0.5", "surface_f_2n_n2", "verify_f_2n_n1",
          "coeffs_f_1n_n3")


def test_job_list(sweep):
    commands = [command for command, _ in sweep.JOBS.values()]
    assert [commands.count(c) for c in ("map", "surface", "verify",
                                        "coeffs")] == [49, 23, 68, 6]
    assert set(SUBSET) <= set(sweep.JOBS)


def test_a_large_n_job_records_its_exit_code(sweep, tmp_path):
    # f_0n n = 18 still passes surface_properties, which fails from
    # n = 26 on
    sweep.write(tmp_path, ["verify_f_0n_n18"])
    assert (tmp_path / "index.txt").read_text() == (
        "verify_f_0n_n18 0 verify --family f_0n --n 18\n")
    reports = json.loads((tmp_path / "verify_f_0n_n18.json").read_text())
    assert [r["check_name"] for r in reports][-1] == "surface_properties"
    assert all(r["passed"] for r in reports)


def test_compare_reads_a_perturbed_number(sweep, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    sweep.write(a, SUBSET)
    assert sorted(p.name for p in a.iterdir()) == sorted(
        [f"{name}.{sweep.EXTENSION[name.split('_')[0]]}" for name in SUBSET]
        + ["index.txt"])
    out = io.StringIO()
    assert sweep.compare(a, a, out) == 0
    assert out.getvalue().splitlines()[-1] == "0 of 5 files differ"

    shutil.copytree(a, b)
    obj = b / "surface_f_2n_n2.obj"
    lines = obj.read_text().splitlines(keepends=True)
    # u of vertex 1, moved by 1e-6 of itself
    i = [i for i, line in enumerate(lines) if line.startswith("v ")][1]
    words = lines[i].split(" ")
    words[1] = f"{float(words[1]) * (1.0 + 1e-6):.9g}"
    lines[i] = " ".join(words)
    obj.write_text("".join(lines))
    out = io.StringIO()
    assert sweep.compare(a, b, out) == 1
    report = out.getvalue().splitlines()
    head, move = report[3].rsplit(" ", 1)
    assert head == ("surface_f_2n_n2.obj: DIFFERS, 1 of 2100 numbers "
                    "differ, largest relative move")
    assert float(move) == pytest.approx(1e-6, rel=1e-2)
    assert report[-1] == "1 of 5 files differ"

    (b / "coeffs_f_1n_n3.json").unlink()
    (b / "index.txt").write_text("text")
    out = io.StringIO()
    assert sweep.compare(a, b, out) == 3
    report = out.getvalue()
    assert f"coeffs_f_1n_n3.json: DIFFERS, only in {a}" in report
    assert "index.txt: DIFFERS, differs outside its numbers" in report


def test_main_refuses_an_unknown_command(sweep, tmp_path):
    with pytest.raises(SystemExit) as exc:
        sweep.main(["write", str(tmp_path), "--commands", "map,nope"])
    assert exc.value.code == 2


DUMP_SUBSET = ("python/evaluate_F_ca_c1.5_a-0.4", "python/lift_sample_f_2n_n6",
               "numpy/shear_at_f_1n_n4", "numpy/hyp2f1_1c_c1.5")


def test_dump_compare_reads_a_changed_word(sweep, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    sweep.dump(a, DUMP_SUBSET)
    assert sorted(p.relative_to(a).as_posix() for p in a.rglob("*.u64")) \
        == sorted(f"{name}.u64" for name in DUMP_SUBSET)
    out = io.StringIO()
    assert sweep.compare(a, a, out) == 0
    assert out.getvalue().splitlines()[-1] == "0 of 4 files differ"
    # a dump writes the same words alone as among others
    sweep.dump(b, DUMP_SUBSET[2:3])
    name = f"{DUMP_SUBSET[2]}.u64"
    assert (b / name).read_bytes() == (a / name).read_bytes()
    shutil.rmtree(b)

    shutil.copytree(a, b)
    path = b / "numpy" / "shear_at_f_1n_n4.u64"
    words = np.fromfile(path, dtype="<u8")
    # 48 samples of h, g, u and v, six float64 words each
    assert words.size == 6 * 48
    words[7] ^= 1
    words.tofile(path)
    out = io.StringIO()
    assert sweep.compare(a, b, out) == 1
    report = out.getvalue().splitlines()
    assert ("numpy/shear_at_f_1n_n4.u64: DIFFERS, 1 of 288 words differ"
            in report)
    assert report[-1] == "1 of 4 files differ"
    assert sweep.main(["compare", str(a), str(b)]) == 1

    words[:-1].tofile(path)
    out = io.StringIO()
    assert sweep.compare(a, b, out) == 1
    assert ("numpy/shear_at_f_1n_n4.u64: DIFFERS, 288 against 287 words"
            in out.getvalue())
