"""tools/sweep.py on a tiny subset of its jobs: a directory compared with
itself reads no difference, and one perturbed number is reported with its
relative move."""

import importlib.util
import io
import shutil
from pathlib import Path

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
                                        "coeffs")] == [44, 18, 33, 6]
    assert set(SUBSET) <= set(sweep.JOBS)


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
