"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Each check first accepts a true
output of the program, then must reject the same output with one defect
put in: a coordinate off by 1e-6, a dropped mesh face, a failed report, a
library result off by 1e-7, an output that changes between rounds, an
operation that raises.  Exits 0 when every check behaves, 1 otherwise.
"""

import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from shearlift import cli, families, surface  # noqa: E402
from shearlift.families import FamilyParams  # noqa: E402

RESULTS = []


def expect(name, problems, reject):
    ok = bool(problems) == reject
    RESULTS.append(ok)
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
          + (f" ({problems[0][:90]})" if problems else ""))


def nudge(x, rel):
    return x + rel * max(1.0, abs(x))


def cli_text(argv, workdir):
    path = os.path.join(workdir, "out")
    rc = cli.main(argv + ["--out", path])
    assert rc == 0, f"{argv} exited {rc}"
    return Path(path).read_text()


def svg_tests(workdir):
    p = FamilyParams("F_ca", c=1.5, a=0.3)
    grid = (2, 3, 0.98, 16)
    text = cli_text(["map", "--family", "F_ca", "--c", "1.5", "--a", "0.3",
                     "--rings", "2", "--spokes", "3", "--samples", "16"],
                    workdir)
    sh = checks.family_shear(p.family, p.c, p.a)
    quad = [5]
    expect("svg as written", checks.check_svg(text, sh, grid, quad,
                                              lambda z: False), False)
    bodies = re.findall(r'points="([^"]*)"', text)
    pairs = bodies[0].split()

    def with_pair(i, u_rel, v_rel):
        u, v = (float(q) for q in pairs[i].split(","))
        new = pairs[:i] + [f"{nudge(u, u_rel)!r},{nudge(v, v_rel)!r}"] \
            + pairs[i + 1:]
        return text.replace(bodies[0], " ".join(new), 1)

    expect("svg u off by 1e-6 at a checked point",
           checks.check_svg(with_pair(5, 1e-6, 0), sh, grid, quad,
                            lambda z: False), True)
    expect("svg v off by 1e-6",
           checks.check_svg(with_pair(2, 0, 1e-6), sh, grid, quad,
                            lambda z: False), True)
    expect("svg point dropped",
           checks.check_svg(text.replace(bodies[0],
                                         " ".join(pairs[1:]), 1),
                            sh, grid, quad, lambda z: False), True)


def obj_tests(workdir):
    grid = (3, 5, 0.95)
    text = cli_text(["surface", "--family", "f_1n", "--n", "4", "--rings",
                     "3", "--spokes", "5", "--rmax", "0.95"], workdir)
    sh = checks.family_shear("f_1n", n=4)
    quad = [7]
    expect("obj as written", checks.check_obj(text, sh, grid, quad,
                                              lambda z: False), False)
    lines = text.splitlines()
    faces = [i for i, line in enumerate(lines) if line.startswith("f ")]
    expect("obj face dropped",
           checks.check_obj("\n".join(lines[:faces[3]] + lines[faces[3] + 1:]),
                            sh, grid, quad, lambda z: False), True)
    verts = [i for i, line in enumerate(lines) if line.startswith("v ")]
    u, v, f3 = (float(q) for q in lines[verts[7]].split()[1:])
    bad = list(lines)
    bad[verts[7]] = f"v {u!r} {v!r} {nudge(f3, 1e-6)!r}"
    expect("obj F3 off by 1e-6 at a checked vertex",
           checks.check_obj("\n".join(bad), sh, grid, quad, lambda z: False),
           True)


def report_tests(workdir):
    names = ["prevertex_identity", "jacobian_positive"]
    text = cli_text(["verify", "--family", "f_2n", "--n", "3", "--checks",
                     ",".join(names)], workdir)
    expect("report as written", checks.check_report(text, names), False)
    expect("report with a failed check",
           checks.check_report(text.replace('"passed": true',
                                             '"passed": false', 1), names),
           True)
    expect("report missing a check",
           checks.check_report(text, names + ["chd_heuristic"]), True)


def library_tests():
    p = FamilyParams("F_1a", a=-0.4)
    sh = checks.family_shear(p.family, p.c, p.a)
    z = 0.6 - 0.55j
    s = families.evaluate(p, z)
    expect("evaluate as returned",
           checks.check_sample(sh, z, s.h, s.g, s.u, s.v, checks.TOL, True),
           False)
    expect("evaluate h off by 1e-7",
           checks.check_sample(sh, z, s.h + 1e-7 * max(1, abs(s.h)),
                               s.g + 1e-7 * max(1, abs(s.h)), s.u, s.v,
                               checks.TOL, True), True)
    expect("evaluate v off by 1e-7",
           checks.check_sample(sh, z, s.h, s.g, s.u, nudge(s.v, 1e-7),
                               checks.TOL, False), True)
    d = families.hprime(p, z)
    expect("hprime as returned", checks.check_derivative(sh, z, d, "h"), False)
    expect("hprime off by 1e-7",
           checks.check_derivative(sh, z, d * (1 + 1e-7), "h"), True)
    q = FamilyParams("f_2n", n=4)
    shq = checks.family_shear(q.family, n=4)
    lift = surface.lift_sample(q, z)
    expect("lift_sample as returned",
           checks.check_lift(shq, z, lift.u, lift.v, lift.f3, checks.TOL,
                             True), False)
    expect("lift_sample F3 off by 1e-7",
           checks.check_lift(shq, z, lift.u, lift.v, nudge(lift.f3, 1e-7),
                             checks.TOL, True), True)


def run_tests(workdir):
    """The checks the run makes itself: outputs repeat in every round,
    and only the known fault may raise."""
    import workloads
    from shearlift.errors import ConvergenceError

    def fresh(jobs):
        r = run.Run("library-points", 1, 0.0, 0, workdir)
        r.jobs = jobs
        r.min_rounds = 2
        r.trace = 1  # no set-up samples
        r.warm_up()
        r.measure()
        r.check()
        return r

    counter = iter(range(10**6))
    drifting = workloads.Job(name="drifting", kind="x",
                             call=lambda: next(counter), points=1,
                             check=lambda out: [])
    expect("output that changes between rounds", fresh([drifting]).problems,
           True)

    def boom():
        raise ConvergenceError("stalled")

    known = workloads.Job(name="known", kind="x", call=boom, points=1,
                          check=lambda out: [], known_fault=ConvergenceError)
    r = fresh([known])
    expect("known fault counted, not a problem", r.problems, False)
    RESULTS.append(r.failed == r.attempted == r.rounds)
    unknown = workloads.Job(name="unknown", kind="x", call=boom, points=1,
                            check=lambda out: [])
    expect("operation that raises", fresh([unknown]).problems, True)


def main():
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        svg_tests(workdir)
        obj_tests(workdir)
        report_tests(workdir)
        library_tests()
        run_tests(workdir)
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed} of {len(RESULTS)} self-tests pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
