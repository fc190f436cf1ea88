"""Seeded job lists of the benchmark workloads.

A workload is one round of jobs; a run repeats the round whole.  Every job
calls shearlift through its public API: ``cli.main(argv)`` for the CLI
workloads, the per-point library functions for ``library-points``.  Each
function is looked up on its module at call time, so the wrappers of the
traced run are seen.  The seed moves parameters, points, the order of the
jobs and the points the correctness checks take; the make-up of a round
does not depend on it.
"""

import cmath
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from shearlift import cli, families, shear, surface
from shearlift.errors import ConvergenceError
from shearlift.families import FamilyParams

import checks


@dataclass
class Job:
    """One timed operation and how to judge what it returned.

    ``call`` is the timed operation.  ``output`` turns its return value
    into the job's output, outside the timed region; it must be equal in
    every round.  ``check`` lists the problems of an output against the
    references in ``checks``.  ``known_fault`` names an exception class
    the operation raises every time because of a fault in the program.
    """

    name: str
    kind: str
    call: Callable
    points: int
    check: Callable
    output: Callable = lambda ret: ret
    known_fault: type = None


def _never(z):
    return False


def _interleave(groups):
    """Round-robin over the (already shuffled) job groups, so that every
    stretch of a round holds every kind."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


class _CliJobs:
    """Builds CLI jobs whose outputs go to files in ``workdir``."""

    def __init__(self, workdir, rng):
        self.workdir = workdir
        self.rng = rng
        self.count = 0

    def _job(self, kind, params, args, points, check, ext):
        self.count += 1
        path = os.path.join(self.workdir, f"job{self.count}.{ext}")
        argv = [kind, "--family", params.family, "--c", repr(params.c),
                "--a", repr(params.a), "--n", str(params.n)] + args
        argv += ["--out", path]

        def output(rc):
            with open(path, "rb") as fh:
                return rc, fh.read()

        def judge(out):
            rc, data = out
            if rc != cli.EXIT_OK:
                return [f"exit code {rc}"]
            return check(data.decode("utf-8"))

        return Job(name=" ".join(argv[:-2]), kind=kind,
                   call=lambda: cli.main(argv), points=points, check=judge,
                   output=output)

    def map(self, params, rings, spokes, rmax, samples, loose=_never):
        grid = (rings, spokes, rmax, samples)
        n_points = (rings + spokes) * samples
        quad = self.rng.sample(range(n_points + rings), 2)
        sh = checks.family_shear(params.family, params.c, params.a, params.n)
        args = ["--rings", str(rings), "--spokes", str(spokes),
                "--rmax", repr(rmax), "--samples", str(samples)]
        return self._job("map", params, args, n_points,
                         lambda t: checks.check_svg(t, sh, grid, quad, loose),
                         "svg")

    def surface(self, params, rings, spokes, rmax, loose=_never):
        grid = (rings, spokes, rmax)
        n_points = rings * spokes + 1
        quad = self.rng.sample(range(1, n_points), 2)
        sh = checks.family_shear(params.family, params.c, params.a, params.n)
        args = ["--rings", str(rings), "--spokes", str(spokes),
                "--rmax", repr(rmax)]
        return self._job("surface", params, args, n_points,
                         lambda t: checks.check_obj(t, sh, grid, quad, loose),
                         "obj")

    def verify(self, params, names, explicit):
        args = ["--checks", ",".join(names)] if explicit else []
        n_points = sum(checks.CHECK_POINTS[n] for n in names)
        return self._job("verify", params, args, n_points,
                         lambda t: checks.check_report(t, names), "json")


def default_checks(p):
    """The check set ``verify`` runs by default, listed here apart from
    the program so that a dropped or added check shows."""
    names = ["oracle_equivalence", "dilatation_identity",
             "prevertex_identity", "jacobian_positive", "chd_heuristic"]
    if p.family == "F_0a":
        names.append("strip_bound")
    if p.family in ("F_a", "F_1a"):
        names.append("symmetry")
    if (p.family == "F_ca" and p.c == 2.0) or (p.family == "f_2n"
                                               and p.n in (1, 2)):
        names.append("slit_limit")
    if p.family.startswith("f_") and p.n % 2 == 0:
        names.append("surface_properties")
    return names


def _a(rng):
    return round(rng.uniform(-0.9, 0.9), 3)


def cli_catalog(seed, workdir):
    """map, surface and verify over the seven closed-form families at the
    default figure grid, denser surface grids and full default checks."""
    rng = random.Random(seed)
    mk = _CliJobs(workdir, rng)
    planar = [FamilyParams("F_a", a=_a(rng)), FamilyParams("F_0a", a=_a(rng)),
              FamilyParams("F_1a", a=_a(rng))]
    planar += [FamilyParams("F_ca", c=c, a=_a(rng)) for c in (0.5, 1.5, 2.0)]
    planar += [FamilyParams("f_0n", n=3), FamilyParams("f_1n", n=4),
               FamilyParams("f_2n", n=2)]
    maps = [mk.map(p, 10, 24, 0.98, 256) for p in planar]
    verifies = [mk.verify(p, default_checks(p), False) for p in planar]
    surfaces = [mk.surface(FamilyParams(f, n=n), 40, 96, 0.98)
                for f, n in (("f_0n", 2), ("f_1n", 4), ("f_2n", 6))]
    for g in (maps, verifies, surfaces):
        rng.shuffle(g)
    return _interleave([maps, verifies, surfaces])


def _fcn_loose(p):
    """Whether a point may take the fallback tolerance: the acceptance
    suite allows 1e-6 where f_cn falls back to the quadrature oracle, and
    which points do is asked of the program."""
    def loose(z):
        if families.evaluate(p, z).fallback:
            return True
        return p.n % 2 == 0 and surface.lift_sample(p, z).fallback
    return loose


# verify --checks subsets for f_cn: the full default set at c = 1.5 runs
# for minutes, dilatation_identity alone for 20-30 s at c = 0.5.
FCN_VERIFY = {(0.5, 3): ("prevertex_identity", "jacobian_positive"),
              (0.5, 4): ("chd_heuristic", "jacobian_positive"),
              (0.5, 8): ("jacobian_positive",),
              (1.5, 4): ("jacobian_positive",),
              (1.5, 8): ("oracle_equivalence", "jacobian_positive")}
# (rings, spokes, rmax[, samples]).  At c = 1.5 a point near the boundary
# costs 15-150 ms (map) and up to 1 s (lift) against 1-6 ms at c = 0.5, so
# those grids are smaller and stop at 0.95 (0.9 for n = 8, whose points
# near 0.95 cost 30-40 ms each).  No job takes much over a second, so a
# run holds seven or eight rounds.  The c = 0.5 map and surface jobs (two
# map grids for n = 3 and 4) and the c = 1.5, n = 8 map take 100-200 ms
# each: the median job of a run lies inside their band of samples, not on
# one job's few.
FCN_MAP_GRIDS = {(0.5, 3): [(1, 3, 0.98, 16), (2, 2, 0.9, 16)],
                 (0.5, 4): [(1, 3, 0.98, 16), (2, 2, 0.9, 16)],
                 (0.5, 8): [(1, 2, 0.98, 16)],
                 (1.5, 3): [(1, 1, 0.95, 16)], (1.5, 4): [(1, 1, 0.95, 16)],
                 (1.5, 8): [(1, 1, 0.9, 16)]}
FCN_SURFACE_GRID = {(0.5, 4): (2, 12, 0.98), (0.5, 8): (2, 8, 0.98),
                    (1.5, 4): (1, 6, 0.95), (1.5, 8): (1, 6, 0.95)}


def cli_fcn(seed, workdir):
    """map, surface and verify for f_cn, c in {0.5, 1.5}, n in {3, 4, 8},
    on small grids."""
    rng = random.Random(seed)
    mk = _CliJobs(workdir, rng)
    maps, surfaces, verifies = [], [], []
    for c in (0.5, 1.5):
        for n in (3, 4, 8):
            p = FamilyParams("f_cn", c=c, n=n)
            loose = _fcn_loose(p)
            maps += [mk.map(p, *grid, loose=loose)
                     for grid in FCN_MAP_GRIDS[c, n]]
            if n % 2 == 0:
                surfaces.append(mk.surface(p, *FCN_SURFACE_GRID[c, n],
                                           loose=loose))
            if (c, n) in FCN_VERIFY:
                verifies.append(mk.verify(p, FCN_VERIFY[c, n], True))
    for g in (maps, verifies, surfaces):
        rng.shuffle(g)
    return _interleave([maps, verifies, surfaces])


# --- library-points ---------------------------------------------------------

R_MAX = 0.99
# shear_at points stop here: beyond it the oracle fails within ~0.01 rad
# of the real axis (the fault kept below), so a seeded point there would
# fail on some seeds only.
R_MAX_ORACLE = 0.98
GOLDEN = (5 ** 0.5 - 1) / 2

# Per round and per family: evaluate, hprime, gprime, lift_sample (even n)
# and shear_at calls.  About four closed-form calls to one oracle call;
# job_p50_ms then falls inside the 6-22 us cluster of evaluate, lift and
# the power-family derivatives, and the p95 tail inside shear_at.
LIB_MIX = {"evaluate": 30, "hprime": 8, "gprime": 3, "lift_sample": 20,
           "shear_at": 10}
CUSTOM_SHEAR_CALLS = 10


def _spread_points(rng, count, r_max=R_MAX):
    """``count`` points up to |z| = r_max: one per equal-area annulus, at
    angles a golden-ratio step apart from a seeded start, so that every
    seed covers the disk alike."""
    start = rng.random()
    pts = [r_max * math.sqrt((i + rng.random()) / count)
           * cmath.exp(2j * math.pi * ((start + GOLDEN * i) % 1.0))
           for i in range(count)]
    rng.shuffle(pts)
    return pts


def _library_job(kind, name, call, check, known_fault=None):
    return Job(name=name, kind=kind, call=call, points=1, check=check,
               known_fault=known_fault)


def _family_ops(rng, p, sh, quad_share):
    jobs = []
    spec_phi, spec_omega = families.family_phi(p), families.family_omega(p)
    label = f"{p.family}(c={p.c}, a={p.a}, n={p.n})"
    for kind, count in LIB_MIX.items():
        if kind == "lift_sample" and p.n % 2:
            continue
        r_max = R_MAX_ORACLE if kind == "shear_at" else R_MAX
        for z in _spread_points(rng, count, r_max):
            quad = rng.random() < quad_share[kind]
            name = f"{kind} {label} z={z}"
            if kind == "evaluate":
                jobs.append(_library_job(
                    kind, name, lambda p=p, z=z: families.evaluate(p, z),
                    lambda s, z=z, q=quad: checks.check_sample(
                        sh, z, s.h, s.g, s.u, s.v,
                        checks.TOL_FALLBACK if s.fallback else checks.TOL, q)))
            elif kind in ("hprime", "gprime"):
                fn = kind
                jobs.append(_library_job(
                    kind, name,
                    lambda p=p, z=z, fn=fn: getattr(families, fn)(p, z),
                    lambda d, z=z, w=kind[0]: checks.check_derivative(
                        sh, z, d, w)))
            elif kind == "lift_sample":
                jobs.append(_library_job(
                    kind, name, lambda p=p, z=z: surface.lift_sample(p, z),
                    lambda s, z=z, q=quad: checks.check_lift(
                        sh, z, s.u, s.v, s.f3, checks.TOL, q)))
            else:
                jobs.append(_shear_job(name, spec_phi, spec_omega, z, sh,
                                       quad))
    return jobs


def _shear_job(name, phi, omega, z, sh, quad, known_fault=None):
    return _library_job(
        "shear_at", name, lambda: shear.shear_at(phi, omega, z),
        lambda s: checks.check_sample(sh, z, s.h, s.g, s.u, s.v, checks.TOL,
                                      quad),
        known_fault)


def _custom_shears():
    """Custom DilatationSpec/PrevertexSpec pairs, which shear_at integrates
    through integrate_segment, with their independent descriptions."""
    return [
        (shear.PrevertexSpec.koebe(0.5),
         shear.DilatationSpec.square_of(lambda z: 0.9 * z),
         checks.Shear(prev="koebe", omega="scaled_square", c=0.5)),
        (shear.PrevertexSpec.custom(lambda z: z + z * z / 4,
                                    lambda z: 1 + z / 2),
         shear.DilatationSpec.custom(lambda z: 0.6 * z ** 3 + 0.3 * z),
         checks.Shear(prev="quadratic", omega="cubic")),
    ]


# shear_at at z = 0.99 on the positive real axis raises ConvergenceError
# for every family whose prevertex is k_c with c > 0: the per-panel test
# of _kernels.fallback.adaptive_segment scales the tolerance by the panel
# width, so bisection reaches the 1e-15 width floor.  These operations
# stay in every round, independent of the seed, and count as failed.
KNOWN_FAULT_FAMILIES = (FamilyParams("F_1a", a=0.5),
                        FamilyParams("f_1n", n=2),
                        FamilyParams("F_ca", c=1.5, a=-0.5))


def library_points(seed, workdir):
    """Per-point library calls at seeded disk points up to |z| = 0.99,
    without f_cn."""
    rng = random.Random(seed)
    params = [FamilyParams("F_a", a=_a(rng)), FamilyParams("F_0a", a=_a(rng)),
              FamilyParams("F_1a", a=_a(rng)),
              FamilyParams("F_ca", c=0.5, a=_a(rng)),
              FamilyParams("F_ca", c=1.5, a=_a(rng)),
              FamilyParams("f_0n", n=4), FamilyParams("f_1n", n=4),
              FamilyParams("f_2n", n=6)]
    # About 1 in 30 results is checked against quadrature; the rest get
    # the closed-form checks only.
    quad_share = {"evaluate": 0.03, "hprime": 0, "gprime": 0,
                  "lift_sample": 0.03, "shear_at": 0.05}
    jobs = []
    for p in params:
        jobs += _family_ops(rng, p, checks.family_shear(p.family, p.c, p.a,
                                                       p.n), quad_share)
    for phi, omega, sh in _custom_shears():
        for z in _spread_points(rng, CUSTOM_SHEAR_CALLS, R_MAX_ORACLE):
            jobs.append(_shear_job(f"shear_at custom {sh} z={z}", phi, omega,
                                   z, sh, rng.random() < 0.1))
    rng.shuffle(jobs)
    for p in KNOWN_FAULT_FAMILIES:
        jobs.append(_shear_job(
            f"shear_at {p.family} z=0.99", families.family_phi(p),
            families.family_omega(p), 0.99,
            checks.family_shear(p.family, p.c, p.a, p.n), True,
            ConvergenceError))
    return jobs


WORKLOADS = {"cli-catalog": cli_catalog, "cli-fcn": cli_fcn,
             "library-points": library_points}

# Whole rounds a run makes at least, and the percentile job_tail_ms
# reports.  The percentile leaves at least 10 jobs beyond it in a run of
# this many rounds.  A CLI round has an odd number of jobs and the
# percentile sits in the middle of one job's cluster of samples (the
# third slowest job of cli-catalog, the fourth slowest of cli-fcn), so
# neither it nor the median falls between two jobs.  library-points runs
# ~10^5 calls, where the highest such percentile would sample host
# hiccups and the few slowest seeded points rather than oracle calls; it
# reports p95, the middle of the shear_at calls (the slowest fifth).
MIN_ROUNDS = {"cli-catalog": 5, "cli-fcn": 3, "library-points": 3}
TAIL_Q = {"cli-catalog": 18.5 / 21, "cli-fcn": 13.5 / 17,
          "library-points": 0.95}
