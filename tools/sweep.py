"""Write the command-line outputs of a fixed list of parameter sets, dump
the bits of seeded library results, and compare two such directories
number by number.

    PYTHONPATH=src python tools/sweep.py write DIR [--commands map,surface]
    PYTHONPATH=src python tools/sweep.py dump DIR
    python tools/sweep.py compare DIR_A DIR_B

write runs shearlift's map, surface, verify and coeffs commands in this
process on every job of JOBS (or on those of the named commands) and
writes one file per job into DIR, plus index.txt, which lists each job's
exit code and arguments; verify exits 1 when a check fails, and that
code is part of the output.  The shearlift package is the one Python
imports, so pointing PYTHONPATH at another checkout's src/ sweeps that
checkout with the same job list.

dump writes the results of DUMPS at seeded points as raw little-endian
uint64 words, the bits of their float64 parts (real then imaginary part
of a complex number), one .u64 file each, in two subdirectories of DIR:
python/ holds the one-point closed forms of the seven catalog families,
which run in Python complex arithmetic and numpy scalar functions;
numpy/ holds every result whose last bits follow numpy's array loops
(the quadrature shear_at, the one-point f_cn, the array entry points and
hyp2f1_1c), which can move with numpy's SIMD level.

compare prints one line per file of either directory (subdirectories
included): whether it differs; for a text file, how many of its numbers
have other texts and the largest relative move |b - a| / max(|a|, |b|)
among them; for a dump, how many of its words differ.  A text that
differs outside its numbers, a dump of another length, and a file that
only one directory holds are reported as such.  It exits 1 when any file
differs, and 0 otherwise.
"""

import argparse
import cmath
import math
import random
import re
import sys
from pathlib import Path

import numpy as np

MOBIUS_A = (-0.9, -0.5, 0.0, 0.5, 0.9)
F_CA = ((0.5, -0.5), (0.5, 0.7), (1.5, -0.4), (1.5, 0.5), (2.0, 0.2),
        (2.0, 1.0))
POWER_N = (2, 3, 6, 16, 32)
FCN = tuple((c, n) for c in (0.5, 1.5) for n in (3, 4, 8, 16))
# the large n of the five power families: each is verified, the last one
# mapped and MESH_N lifted
LARGE_N = (18, 24, 32, 48, 64, 256, 1024)
MESH_N = 64
EXTENSION = {"map": "svg", "surface": "obj", "verify": "json",
             "coeffs": "json"}


def _g(x):
    return f"{x:g}"


def _jobs():
    """{name: (command, arguments)} of every output of the sweep: 72 maps
    and surfaces, 68 verify reports and 6 coefficient tables, each at the
    command's default grid."""
    planar = [("F_a", ["--a", _g(a)]) for a in MOBIUS_A]
    planar += [(f, ["--a", _g(a)]) for f in ("F_0a", "F_1a")
               for a in MOBIUS_A]
    planar += [("F_ca", ["--c", _g(c), "--a", _g(a)]) for c, a in F_CA]
    power = [(f, ["--n", str(n)]) for f in ("f_0n", "f_1n", "f_2n")
             for n in POWER_N]
    power += [("f_cn", ["--c", _g(c), "--n", str(n)]) for c, n in FCN]
    checked = [("F_a", ["--a", _g(a)]) for a in MOBIUS_A]
    checked += [("F_0a", ["--a", a]) for a in ("-1", "0", "1")]
    checked += [("F_1a", ["--a", a]) for a in ("-0.6", "0", "0.5")]
    checked += [("F_ca", ["--c", _g(c), "--a", _g(a)])
                for c, a in ((0.5, 0.7), (1.5, -0.4), (2.0, 0.2),
                             (2.0, 1.0))]
    checked += [(f, ["--n", n]) for f, ns in (("f_0n", "2 3 6 16"),
                                              ("f_1n", "2 4 7 16"),
                                              ("f_2n", "1 2 4 6 16"))
                for n in ns.split()]
    checked += [("f_cn", ["--c", c, "--n", n])
                for c, n in (("0.5", "3"), ("0.5", "4"), ("1.5", "4"),
                             ("1.5", "8"), ("1.5", "16"))]
    large = {n: [(f, ["--n", str(n)]) for f in ("f_0n", "f_1n", "f_2n")]
             + [("f_cn", ["--c", c, "--n", str(n)]) for c in ("0.5", "1.5")]
             for n in LARGE_N}
    checked += [job for n in LARGE_N for job in large[n]]
    coeffs = [(f, ["--n", n]) for f in ("f_1n", "f_2n")
              for n in ("3", "7", "16")]
    jobs = {}
    for command, sets in (("map", planar + power + large[LARGE_N[-1]]),
                          ("surface", [(f, args) for f, args in power
                                       if int(args[-1]) % 2 == 0]
                           + large[MESH_N]),
                          ("verify", checked), ("coeffs", coeffs)):
        for family, args in sets:
            name = "_".join([command, family] + [
                f"{k[2:]}{v}" for k, v in zip(args[::2], args[1::2])])
            jobs[name] = (command, ["--family", family] + args)
    return jobs


JOBS = _jobs()


def write(directory, names=None):
    """Write the outputs of the jobs named (default: all of JOBS) into
    directory, with index.txt."""
    from shearlift.cli import main

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index = []
    for name in JOBS if names is None else names:
        command, args = JOBS[name]
        out = directory / f"{name}.{EXTENSION[command]}"
        code = main([command] + args + ["--out", str(out)])
        if code not in (0, 1):
            raise SystemExit(f"sweep: {name} exited {code}")
        index.append(f"{name} {code} {command} {' '.join(args)}\n")
    (directory / "index.txt").write_text("".join(index))


# --- dumps of library results --------------------------------------------

DUMP_SEED = 1508
DUMP_POINTS = 40
# the seven catalog families, and f_cn, whose one-point calls run numpy's
# array loops
CATALOG_SETS = (("F_a", (("a", -0.5),)), ("F_a", (("a", 0.9),)),
                ("F_0a", (("a", -0.9),)), ("F_0a", (("a", 0.3),)),
                ("F_1a", (("a", -0.7),)), ("F_1a", (("a", 0.2),)),
                ("F_ca", (("c", 0.5), ("a", 0.1))),
                ("F_ca", (("c", 1.0), ("a", -0.3))),
                ("F_ca", (("c", 1.5), ("a", -0.4))),
                ("F_ca", (("c", 2.0), ("a", 0.2))),
                ("f_0n", (("n", 3),)), ("f_0n", (("n", 4),)),
                ("f_1n", (("n", 4),)), ("f_1n", (("n", 7),)),
                ("f_2n", (("n", 2),)), ("f_2n", (("n", 6),)),
                ("f_2n", (("n", 16),)))
FCN_SETS = tuple(("f_cn", (("c", c), ("n", n)))
                 for c in (0.5, 1.5) for n in (3, 4, 8))
# hyp2f1_1c runs at c + 1 for the f_cn family's c
HYP_C = (1.5, 2.5)


def _set_name(family, kwargs):
    return "_".join([family] + [f"{k}{_g(v)}" for k, v in kwargs])


def _disk_points(rng, count, r_max=0.95):
    """count seeded points up to |z| = r_max, one per equal-area annulus,
    then eight on the real axis, four with -0.0 as their imaginary part."""
    pts = [r_max * math.sqrt((i + rng.random()) / count)
           * cmath.exp(2j * math.pi * rng.random()) for i in range(count)]
    axis = [r_max * (2.0 * rng.random() - 1.0) for _ in range(8)]
    return pts + [complex(x, 0.0) for x in axis[:4]] + [
        complex(x, -0.0) for x in axis[4:]]


def _hyp_points(rng, count):
    """count seeded x on each route of hyp2f1_1c: the power disc, the 1/x
    region, the Pfaff disc (x = y/(y - 1), |y| <= 0.6), the log disc about
    1 and the Taylor zone, then the real axis below 1 with both signs of
    zero."""
    def disc(radius):
        return radius * math.sqrt(rng.random()) * cmath.exp(
            2j * math.pi * rng.random())

    xs = [disc(0.5) for _ in range(count)]
    xs += [(5.0 / 3.0 + 3.0 * rng.random()) * cmath.exp(
        2j * math.pi * rng.random()) for _ in range(count)]
    xs += [y / (y - 1.0) for y in (disc(0.6) for _ in range(count))]
    xs += [1.0 - disc(0.5) for _ in range(count)]
    xs += [(0.55 + rng.random()) * cmath.exp(1j * math.pi * (
        0.1 + 0.8 * rng.random())) for _ in range(count)]
    xs = [x.conjugate() if rng.random() < 0.5 else x for x in xs]
    axis = [-3.0 + 3.9 * rng.random() for _ in range(8)]
    return xs + [complex(x, 0.0) for x in axis[:4]] + [
        complex(x, -0.0) for x in axis[4:]]


def _words(values):
    """The float64 parts of numbers or arrays, in order, as uint64."""
    parts = []
    for v in values:
        v = np.asarray(v)
        parts.append(np.stack([v.real, v.imag], axis=-1).ravel()
                     if np.iscomplexobj(v) else v.astype(float).ravel())
    return np.concatenate(parts).astype("<f8").view("<u8")


def _dumps():
    """{name: (kind, family, kwargs)} of every dump."""
    dumps = {}

    def add(sub, kinds, family, kwargs):
        for kind in kinds:
            dumps[f"{sub}/{kind}_{_set_name(family, kwargs)}"] = (
                kind, family, kwargs)

    for family, kwargs in CATALOG_SETS + FCN_SETS:
        lift = family.startswith("f_") and dict(kwargs)["n"] % 2 == 0
        one_point = ("evaluate", "hprime", "gprime") + (
            ("lift_sample",) if lift else ())
        if family == "f_cn":
            add("numpy", one_point, family, kwargs)
        else:
            add("python", one_point, family, kwargs)
            add("numpy", ("shear_at",), family, kwargs)
        add("numpy", ("evaluate_array",) + (("lift_array",) if lift else ()),
            family, kwargs)
    for c in HYP_C:
        for kind in ("hyp2f1_1c", "hyp2f1_1c_points"):
            dumps[f"numpy/{kind}_c{_g(c)}"] = (kind, None, (("c", c),))
    return dumps


DUMPS = _dumps()


# the fields written of each sample
SAMPLE_FIELDS = {"evaluate": ("h", "g", "u", "v"),
                 "shear_at": ("h", "g", "u", "v"),
                 "lift_sample": ("u", "v", "f3")}


def _results(kind, family, kwargs):
    """The results of one dump, in the order they are written."""
    from shearlift import families, shear, special, surface

    # each dump draws its points from a seed of its own, so that a subset
    # of DUMPS writes the same words
    rng = random.Random(f"{DUMP_SEED} {kind} {family} {kwargs}")
    if kind.startswith("hyp2f1_1c"):
        xs = _hyp_points(rng, DUMP_POINTS)
        c = dict(kwargs)["c"]
        if kind == "hyp2f1_1c":
            return [special.hyp2f1_1c(c, np.array(xs))]
        return [special.hyp2f1_1c(c, x) for x in xs]
    params = families.FamilyParams(family, **dict(kwargs))
    zs = _disk_points(rng, DUMP_POINTS)
    if kind.endswith("_array"):
        call = getattr(families if kind == "evaluate_array" else surface,
                       kind)
        return call(params, np.array(zs))
    if kind == "shear_at":
        phi, omega = (families.family_phi(params),
                      families.family_omega(params))
        results = [shear.shear_at(phi, omega, z) for z in zs]
    else:
        call = getattr(surface if kind == "lift_sample" else families, kind)
        results = [call(params, z) for z in zs]
    fields = SAMPLE_FIELDS.get(kind)
    if fields is None:
        return results
    return [getattr(s, f) for s in results for f in fields]


def dump(directory, names=None):
    """Write the dumps named (default: all of DUMPS) into directory."""
    directory = Path(directory)
    for name in DUMPS if names is None else names:
        path = directory / f"{name}.u64"
        path.parent.mkdir(parents=True, exist_ok=True)
        _words(_results(*DUMPS[name])).tofile(path)


# a number of the outputs, with its sign and exponent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _move(a, b):
    a, b = float(a), float(b)
    big = max(abs(a), abs(b))
    # "0.0" and "-0.0" differ as texts, not as numbers
    return abs(b - a) / big if big else 0.0


def compare_text(a, b):
    """(None, count, largest relative move) of the numbers whose texts
    differ between texts a and b, or (reason, 0, 0.0) when the texts
    differ outside their numbers."""
    words_a, words_b = NUMBER.split(a), NUMBER.split(b)
    if words_a != words_b:
        return "differs outside its numbers", 0, 0.0
    moved = [(x, y) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))
             if x != y]
    return None, len(moved), max((_move(x, y) for x, y in moved),
                                 default=0.0)


def compare_words(a, b):
    """(None, count) of the words that differ between two dumps of one
    length, or (reason, 0) when their lengths differ."""
    if a.size != b.size:
        return f"{a.size} against {b.size} words", 0
    return None, int((a != b).sum())


def _files(directory):
    return {p.relative_to(directory).as_posix()
            for p in directory.rglob("*") if p.is_file()}


def compare(dir_a, dir_b, out=sys.stdout):
    """Print one line per file of dir_a or dir_b, subdirectories included,
    and return the number of files that differ."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted(_files(dir_a) | _files(dir_b))
    differ = 0
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            where = dir_a if a.exists() else dir_b
            line = f"only in {where}"
        elif name.endswith(".u64"):
            words_a = np.fromfile(a, dtype="<u8")
            reason, count = compare_words(words_a,
                                          np.fromfile(b, dtype="<u8"))
            if not (reason or count):
                print(f"{name}: same", file=out)
                continue
            line = reason or f"{count} of {words_a.size} words differ"
        else:
            text_a, text_b = a.read_text(), b.read_text()
            if text_a == text_b:
                print(f"{name}: same", file=out)
                continue
            reason, count, move = compare_text(text_a, text_b)
            line = reason or (f"{count} of {len(NUMBER.findall(text_a))} "
                              f"numbers differ, largest relative move "
                              f"{move:.3g}")
        differ += 1
        print(f"{name}: DIFFERS, {line}", file=out)
    print(f"{differ} of {len(names)} files differ", file=out)
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_write = sub.add_parser("write", help="write the sweep's outputs")
    p_write.add_argument("directory")
    p_write.add_argument("--commands", default=",".join(EXTENSION),
                         help="comma-separated commands to sweep "
                              "(default: all)")
    p_dump = sub.add_parser("dump", help="dump the bits of seeded library "
                                         "results")
    p_dump.add_argument("directory")
    p_compare = sub.add_parser("compare", help="compare two sweeps or "
                                               "dumps")
    p_compare.add_argument("dir_a")
    p_compare.add_argument("dir_b")
    args = parser.parse_args(argv)
    if args.mode == "compare":
        return 1 if compare(args.dir_a, args.dir_b) else 0
    if args.mode == "dump":
        dump(args.directory)
        return 0
    commands = args.commands.split(",")
    unknown = set(commands) - set(EXTENSION)
    if unknown:
        parser.error(f"unknown command(s) {', '.join(sorted(unknown))}")
    write(args.directory, [n for n, (c, _) in JOBS.items() if c in commands])
    return 0


if __name__ == "__main__":
    sys.exit(main())
