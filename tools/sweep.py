"""Write the command-line outputs of a fixed list of parameter sets, and
compare two such directories number by number.

    PYTHONPATH=src python tools/sweep.py write DIR [--commands map,surface]
    python tools/sweep.py compare DIR_A DIR_B

write runs shearlift's map, surface, verify and coeffs commands in this
process on every job of JOBS (or on those of the named commands) and
writes one file per job into DIR, plus index.txt, which lists each job's
exit code and arguments; verify exits 1 when a check fails, and that
code is part of the output.  The shearlift package is the one Python
imports, so pointing PYTHONPATH at another checkout's src/ sweeps that
checkout with the same job list.

compare prints one line per file of either directory: whether it
differs, how many of its numbers have other texts, and the largest
relative move |b - a| / max(|a|, |b|) among them.  A file whose text
differs outside its numbers, or that only one directory holds, is
reported as such.  It exits 1 when any file differs, and 0 otherwise.
"""

import argparse
import re
import sys
from pathlib import Path

MOBIUS_A = (-0.9, -0.5, 0.0, 0.5, 0.9)
F_CA = ((0.5, -0.5), (0.5, 0.7), (1.5, -0.4), (1.5, 0.5), (2.0, 0.2),
        (2.0, 1.0))
POWER_N = (2, 3, 6, 16, 32)
FCN = tuple((c, n) for c in (0.5, 1.5) for n in (3, 4, 8, 16))
EXTENSION = {"map": "svg", "surface": "obj", "verify": "json",
             "coeffs": "json"}


def _g(x):
    return f"{x:g}"


def _jobs():
    """{name: (command, arguments)} of every output of the sweep: 62 maps
    and surfaces, 33 verify reports and 6 coefficient tables, each at the
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
    coeffs = [(f, ["--n", n]) for f in ("f_1n", "f_2n")
              for n in ("3", "7", "16")]
    jobs = {}
    for command, sets in (("map", planar + power),
                          ("surface", [(f, args) for f, args in power
                                       if int(args[-1]) % 2 == 0]),
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


def compare(dir_a, dir_b, out=sys.stdout):
    """Print one line per file of dir_a or dir_b and return the number of
    files that differ."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.name for p in dir_a.iterdir()}
                   | {p.name for p in dir_b.iterdir()})
    differ = 0
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            where = dir_a if a.exists() else dir_b
            line = f"only in {where}"
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
    p_compare = sub.add_parser("compare", help="compare two sweeps")
    p_compare.add_argument("dir_a")
    p_compare.add_argument("dir_b")
    args = parser.parse_args(argv)
    if args.mode == "compare":
        return 1 if compare(args.dir_a, args.dir_b) else 0
    commands = args.commands.split(",")
    unknown = set(commands) - set(EXTENSION)
    if unknown:
        parser.error(f"unknown command(s) {', '.join(sorted(unknown))}")
    write(args.directory, [n for n, (c, _) in JOBS.items() if c in commands])
    return 0


if __name__ == "__main__":
    sys.exit(main())
