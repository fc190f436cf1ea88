"""Command-line interface: map figures, surface meshes, verification
reports, and partial-fraction coefficient dumps.

Exit codes: 0 ok, 1 a verification check failed, 2 usage or domain error
(including a quadrature that did not converge at some point, an output
path that cannot be written, and a grid or n too large for the memory).
"""

import argparse
import functools
import math
import os
import stat
import sys

from . import __version__, families, render, verify
from .errors import ConvergenceError
from .surface import GridSpec, build_mesh

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _tolerance(text):
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    # a report is strict JSON, which has no inf
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}")
    return tol


def _check_names(text):
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"no check name in {text!r}")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise argparse.ArgumentTypeError(
                f"check {name!r} is named more than once in {text!r}")
    return names


@functools.cache
def build_parser():
    """The argparse parser of every subcommand, built on the first call and
    shared by all later ones: parse_args keeps no state in it, and help,
    version and usage text go to the sys.stdout and sys.stderr of the
    moment they are written."""
    parser = argparse.ArgumentParser(
        prog="shearlift",
        description="Harmonic mapping families of the unit disk: figures, "
                    "minimal-surface meshes, and numerical verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", required=True, choices=families.FAMILY_NAMES)
        p.add_argument("--c", type=float, default=0.0)
        p.add_argument("--a", type=float, default=0.0)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--out", required=True)

    p_map = sub.add_parser("map", help="SVG image of the ring/spoke grid")
    common(p_map)
    p_map.add_argument("--rings", type=int, default=10)
    p_map.add_argument("--spokes", type=int, default=24)
    p_map.add_argument("--rmax", type=float, default=0.98)
    p_map.add_argument("--samples", type=int, default=256,
                       help="points per curve")

    p_surf = sub.add_parser("surface", help="OBJ mesh of the lifted surface")
    common(p_surf)
    p_surf.add_argument("--rings", type=int, default=10)
    p_surf.add_argument("--spokes", type=int, default=24)
    p_surf.add_argument("--rmax", type=float, default=0.98)

    p_ver = sub.add_parser("verify", help="JSON report of numerical checks")
    common(p_ver)
    p_ver.add_argument("--checks", type=_check_names, default=None,
                       help="comma-separated check names (default: all "
                            "applicable)")
    p_ver.add_argument("--tol", type=_tolerance, default=None,
                       help="override the oracle-equivalence tolerance")

    p_co = sub.add_parser("coeffs",
                          help="partial-fraction coefficients as JSON")
    p_co.add_argument("--family", required=True,
                      choices=families.PARTIAL_FRACTIONS)
    p_co.add_argument("--n", type=int, required=True)
    p_co.add_argument("--out", default=None,
                      help="output path (default: standard output)")
    return parser


def _params(args):
    # a parameter the family does not use must keep its default, so that
    # the manifest names only what the output depends on
    default = families.FamilyParams(family=args.family)
    for name, users in families.PARAMETER_FAMILIES.items():
        value = getattr(args, name)
        if args.family not in users and value != getattr(default, name):
            raise ValueError(
                f"--{name} {value} does not apply to family {args.family}")
    return families.FamilyParams(family=args.family, c=args.c, a=args.a,
                                 n=args.n)


def _manifest(args, params, keys):
    cfg = tuple((k, getattr(args, k)) for k in keys)
    return render.RunManifest(command=args.command, family=params,
                              config=cfg, version=__version__)


def _write(path, text):
    """Write text to path, overwriting an existing regular file in place:
    its old bytes are written over and the file is then cut to the new
    length, which gives the bytes of a fresh write.  Truncating to 0 bytes
    before the write, as open(path, "w") does, costs several times the
    write itself on a file system that discards freed blocks.  A pipe, a
    FIFO or a device such as /dev/stdout cannot be truncated and is only
    written.  An --out path that cannot be written is a bad argument:
    exit 2."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT
                     | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ValueError(
            f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_map(args):
    params = _params(args)
    cfg = render.RenderConfig(rings=args.rings, spokes=args.spokes,
                              r_max=args.rmax,
                              samples_per_curve=args.samples)
    curves = render.map_curves(params, cfg)
    manifest = _manifest(args, params, ("rings", "spokes", "rmax", "samples"))
    _write(args.out, render.svg_document(curves, manifest))
    return EXIT_OK


def cmd_surface(args):
    params = _params(args)
    grid = GridSpec(rings=args.rings, spokes=args.spokes, r_max=args.rmax)
    mesh = build_mesh(params, grid)
    manifest = _manifest(args, params, ("rings", "spokes", "rmax"))
    _write(args.out, render.obj_document(mesh, manifest))
    return EXIT_OK


def cmd_verify(args):
    params = _params(args)
    reports = verify.run_checks(params, args.checks, tol=args.tol)
    _write(args.out, render.report_document(reports))
    for r in reports:
        # the report writes a non-finite residual as null; name it here
        if not math.isfinite(r.max_residual):
            print(f"shearlift verify: {r.check_name}: residual "
                  f"{r.max_residual} at z = {r.worst_point}",
                  file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_coeffs(args):
    coeffs = families.PARTIAL_FRACTIONS[args.family](args.n)
    text = render.coeffs_document(coeffs)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args.out, text)
    return EXIT_OK


_COMMANDS = {"map": cmd_map, "surface": cmd_surface, "verify": cmd_verify,
             "coeffs": cmd_coeffs}


def main(argv=None):
    """Run one shearlift command on argv (default: sys.argv[1:]) and return
    its exit code: 0 ok, 1 a verification check failed, 2 a usage or
    domain error, with a message on standard error.

    main may be called any number of times in one process; the parser is
    built on the first call and reused.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    # DomainError and DilatationNotSquareError are ValueErrors
    except (ValueError, ConvergenceError) as exc:
        print(f"shearlift {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        sizes = ", ".join(f"--{name}" for name in ("rings", "spokes",
                                                   "samples", "n")
                          if hasattr(args, name))
        print(f"shearlift {args.command}: out of memory; lower {sizes}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
