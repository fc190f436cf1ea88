"""Command-line interface: map figures, surface meshes, verification
reports, and partial-fraction coefficient dumps.

Exit codes: 0 ok, 1 a verification check failed, 2 usage or domain error
(including a quadrature that did not converge at some point).
"""

import argparse
import sys

from . import __version__, families, render, verify
from .errors import ConvergenceError, DilatationNotSquareError, DomainError
from .surface import GridSpec, build_mesh

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shearlift",
        description="Harmonic mapping families of the unit disk: figures, "
                    "minimal-surface meshes, and numerical verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_out=True):
        p.add_argument("--family", required=True, choices=families.FAMILY_NAMES)
        p.add_argument("--c", type=float, default=0.0)
        p.add_argument("--a", type=float, default=0.0)
        p.add_argument("--n", type=int, default=1)
        if need_out:
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
    p_ver.add_argument("--checks", default=None,
                       help="comma-separated check names (default: all "
                            "applicable)")
    p_ver.add_argument("--tol", type=float, default=None,
                       help="override the oracle-equivalence tolerance")

    p_co = sub.add_parser("coeffs",
                          help="partial-fraction coefficients as JSON")
    p_co.add_argument("--family", required=True, choices=("f_1n", "f_2n"))
    p_co.add_argument("--n", type=int, required=True)
    p_co.add_argument("--out", default=None,
                      help="output path (default: standard output)")
    return parser


def _params(args):
    return families.FamilyParams(family=args.family, c=args.c, a=args.a,
                                 n=args.n)


def _manifest(args, params, keys):
    cfg = tuple((k, getattr(args, k)) for k in keys)
    return render.RunManifest(command=args.command, family=params,
                              config=cfg, version=__version__)


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_map(args):
    params = _params(args)
    cfg = render.RenderConfig(rings=args.rings, spokes=args.spokes,
                              r_max=args.rmax,
                              samples_per_curve=args.samples)
    curves = render.map_curves(params, cfg)
    manifest = _manifest(args, params, ("rings", "spokes", "rmax", "samples"))
    _write(args.out, render.svg_document(curves, manifest, cfg))
    return EXIT_OK


def cmd_surface(args):
    params = _params(args)
    if params.n % 2 != 0:
        raise DilatationNotSquareError(
            f"surface lift needs even n, got n={params.n}")
    grid = GridSpec(rings=args.rings, spokes=args.spokes, r_max=args.rmax)
    mesh = build_mesh(params, grid)
    manifest = _manifest(args, params, ("rings", "spokes", "rmax"))
    _write(args.out, render.obj_document(mesh, manifest))
    return EXIT_OK


def cmd_verify(args):
    params = _params(args)
    names = None
    if args.checks is not None:
        names = [s.strip() for s in args.checks.split(",") if s.strip()]
    reports = verify.run_checks(params, names, tol=args.tol)
    _write(args.out, render.report_document(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_coeffs(args):
    coeffs = (families.coeffs_f1n if args.family == "f_1n"
              else families.coeffs_f2n)(args.n)
    text = render.coeffs_document(coeffs)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args.out, text)
    return EXIT_OK


_COMMANDS = {"map": cmd_map, "surface": cmd_surface, "verify": cmd_verify,
             "coeffs": cmd_coeffs}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, DilatationNotSquareError, ValueError,
            ConvergenceError) as exc:
        print(f"shearlift {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
