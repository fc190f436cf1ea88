"""The array writers of render against per-number reference writers.

svg_document and obj_document write their tables through the one line
writer of render, _table_lines: float tables with the cells of its digit
kernel, face tables with its 4-digit index cells, and tables under its
size rule through one repeated %-template.  The
reference writers below are the former per-point ones: one fmt9 call per
number through str formatting, a join per polyline, and the face loop of
build_mesh.  The two must give the same text byte for byte.  The kernel
is also checked number by number against "%.9g" on a seeded sample of
the numbers where a digit kernel is most likely to go wrong; CI runs
kernel_mismatches on 10^7 of them.  The face writer is checked against
"%d" at the edges of its groups and on a seeded sample; CI runs
index_mismatches on every index up to 10^6 and on 10^6 seeded ones
below 10^8.

Whole documents are compared by assert_same_text, which fails on a short
window around the first difference: pytest's diff of two ~0.2 MB
documents would run for minutes.
"""

import math
import os

import numpy as np
from hypothesis import given, strategies as st

from shearlift import __version__, families, render
from shearlift.analytic import unit_roots
from shearlift.families import FamilyParams
from shearlift.render import (FLUSH, KERNEL_MIN, NUM, RenderConfig,
                              RunManifest, fmt9, map_curves, obj_document,
                              svg_document)
from shearlift.shear import grid_points
from shearlift.surface import GridSpec, SurfaceMesh, build_mesh, lift_array


# --- reference writers: one Python call per number --------------------------

def ref_fmt9(x):
    x = float(x)
    return "0" if abs(x) < 1e-12 else f"{x:.9g}"


def ref_map_curves(params, cfg):
    s = cfg.samples_per_curve
    radii = cfg.r_max * np.arange(1, cfg.rings + 1) / cfg.rings
    rings = radii[:, None] * unit_roots(s)
    steps = cfg.r_max * np.arange(1, s + 1) / s
    spokes = steps * unit_roots(cfg.spokes)[:, None]
    h, g, phi = families._closed_form(params, np.concatenate([rings, spokes]))
    curves = [list(zip(u, v)) for u, v in zip((h + g).real.tolist(),
                                               phi.imag.tolist())]
    return ([c + c[:1] for c in curves[:cfg.rings]], curves[cfg.rings:])


def ref_svg_document(curves, manifest):
    ring_curves, spoke_curves = curves
    us = [p[0] for c in ring_curves + spoke_curves for p in c]
    vs = [p[1] for c in ring_curves + spoke_curves for p in c]
    u0, u1 = min(us), max(us)
    v0, v1 = min(vs), max(vs)
    margin = 0.05 * max(u1 - u0, v1 - v0, 1e-9)
    w = (u1 - u0) + 2.0 * margin
    h = (v1 - v0) + 2.0 * margin
    stroke = 0.003 * max(w, h)
    view = " ".join(ref_fmt9(q) for q in (u0 - margin, v0 - margin, w, h))
    px_h = max(64, round(640 * h / w))
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out += [f"<!-- {line} -->" for line in manifest.lines()]
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="640" height="{px_h}" viewBox="{view}">')
    for kind, color, curve_set in (("ring", "#1f4e79", ring_curves),
                                   ("spoke", "#b44b1e", spoke_curves)):
        for pts in curve_set:
            coords = " ".join(f"{ref_fmt9(u)},{ref_fmt9(v)}" for u, v in pts)
            out.append(f'<polyline class="{kind}" fill="none" '
                       f'stroke="{color}" stroke-width="{ref_fmt9(stroke)}" '
                       f'points="{coords}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def ref_faces(grid):
    faces = []
    s = grid.spokes
    for k in range(s):
        faces.append((0, 1 + k, 1 + (k + 1) % s))
    for j in range(grid.rings - 1):
        inner = 1 + j * s
        outer = inner + s
        for k in range(s):
            kn = (k + 1) % s
            faces.append((inner + k, outer + k, outer + kn))
            faces.append((inner + k, outer + kn, inner + kn))
    return faces


def ref_obj_document(params, grid, manifest):
    points = grid_points(grid)
    u, v, f3 = lift_array(params, np.array(points))
    vertices = [(0.0, 0.0, 0.0)] + list(zip(u.tolist(), v.tolist(),
                                            f3.tolist()))
    out = [f"# {line}" for line in manifest.lines()]
    for x, y, t in vertices:
        out.append(f"v {ref_fmt9(x)} {ref_fmt9(y)} {ref_fmt9(t)}")
    for i, j, k in ref_faces(grid):
        out.append(f"f {i + 1} {j + 1} {k + 1}")
    return "\n".join(out) + "\n"


def assert_same_text(got, want):
    """got == want, failing with 60 characters either side of the first
    difference (the two windows differ at its offset i, or one of them
    ends there)."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        window = slice(max(0, i - 60), i + 60)
        assert (i, got[window]) == (i, want[window])


def percent_lines(template, rows):
    return "\n".join([template] * len(rows)) % tuple(rows.ravel().tolist())


def manifest(command, params, config):
    return RunManifest(command=command, family=params,
                       config=tuple(config.items()), version=__version__)


# --- the number formatter ---------------------------------------------------

def obj_numbers(values):
    """The numbers of values as obj_document writes them, in order."""
    vertices = np.array(values, dtype=float).reshape(-1, 3)
    mesh = SurfaceMesh(points=np.zeros(len(vertices), complex),
                       vertices=vertices, faces=np.array([[0, 0, 0]]))
    text = obj_document(mesh, manifest("surface", FamilyParams("f_2n", n=2),
                                       {}))
    return [t for line in text.splitlines() if line.startswith("v ")
            for t in line.split()[1:]]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=3, max_size=30))
def test_array_writer_matches_fmt9(values):
    values = values[:len(values) // 3 * 3]
    written = obj_numbers(values)
    assert written == [fmt9(x) for x in values]
    assert written == [ref_fmt9(x) for x in values]


@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                                    allow_subnormal=True),
                          st.floats(min_value=1e-4, max_value=1e9),
                          st.integers(-10**9, 10**9).map(float)),
                min_size=1, max_size=60))
def test_kernel_writer_matches_fmt9(values):
    # the values repeated to a table at the size rule, which the kernel
    # writes
    size = -(-KERNEL_MIN // 3) * 3
    values = (values * size)[:size]
    written = obj_numbers(values)
    assert written == [fmt9(x) for x in values]
    assert written == [ref_fmt9(x) for x in values]


def test_array_writer_edge_cases():
    values = [0.0, -0.0, 1e-12, -1e-12, math.nextafter(1e-12, 0.0),
              -math.nextafter(1e-12, 0.0), 5e-324, 123456789012.0, 1e16,
              math.nan, math.inf, -math.inf]
    written = ["0", "0", "1e-12", "-1e-12", "0", "0", "0", "1.23456789e+11",
               "1e+16", "nan", "inf", "-inf"]
    assert obj_numbers(values) == written
    assert [ref_fmt9(x) for x in values] == written


# --- the digit kernel against % ----------------------------------------------

def kernel_sample(rng, count):
    """count numbers on which a %.9g digit kernel is most likely to fail,
    with random signs: 9-digit ties (k + 1/2) 10^j in every decade from
    1e-4 to 1e9 and their nextafter neighbours, powers of ten and their
    neighbours up to three steps away, integers, log-uniform numbers
    from 1e-13 to 1e12, and the ends of the kernel's range, +-0,
    subnormals, NaN, +-inf and |x| just above the 1e-12 flush."""
    part = count // 6
    ties = ((rng.integers(10**8, 10**9, part) + 0.5)
            * 10.0 ** rng.integers(-12, 1, part))
    ties = np.concatenate([ties, np.nextafter(ties, 0.0),
                           np.nextafter(ties, np.inf)])
    powers = 10.0 ** rng.integers(-13, 13, part)
    steps = rng.integers(-3, 4, part)
    for i in range(3):
        powers = np.where(steps > i, np.nextafter(powers, np.inf), powers)
        powers = np.where(steps < -i, np.nextafter(powers, 0.0), powers)
    ints = rng.integers(-2 * 10**9, 2 * 10**9, part).astype(float)
    spread = 10.0 ** rng.uniform(-13, 12, count - 5 * part)
    ends = np.array([0.0, -0.0, 1e-4, 1e9, math.nextafter(1e-4, 0.0),
                     math.nextafter(1e9, 0.0), 999999999.5, 99999999.95,
                     5e-324, 2.2250738585072014e-308, math.nan, math.inf,
                     -math.inf, 1e-12, math.nextafter(1e-12, 1.0),
                     1.0000000001e-12, 1.0, 123456789.5, 123456788.5])
    x = np.concatenate([ties, powers, ints, spread])
    x *= rng.choice([-1.0, 1.0], x.size)
    return np.concatenate([ends, x])


def kernel_mismatches(count, seed, chunk=10**6):
    """(x, kernel text, %.9g text) of every number of count seeded
    kernel_sample numbers whose kernel text is not "%.9g" % x."""
    rng = np.random.default_rng(seed)
    bad = []
    for start in range(0, count, chunk):
        x = kernel_sample(rng, min(chunk, count - start))
        written = render._table_lines(NUM, NUM, x[:, None],
                                      float_cells).split("\n")
        for v, text in zip(x.tolist(), written):
            if text != NUM % v:
                bad.append((v, text, NUM % v))
    return bad


def float_cells(x):
    return render._number_cells(x)[0].T


def fmt9_mismatches(count, seed):
    """(x, fmt9 text, text of NUM % _flushed(x).item()) of every number
    whose fmt9 text differs from _flushed's, among count seeded
    kernel_sample numbers and the special values: +-0, +-FLUSH and their
    neighbours, +-inf, NaN and subnormals.  Each number is formatted as
    a Python float, an np.float64 and a 0-d array."""
    edge = [FLUSH, math.nextafter(FLUSH, 0.0), math.nextafter(FLUSH, 1.0),
            0.0, 5e-324, 1e-310, math.nextafter(2.2250738585072014e-308,
                                                0.0), math.inf]
    specials = np.array(edge + [-x for x in edge] + [math.nan])
    x = np.concatenate([kernel_sample(np.random.default_rng(seed), count),
                        specials])
    bad = []
    for v, flushed in zip(x.tolist(), render._flushed(x).tolist()):
        want = NUM % flushed
        for form in (v, np.float64(v), np.array(v)):
            if fmt9(form) != want:
                bad.append((v, fmt9(form), want))
    return bad


def test_fmt9_matches_flushed_percent_format():
    bad = fmt9_mismatches(200_000, 20261022)
    assert not bad, f"{len(bad)} mismatches, the first {bad[:5]}"


def test_kernel_matches_percent_format():
    bad = kernel_mismatches(200_000, 20261019)
    assert not bad, f"{len(bad)} mismatches, the first {bad[:5]}"
    # the template's own bytes around the fields, %% included
    rows = kernel_sample(np.random.default_rng(5), 3000)[:3000].reshape(-1, 2)
    template = "<%.9g,%.9g>%%"
    assert_same_text(render._table_lines(template, NUM, rows, float_cells),
                     percent_lines(template, rows))


def test_kernel_proves_the_numbers_of_its_range():
    # a number the kernel does not prove still comes out right, through
    # %, so the byte tests alone would pass a kernel that proves nothing
    rings, spokes = map_curves(FamilyParams("F_ca", c=2, a=1),
                               RenderConfig(r_max=0.999))
    mesh = build_mesh(FamilyParams("f_2n", n=2), GridSpec(rings=40,
                                                         spokes=96))
    x = np.concatenate([rings.ravel(), spokes.ravel(),
                        mesh.vertices.ravel(),
                        np.random.default_rng(2).uniform(-9.0, 9.0, 4096)])
    a = np.abs(x)
    proven = render._number_cells(x)[1]
    assert proven.tolist() == ((a == 0) | (a >= 1e-4) & (a < 1e9)).tolist()
    assert (a >= 1e9).sum() == 3 and 0 < ((a > 0) & (a < 1e-4)).sum()


def test_size_rule_paths_agree(monkeypatch):
    x = np.random.default_rng(4).uniform(-5.0, 5.0, KERNEL_MIN)
    x[:6] = [1e-7, -2.5e9, 0.0, 123456789.5, math.nan, 1e-4]
    kernel_calls = []
    kernel = render._number_cells
    monkeypatch.setattr(render, "_number_cells",
                        lambda x: kernel_calls.append(1) or kernel(x))
    below = render._lines(NUM, x[:-1, None])
    assert not kernel_calls
    at = render._lines(NUM, x[:, None])
    assert kernel_calls == [1]
    assert at == "\n".join(NUM % v for v in x.tolist())
    assert at == below + "\n" + NUM % x[-1]


# --- the face writer against %d ---------------------------------------------

FACE = "f %d %d %d"


def index_mismatches(indices, template=FACE):
    """None if the face writer gives the "%d" text of every line of the
    integer array indices (written one template a line), else the first
    differing line and its "%d" text."""
    rows = np.asarray(indices).reshape(-1, template.count("%d"))
    got = render._table_lines(template, "%d", rows,
                              render._index_cells).split("\n")
    want = percent_lines(template, rows).split("\n")
    if len(got) != len(want):
        return f"{len(got)} lines", f"{len(want)} lines"
    return next(((a, b) for a, b in zip(got, want) if a != b), None)


def test_index_writer_at_the_group_edges(monkeypatch):
    edges = [1, 9_999, 10_000, 10_001, 99_999_999]
    # every edge in every field, repeated to a table at the size rule
    rows = np.array([edges[k:] + edges[:k] for k in range(5)])[:, :3]
    rows = np.tile(rows, (-(-KERNEL_MIN // rows.size), 1))
    assert index_mismatches(rows) is None
    assert index_mismatches([0, 7, 10**8 - 1]) is None
    calls = []
    cells = render._index_cells
    monkeypatch.setattr(render, "_index_cells",
                        lambda x: calls.append(1) or cells(x))
    assert render._lines(FACE, rows) == percent_lines(FACE, rows)
    assert calls == [1]
    # 10^8 is past the two groups, a negative number before them: the
    # whole table goes through %
    for bad in (10**8, -1):
        table = rows.copy()
        table[-1, -1] = bad
        assert render._lines(FACE, table) == percent_lines(FACE, table)
    assert calls == [1]


def test_index_writer_matches_percent_d():
    rng = np.random.default_rng(20261020)
    sample = np.concatenate([rng.integers(0, 10**8, 30_000),
                             rng.integers(0, 10**5, 30_000),
                             np.arange(1, 30_001)])
    assert index_mismatches(sample) is None
    # the template's own bytes around the fields, %% included
    assert index_mismatches(sample[:9], "[%d|%d %d]%%") is None


# --- whole documents --------------------------------------------------------

def test_svg_matches_reference_writer():
    for params, cfg in (
            (FamilyParams("F_ca", c=1.5, a=-0.4), RenderConfig()),
            (FamilyParams("f_cn", c=0.5, n=3),
             RenderConfig(rings=6, spokes=12, samples_per_curve=128)),
            # six of its u values lie below the flush, |u| < 1e-12
            (FamilyParams("f_0n", n=5), RenderConfig()),
            (FamilyParams("f_0n", n=3),
             RenderConfig(rings=1, spokes=3, samples_per_curve=16)),
            (FamilyParams("F_a", a=0.3),
             RenderConfig(rings=1, spokes=3, r_max=0.999,
                          samples_per_curve=16)),
            # three of its u values are >= 1e9, 60 numbers lie in
            # (0, 1e-4): all of them go through %
            (FamilyParams("F_ca", c=2, a=1), RenderConfig(r_max=0.999))):
        m = manifest("map", params, {"rings": cfg.rings,
                                     "spokes": cfg.spokes,
                                     "rmax": cfg.r_max,
                                     "samples": cfg.samples_per_curve})
        rings, spokes = map_curves(params, cfg)
        assert rings.shape == (cfg.rings, cfg.samples_per_curve + 1, 2)
        assert spokes.shape == (cfg.spokes, cfg.samples_per_curve, 2)
        assert_same_text(svg_document((rings, spokes), m),
                         ref_svg_document(ref_map_curves(params, cfg), m))


def test_map_curves_take_v_from_phi():
    # F_a has phi = z, so every v that map_curves writes is Im z exactly;
    # Im(h - g) missed it by the rounding of h and g
    cfg = RenderConfig()
    s = cfg.samples_per_curve
    radii = cfg.r_max * np.arange(1, cfg.rings + 1) / cfg.rings
    steps = cfg.r_max * np.arange(1, s + 1) / s
    ring_z = radii[:, None] * unit_roots(s)
    spoke_z = steps * unit_roots(cfg.spokes)[:, None]
    for a in (-0.9, -0.5, 0.0, 0.5, 0.9):
        rings, spokes = map_curves(FamilyParams("F_a", a=a), cfg)
        assert np.array_equal(rings[:, :-1, 1], ring_z.imag), a
        assert np.array_equal(rings[:, -1, 1], ring_z[:, 0].imag), a
        assert np.array_equal(spokes[..., 1], spoke_z.imag), a


def test_obj_matches_reference_writer():
    for params, grid in ((FamilyParams("f_2n", n=2),
                          GridSpec(rings=40, spokes=96)),
                         (FamilyParams("f_cn", c=1.5, n=8),
                          GridSpec(rings=1, spokes=3)),
                         (FamilyParams("f_1n", n=4),
                          GridSpec(rings=3, spokes=7, r_max=0.999))):
        m = manifest("surface", params, {"rings": grid.rings,
                                         "spokes": grid.spokes,
                                         "rmax": grid.r_max})
        assert_same_text(obj_document(build_mesh(params, grid), m),
                         ref_obj_document(params, grid, m))


def test_faces_match_reference_loop():
    for rings, spokes in ((1, 3), (2, 4), (3, 7), (40, 96)):
        grid = GridSpec(rings=rings, spokes=spokes, r_max=0.5)
        mesh = build_mesh(FamilyParams("f_2n", n=2), grid)
        assert mesh.faces.tolist() == [list(f) for f in ref_faces(grid)]
        assert mesh.points.shape == (1 + rings * spokes,)
        assert mesh.vertices.shape == (1 + rings * spokes, 3)
