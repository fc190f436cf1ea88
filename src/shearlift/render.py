"""Deterministic SVG figure, OBJ mesh, and JSON report writers.

All numbers are written by the same 9-significant-digit rule with a "."
decimal separator regardless of locale, and no output line depends on
time, environment, or iteration order of anything unordered, so repeated
runs produce byte-identical files.

The rule is CPython's "%.9g" of the flushed value.  The number tables
of svg_document and obj_document (curve points, mesh vertices, face
indices) are written by one line assembly, in blocks of BLOCK numbers,
wherever a table holds at least KERNEL_MIN numbers; % writes smaller
tables whole.  The assembly takes the text of each number from one of
two cell builders.  The numpy digit kernel writes floats: +-0 and every
1e-4 <= |x| < 1e9, where %g writes fixed notation, unless the 9-digit
rounding of x lies within its tie guard; % writes the rest: |x| outside
[1e-4, 1e9), values within the tie guard, NaN and inf.  The bytes cannot
differ from %'s: %.9g is the correctly rounded 9-digit decimal (Gay,
1990), the kernel rounds the same exact value and keeps a number only
where one correctly rounded product proves that rounding, and it writes
the text that %g writes for that decimal.  The index builder writes
integers as two 4-digit groups, in tables whose numbers all lie in
[0, INDEX_END) with INDEX_END = 10^8; % writes any other integer table.
"""

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import families
from .analytic import R_MAX, require_disk_points, unit_roots
from .shear import coordinates


# SVG width in pixels (the height follows the figure's aspect ratio, at
# least 64) and stroke width as a share of the larger figure extent
CANVAS_PX = 640
STROKE_SHARE = 0.003
# coeffs_document's reconstruction self-check: its points and their seed
RESIDUAL_POINTS, RESIDUAL_SEED = 50, 20240301


@dataclass(frozen=True)
class RenderConfig:
    rings: int = 10
    spokes: int = 24
    r_max: float = 0.98
    samples_per_curve: int = 256

    def __post_init__(self):
        if self.samples_per_curve < 16:
            raise ValueError("samples_per_curve must be >= 16")
        if self.rings < 1 or self.spokes < 1:
            raise ValueError("rings and spokes must be >= 1")
        if not 0.0 < self.r_max <= R_MAX:
            raise ValueError(f"r_max must lie in (0, {R_MAX}]")


@dataclass(frozen=True)
class RunManifest:
    command: str
    family: object  # FamilyParams
    config: tuple  # ((key, value), ...) snapshot
    version: str

    def lines(self):
        cfg = " ".join(f"{k}={fmt9(v) if isinstance(v, float) else v}"
                       for k, v in self.config)
        p = self.family
        return [f"command: {self.command}",
                f"family: {p.family} c={fmt9(p.c)} a={fmt9(p.a)} n={p.n}",
                f"config: {cfg}",
                f"version: {self.version}"]


# fmt9's rule, written once for every number of every output: nine
# significant digits with a "." decimal point whatever the locale, and
# |x| < FLUSH is rounding residue that flushes to 0 (%g would write it
# in exponent notation)
NUM, FLUSH = "%.9g", 1e-12


def _flushed(x):
    """x as a float ndarray with |x| < FLUSH set to +0."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < FLUSH, 0.0, x)


# The line assembly writes number tables from numpy arrays, BLOCK numbers
# at a time, the block size at which the digit kernel took the least time
# a number.  A table of fewer than KERNEL_MIN numbers, for which the
# kernel's fixed cost exceeds its gain over %, takes the % path whole.
BLOCK, KERNEL_MIN = 4096, 700
# Integer tables (face indices) are written from two 4-digit groups a
# number, so below INDEX_END; a table with a larger or negative number
# takes the % path whole.
INDEX_END = 10 ** 8

# Exact powers of ten 10^0 ... 10^12, and the tie guard: y below is
# within 2^-24 of |x| 10^(8-e), so a y farther than 2^-20 from the
# nearest half-integer rounds as that exact value does.
_P10 = 10.0 ** np.arange(13)
_TIE = 0.5 - 2.0 ** -20
# Offsets in _digit_groups(): the four tables of 4-digit groups, the
# point and the empty cell.
_FULL, _LEAD, _UNITS, _TRAIL, _POINT, _EMPTY = (0, 10000, 20000, 30000,
                                                40000, 40001)


@functools.cache
def _digit_groups():
    """The text of every 4-digit group 0...9999, one little-endian word
    of four cells each, in four tables: every digit, the leading zeros
    cleared, the same with 0 written "0", and the trailing zeros
    cleared; then the point and the empty cell.  A cleared cell is 0.
    Built on the first kernel call, so that a process that writes no
    table does not hold it."""
    digit = (np.arange(10000, dtype=np.int16)[:, None]
             // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    lead = np.logical_or.accumulate(digit > 0, axis=1)
    trail = np.logical_or.accumulate(digit[:, ::-1] > 0, axis=1)[:, ::-1]
    text = digit + ord("0")
    cells = np.zeros((40002, 4), np.uint8)
    for table, keep in enumerate((True, lead, lead | [0, 0, 0, 1], trail)):
        cells[10000 * table:10000 * (table + 1)] = text * keep
    cells[_POINT, 0] = ord(".")
    groups = cells.view("<u4").ravel()
    groups.setflags(write=False)
    return groups


def _number_cells(x):
    """NUM's text of each number of the float array x, as (7, x.size)
    little-endian words of four cells each, and the mask of the numbers
    proven.  A number's words are its text in order, a cleared cell 0:
    a free cell, its sign, a free cell and the top digit of its integer
    part I, I's other eight digits, the point, and the 12 digits of its
    fraction F.  A number not proven gets NUM's text from %, which is
    at most 16 bytes ("-1.23456789e+100"), in the cells after its first.

    The kernel proves +-0 and every finite 1e-4 <= |x| < 1e9 whose
    9-digit rounding is not within the tie guard, where %g writes fixed
    notation.  e = floor(log10 |x|) is a guess of the decimal exponent,
    y = |x| 10^(8-e) one correctly rounded product, and D = rint(y) the
    9-digit significand when 1e8 <= y, D < 1e9 and y is off the tie
    guard.  Then |x| rounds to D 10^(e-8), with the integer part I and
    the fraction F 10^-12.  The groups of I drop their leading zeros,
    but the units digit, the groups of F their trailing zeros, and the
    point goes with F = 0.
    """
    a = np.abs(x)
    s = np.where(a < 1e9, a, 0.0)
    with np.errstate(divide="ignore"):
        e4 = np.clip(np.floor(np.log10(s)), -4, 8).astype(np.intp) + 4
    p = _P10[12 - e4]  # 10^(8-e)
    y = s * p
    d = np.rint(y)
    ok = (y >= 1e8) & (d < 1e9) & (np.abs(y - d) < _TIE) | (a == 0)
    i_f = np.empty((2, x.size))
    np.floor(d / p, out=i_f[0])
    np.multiply(d - i_f[0] * p, _P10[e4], out=i_f[1])
    i_f = i_f.astype(np.int64)
    hi = i_f // 10000
    # rows: I's top, middle and low group, the point, F's three groups
    g = np.empty((7, x.size), np.int64)
    np.floor_divide(hi, 10000, out=g[0::4])
    np.subtract(hi, 10000 * g[0::4], out=g[1::4])
    np.subtract(i_f, 10000 * hi, out=g[2::4])
    top = g[0] > 0
    g[2] += np.where(top | (g[1] > 0), _FULL, _UNITS)
    g[1] += np.where(top, _FULL, _LEAD)
    g[0] += _LEAD
    low = g[6] > 0
    g[4] += np.where(low | (g[5] > 0), _FULL, _TRAIL)
    g[5] += np.where(low, _FULL, _TRAIL)
    g[6] += _TRAIL
    g[3] = np.where(i_f[1] > 0, _POINT, _EMPTY)
    cells = _digit_groups().take(g)
    cells[0] |= np.signbit(x) * np.uint32(ord("-") << 8)
    if not ok.all():
        text = b"".join([b"\0" + (NUM % v).encode().ljust(27, b"\0")
                         for v in x[~ok].tolist()])
        cells[:, ~ok] = np.frombuffer(text, "<u4").reshape(-1, 7).T
    return cells, ok


def _index_cells(x):
    """The text of each integer 0 <= i < INDEX_END of the array x as one
    little-endian word of eight cells: i // 10^4 from the leading-zero
    table of _digit_groups(), then i % 10^4 from the full table, or from
    the units table when i < 10^4."""
    i = x.astype(np.intp, copy=False)
    hi = i // 10000
    g = np.empty((i.size, 2), np.intp)
    np.add(hi, _LEAD, out=g[:, 0])
    np.add(i - 10000 * hi, np.where(hi > 0, _FULL, _UNITS), out=g[:, 1])
    return _digit_groups().take(g).view("<u8")


def _table_lines(template, field, rows, cells):
    """_lines of the table rows for a template whose fields are all the
    text field, with exactly one byte between two fields.  The cell
    builder cells(x) gives the text of each number of the flat array x
    as one row of words, a cleared cell 0: the digit kernel's words of
    a float, or _index_cells' word of an index.

    The table goes BLOCK numbers at a time.  Each line of a block is one
    row of bytes: the template's head, for each field one separator byte
    (0 for the first) and its number's words, and the tail with its
    newline.  The block becomes text in one tobytes().translate that
    drops the 0 cells.
    """
    head, *seps, tail = template.split(field)
    fields = len(seps) + 1
    sep = np.zeros(fields, np.uint8)
    sep[1:] = np.frombuffer("".join(seps).encode(), np.uint8)
    head = np.frombuffer(head.replace("%%", "%").encode(), np.uint8)
    tail = np.frombuffer(tail.replace("%%", "%").encode() + b"\n",
                         np.uint8)
    h = head.size
    per_block = max(1, BLOCK // fields)
    out = []
    for start in range(0, len(rows), per_block):
        words = cells(rows[start:start + per_block].ravel())
        n = len(words) // fields
        w = h + fields * (1 + words[0].nbytes)
        line = np.empty((n, w + tail.size), np.uint8)
        line[:, :h] = head
        line[:, w:] = tail
        body = line[:, h:w].reshape(n, fields, -1)
        body[:, :, 0] = sep
        body[:, :, 1:].view(words.dtype)[...] = words.reshape(n, fields, -1)
        out.append(line.tobytes().translate(None, b"\0").decode("ascii"))
    out[-1] = out[-1][:-1]
    return "".join(out)


def _lines(template, rows):
    """One line of template per row of the array rows, filled with the
    row's numbers: a table of at least KERNEL_MIN numbers through
    _table_lines, with the digit kernel if it holds floats or with
    _index_cells if it holds integers in [0, INDEX_END); any other in one
    % operation over all of them."""
    if rows.size >= KERNEL_MIN:
        table = rows.reshape(len(rows), -1)
        if rows.dtype.kind == "f":
            return _table_lines(template, NUM, table,
                                lambda x: _number_cells(x)[0].T)
        if (rows.dtype.kind in "iu" and rows.min() >= 0
                and rows.max() < INDEX_END):
            return _table_lines(template, "%d", table, _index_cells)
    return "\n".join([template] * len(rows)) % tuple(rows.ravel().tolist())


def fmt9(x):
    """9-significant-digit decimal text of one number, locale independent."""
    return NUM % _flushed(x).item()


def map_curves(params, cfg):
    """Images of the concentric circles and radial spokes, as float arrays
    of (u, v) rows.

    Returns (rings, spokes) of shapes (rings, samples + 1, 2) and
    (spokes, samples, 2); rings are closed by repeating the first sample.
    All points go through one call of the family's closed form, whose
    errors name the offending point, and shear.coordinates.
    """
    s = cfg.samples_per_curve
    radii = cfg.r_max * np.arange(1, cfg.rings + 1) / cfg.rings
    rings = radii[:, None] * unit_roots(s)
    steps = cfg.r_max * np.arange(1, s + 1) / s
    spokes = steps * unit_roots(cfg.spokes)[:, None]
    z = require_disk_points(np.concatenate([rings, spokes]), r_max=1.0)
    uv = np.stack(coordinates(*families._closed_form(params, z)), axis=-1)
    rings = uv[:cfg.rings]
    return np.concatenate([rings, rings[:, :1]], axis=1), uv[cfg.rings:]


def svg_document(curves, manifest):
    """SVG 1.1 text: polyline elements only, coordinates in mathematical
    (u, v) under one affine viewBox with a 5% margin."""
    ring_curves, spoke_curves = curves
    uv = np.concatenate([ring_curves.reshape(-1, 2),
                         spoke_curves.reshape(-1, 2)])
    # one column at a time: min(axis=0) of the (n, 2) table gives the same
    # numbers about ten times slower
    u0, u1 = uv[:, 0].min().item(), uv[:, 0].max().item()
    v0, v1 = uv[:, 1].min().item(), uv[:, 1].max().item()
    margin = 0.05 * max(u1 - u0, v1 - v0, 1e-9)
    w = (u1 - u0) + 2.0 * margin
    h = (v1 - v0) + 2.0 * margin
    stroke = STROKE_SHARE * max(w, h)
    view = " ".join(fmt9(q) for q in (u0 - margin, v0 - margin, w, h))
    px_h = max(64, round(CANVAS_PX * h / w))

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out += [f"<!-- {line} -->" for line in manifest.lines()]
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{CANVAS_PX}" height="{px_h}" viewBox="{view}">')
    for kind, color, curve_set in (("ring", "#1f4e79", ring_curves),
                                   ("spoke", "#b44b1e", spoke_curves)):
        coords = " ".join([f"{NUM},{NUM}"] * curve_set.shape[1])
        out.append(_lines(f'<polyline class="{kind}" fill="none" '
                          f'stroke="{color}" stroke-width="{fmt9(stroke)}" '
                          f'points="{coords}"/>', _flushed(curve_set)))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def obj_document(mesh, manifest):
    """Wavefront OBJ text: '# comment', 'v u v F3', and one-based
    'f i j k' records, in mesh order."""
    out = [f"# {line}" for line in manifest.lines()]
    out.append(_lines(f"v {NUM} {NUM} {NUM}", _flushed(mesh.vertices)))
    out.append(_lines("f %d %d %d", mesh.faces + 1))
    return "\n".join(out) + "\n"


def report_document(reports):
    """JSON array of verification reports with stable key order; strict
    JSON, so an inf or NaN that reached it raises ValueError."""
    return json.dumps([r.to_dict() for r in reports], indent=2,
                      allow_nan=False) + "\n"


def coeffs_document(coeffs):
    """JSON object with the exact rational scalars, the complex pole
    coefficients, and an embedded reconstruction residual self-check."""
    import random

    rng = random.Random(RESIDUAL_SEED)
    worst = 0.0
    for _ in range(RESIDUAL_POINTS):
        r = 0.8 * math.sqrt(rng.random())
        z = r * cmath.exp(2j * math.pi * rng.random())
        worst = max(worst, abs(coeffs.reconstruct(z) - coeffs.target(z)))
    parity = "odd" if coeffs.n % 2 else "even"
    doc = {
        "family": f"{coeffs.family}_{parity}",
        "n": coeffs.n,
        "scalars": {name: {"num": frac.numerator, "den": frac.denominator}
                    for name, frac in coeffs.scalars},
        "pole_coeffs": [{"k": k,
                         # + 0.0 writes a signed zero as 0.0
                         "coeff": [alpha.real + 0.0, alpha.imag + 0.0],
                         "conjugate": [beta.real + 0.0, beta.imag + 0.0]}
                        for k, alpha, beta in coeffs.pole_coeffs],
        "reconstruction_residual": worst,
    }
    return json.dumps(doc, indent=2) + "\n"
