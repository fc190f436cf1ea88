"""Deterministic SVG figure, OBJ mesh, and JSON report writers.

All numbers are written by the same 9-significant-digit rule with a "."
decimal separator regardless of locale, and no output line depends on
time, environment, or iteration order of anything unordered, so repeated
runs produce byte-identical files.
"""

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from . import families
from .analytic import R_MAX, unit_roots


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


def _lines(template, rows):
    """One line of template per row of the array rows, filled with the
    row's numbers in one % operation over all of them."""
    return "\n".join([template] * len(rows)) % tuple(rows.ravel().tolist())


def fmt9(x):
    """9-significant-digit decimal text of one number, locale independent."""
    return NUM % _flushed(x).item()


def map_curves(params, cfg):
    """Images of the concentric circles and radial spokes, as float arrays
    of (u, v) rows.

    Returns (rings, spokes) of shapes (rings, samples + 1, 2) and
    (spokes, samples, 2); rings are closed by repeating the first sample.
    All points go through one families.evaluate_array call, whose errors
    name the offending point.
    """
    s = cfg.samples_per_curve
    radii = cfg.r_max * np.arange(1, cfg.rings + 1) / cfg.rings
    rings = radii[:, None] * unit_roots(s)
    steps = cfg.r_max * np.arange(1, s + 1) / s
    spokes = steps * unit_roots(cfg.spokes)[:, None]
    h, g = families.evaluate_array(params, np.concatenate([rings, spokes]))
    uv = np.stack([(h + g).real, (h - g).imag], axis=-1)
    rings = uv[:cfg.rings]
    return np.concatenate([rings, rings[:, :1]], axis=1), uv[cfg.rings:]


def svg_document(curves, manifest):
    """SVG 1.1 text: polyline elements only, coordinates in mathematical
    (u, v) under one affine viewBox with a 5% margin."""
    ring_curves, spoke_curves = curves
    uv = np.concatenate([ring_curves.reshape(-1, 2),
                         spoke_curves.reshape(-1, 2)])
    (u0, v0), (u1, v1) = uv.min(axis=0).tolist(), uv.max(axis=0).tolist()
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
    """JSON array of verification reports with stable key order."""
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


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
