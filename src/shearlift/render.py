"""Deterministic SVG figure, OBJ mesh, and JSON report writers.

All numbers go through the same 9-significant-digit formatter with a "."
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


@dataclass(frozen=True)
class RenderConfig:
    rings: int = 10
    spokes: int = 24
    r_max: float = 0.98
    stroke_width: float = 0.0  # 0 = auto (0.3% of figure extent)
    canvas_px: int = 640
    samples_per_curve: int = 256

    def __post_init__(self):
        if self.canvas_px < 64:
            raise ValueError("canvas_px must be >= 64")
        if self.samples_per_curve < 16:
            raise ValueError("samples_per_curve must be >= 16")
        if self.rings < 1 or self.spokes < 1:
            raise ValueError("rings and spokes must be >= 1")
        if not 0.0 < self.r_max < 1.0:
            raise ValueError("r_max must lie in (0, 1)")


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


def fmt9(x):
    """9-significant-digit decimal text, locale independent.

    %g would switch tiny magnitudes to exponent notation; values that
    close to zero are rounding residue here, so they flush to 0.
    """
    x = float(x)
    if x == 0.0 or abs(x) < 1e-12:
        return "0"
    s = f"{x:.9g}"
    return "0" if s in ("-0", "0") else s


def map_curves(params, cfg):
    """Images of the concentric circles and radial spokes, as point lists.

    Returns (ring_curves, spoke_curves); rings are closed by repeating the
    first sample.  All points go through one families.evaluate_array call,
    whose errors name the offending point.
    """
    s = cfg.samples_per_curve
    # unit vectors from cmath, so that every point is bit for bit
    # r*cmath.exp(i*theta)
    turn = np.array([cmath.exp(2j * math.pi * i / s) for i in range(s)])
    radii = cfg.r_max * np.arange(1, cfg.rings + 1) / cfg.rings
    rings = radii[:, None] * turn
    directions = np.array([cmath.exp(2j * math.pi * k / cfg.spokes)
                           for k in range(cfg.spokes)])
    spokes = (cfg.r_max * np.arange(1, s + 1) / s) * directions[:, None]
    h, g = families.evaluate_array(params, np.concatenate([rings, spokes]))
    curves = [list(zip(u, v)) for u, v in zip((h + g).real.tolist(),
                                               (h - g).imag.tolist())]
    return ([c + c[:1] for c in curves[:cfg.rings]], curves[cfg.rings:])


def svg_document(curves, manifest, cfg):
    """SVG 1.1 text: polyline elements only, coordinates in mathematical
    (u, v) under one affine viewBox with a 5% margin."""
    ring_curves, spoke_curves = curves
    us = [p[0] for c in ring_curves + spoke_curves for p in c]
    vs = [p[1] for c in ring_curves + spoke_curves for p in c]
    u0, u1 = min(us), max(us)
    v0, v1 = min(vs), max(vs)
    margin = 0.05 * max(u1 - u0, v1 - v0, 1e-9)
    w = (u1 - u0) + 2.0 * margin
    h = (v1 - v0) + 2.0 * margin
    stroke = cfg.stroke_width if cfg.stroke_width > 0 else 0.003 * max(w, h)
    view = " ".join(fmt9(q) for q in (u0 - margin, v0 - margin, w, h))
    px_h = max(64, round(cfg.canvas_px * h / w))

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out += [f"<!-- {line} -->" for line in manifest.lines()]
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{cfg.canvas_px}" height="{px_h}" viewBox="{view}">')
    for kind, color, curve_set in (("ring", "#1f4e79", ring_curves),
                                   ("spoke", "#b44b1e", spoke_curves)):
        for pts in curve_set:
            coords = " ".join(f"{fmt9(u)},{fmt9(v)}" for u, v in pts)
            out.append(f'<polyline class="{kind}" fill="none" '
                       f'stroke="{color}" stroke-width="{fmt9(stroke)}" '
                       f'points="{coords}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def obj_document(mesh, manifest):
    """Wavefront OBJ text: '# comment', 'v u v F3', and one-based
    'f i j k' records, in mesh order."""
    out = [f"# {line}" for line in manifest.lines()]
    for s in mesh.vertices:
        out.append(f"v {fmt9(s.u)} {fmt9(s.v)} {fmt9(s.f3)}")
    for i, j, k in mesh.faces:
        out.append(f"f {i + 1} {j + 1} {k + 1}")
    return "\n".join(out) + "\n"


def report_document(reports):
    """JSON array of verification reports with stable key order."""
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def coeffs_document(coeffs, residual_points=50, seed=20240301):
    """JSON object with the exact rational scalars, the complex pole
    coefficients, and an embedded reconstruction residual self-check."""
    import random

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(residual_points):
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
                         "coeff": [alpha.real, alpha.imag],
                         "conjugate": [beta.real, beta.imag]}
                        for k, alpha, beta in coeffs.pole_coeffs],
        "reconstruction_residual": worst,
    }
    return json.dumps(doc, indent=2) + "\n"
