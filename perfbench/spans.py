"""Spans and counts at shearlift's module boundaries, for the traced run.

The wrappers live here; nothing under src/ changes.  Modules import
functions by name (``verify`` binds ``shear_at`` and ``lift_sample``,
``families`` binds ``appell_f1`` and ``shear_at``, ``surface`` binds
``appell_f1``, ``cli`` binds ``build_mesh``), so each wrapper is set on
every module where the name is looked up.  A span's self time is its
duration minus the time of the spans it called.
"""

import time
from dataclasses import dataclass

from shearlift import cli, families, render, shear, special, surface, verify
from shearlift._kernels import fallback


@dataclass
class SpanStats:
    calls: int = 0
    raised: int = 0
    total: float = 0.0
    self_time: float = 0.0


# (span, function name, modules where callers look the name up)
SITES = [
    ("cli.main", "main", (cli,)),
    ("render.map_curves", "map_curves", (render,)),
    ("render.document", "svg_document", (render,)),
    ("render.document", "obj_document", (render,)),
    ("render.document", "report_document", (render,)),
    ("surface.build_mesh", "build_mesh", (cli,)),
    ("surface.lift_sample", "lift_sample", (surface, verify)),
    ("families.evaluate", "evaluate", (families,)),
    ("families.hprime", "hprime", (families,)),
    ("families.fallback", "_oracle_sample", (families,)),
    ("special.appell_f1", "appell_f1", (special, families, surface)),
    ("special.f1_series", "appell_f1_series", (special,)),
    ("special.f1_integral", "appell_f1_integral", (special,)),
    ("shear.shear_at", "shear_at", (shear, families, verify)),
    ("analytic.cauchy_derivative", "cauchy_derivative", (verify,)),
    ("verify.oracle_equivalence", "check_oracle_equivalence", (verify,)),
    ("verify.dilatation_identity", "check_dilatation", (verify,)),
    ("verify.prevertex_identity", "check_prevertex", (verify,)),
    ("verify.jacobian_positive", "check_jacobian_positive", (verify,)),
    ("verify.chd_heuristic", "check_chd_heuristic", (verify,)),
    ("verify.surface_properties", "check_surface", (verify,)),
]


class Tracer:
    """Installs the wrappers on enter and restores the modules on exit."""

    def __init__(self):
        self.stats = {}
        self.panels = 0
        self._stack = []
        self._saved = []

    def _wrap(self, span, fn):
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - frame[0]
                if not ok:
                    stats.raised += 1

        return wrapper

    def _set(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self):
        for span, name, modules in SITES:
            wrapped = self._wrap(span, getattr(modules[0], name))
            for module in modules:
                self._set(module, name, wrapped)

        segment = fallback.adaptive_segment

        def counted_segment(f, *args):
            # one integrand call is one 15-point G7/K15 panel
            def panel(zs):
                self.panels += 1
                return f(zs)
            return segment(panel, *args)

        self._set(fallback, "adaptive_segment",
                  self._wrap("kernels.adaptive_segment", counted_segment))
        return self

    def __exit__(self, *exc):
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def span(self, name):
        return self.stats.get(name, SpanStats())
