"""The quadrature kernel: an adaptive Gauss-Kronrod (G7/K15) rule on
straight segments, in numpy.

Both entry points share one stopping rule, QUADPACK's global error control
(Piessens et al., *QUADPACK*, 1983, routine QAG): a segment is done when
the summed |K15 - G7| of its panels is at most max(abs_tol, rel_tol*|I|),
where I is the sum of the panel estimates.  Until then every panel whose
error exceeds its width share of that budget is bisected.  Some panel
always does, so each round makes progress; ``max_subdivisions`` caps the
bisections of one segment.

* ``adaptive_segment`` integrates one segment with one integrand call
  per round that needs new panels.  The first call evaluates the
  segment, its halves and its quarters (7 panels, 105 nodes), which serve
  the first two rounds: one call up to |z| ~ 0.6 on the catalog shears.
  An integrand that raises only at the 60 quarter nodes fails even where
  fewer panels converge; only an invalid custom dilatation can do that;
* ``adaptive_segments`` integrates an array of segments at once: every
  round evaluates all new panels of all segments in one integrand call.

Both evaluate their panels through ``_panel_estimates``, which takes the
segment starts and lengths already broadcast against its panels: two
numbers for one segment, (panels, 1) arrays for a batch.  The first
call's nodes are the constants ``_FIRST_PANELS``, built by the rule's own
``_panel_nodes``.  Each panel's K15 and K15 - G7 sums come from one
row-wise reduction against ``_RULE``, so a panel's values depend on its
own 15 integrand values only, not on the batch it is in.  A one-point
``shear_at`` costs ~30-50 us at |z| <= 0.95 (median per family F_a,
F_ca, f_1n, f_2n on a 2-core x86-64 host with numpy 2.4); below 0.6 the
quarters' nodes add 3-5 us, and 12 us where k_c' takes a complex power.
"""

import numpy as np

from ..errors import ConvergenceError

BACKEND = "python"

# 15-point Kronrod abscissae on [-1, 1]; odd indices are the embedded G7.
_XGK_HALF = np.array(
    [
        0.99145537112081263921,
        0.94910791234275852453,
        0.86486442335976907279,
        0.74153118559939443986,
        0.58608723546769113029,
        0.40584515137739716691,
        0.20778495500789846760,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.02293532201052922496,
        0.06309209262997855329,
        0.10479001032225018384,
        0.14065325971552591875,
        0.16900472663926790283,
        0.19035057806478540991,
        0.20443294007529889241,
        0.20948214108472782801,
    ]
)
_WG_HALF = np.array(
    [
        0.12948496616886969327,
        0.27970539148927666790,
        0.38183005050511894495,
        0.41795918367346938776,
    ]
)

XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
# Row 0: the K15 weights; row 1: K15 - G7, the G7 weights taken off the
# odd nodes.  Complex, the type of the integrand values, so that np.vecdot
# casts nothing per call.
_RULE = np.array([WGK, WGK], dtype=complex)
_RULE[1, 1::2] -= WG


# The narrowest panel a segment splits, as a fraction of the segment.
MIN_PANEL_WIDTH = 2e-15


def _stalled(splits, err):
    return (f"segment quadrature stalled after {splits} subdivisions "
            f"(error {err:.3e})")


def adaptive_segment(f, z0, z1, abs_tol, rel_tol, max_subdivisions):
    """Adaptively integrate a vectorized complex function along [z0, z1].

    ``f`` maps an ndarray of points on the segment to an ndarray of values
    of its shape.  Each bisection round evaluates its new panels in one
    call of f; the first call takes the whole segment, its halves and its
    quarters, from which the first two rounds take their panels.
    """
    z0 = complex(z0)
    dz = complex(z1) - z0
    if dz == 0:
        return 0j

    def evaluate(t0, t1, hw, x):
        # {(t0, t1): (t0, t1, estimate, error)} of the panels [t0, t1],
        # from one call of f
        ik, err = _panel_estimates(f, z0, dz, hw, x)
        return {(a, b): (a, b, i, e)
                for a, b, i, e in zip(t0, t1, ik.tolist(), err.tolist())}

    known = evaluate(*_FIRST_PANELS)
    panels = [known.pop((0.0, 1.0))]
    total, error = panels[0][2:]
    splits = 0
    # written so that a NaN error counts as not converged
    while not error <= max(abs_tol, rel_tol * abs(total)):
        budget = max(abs_tol, rel_tol * abs(total))
        kept = []
        halves = []
        for p in panels:
            t0, t1, _, err = p
            if err <= budget * (t1 - t0):
                kept.append(p)
                continue
            splits += 1
            if splits > max_subdivisions or t1 - t0 < MIN_PANEL_WIDTH:
                raise ConvergenceError(_stalled(splits, error))
            mid = 0.5 * (t0 + t1)
            halves += ((t0, mid), (mid, t1))
        if not halves:
            # every panel within its share: the sum exceeds the budget by
            # rounding only
            break
        # the halves and quarters of the segment come from the first call
        new = [h for h in halves if h not in known]
        if new:
            t0, t1 = zip(*new)
            known.update(evaluate(t0, t1, *_panel_nodes(np.array(t0),
                                                        np.array(t1))))
        panels = kept + [known.pop(h) for h in halves]
        total = sum(p[2] for p in panels)
        error = sum(p[3] for p in panels)
    return total


def _panel_nodes(t0, t1):
    """Half-widths and (panels, 15) Kronrod nodes, as fractions of the
    segment, of the panels [t0, t1]."""
    hw = 0.5 * (t1 - t0)
    return hw, (0.5 * (t0 + t1))[:, None] + hw[:, None] * XGK


def _panel_estimates(f, z0, dz, hw, x):
    """K15 estimate and |K15 - G7| of each panel with half-width ``hw`` and
    nodes ``x`` (from _panel_nodes) on the segments [z0, z0 + dz], from one
    call of f on the (panels, 15) nodes z0 + x*dz.  z0 and dz are numbers
    or (panels, 1) arrays.  Both sums of a panel come from one row-wise
    reduction of its own values, so they do not depend on the batch.
    The weights go first: np.vecdot conjugates its first argument."""
    fv = np.asarray(f(z0 + x * dz)) * dz
    ik, diff = np.vecdot(_RULE, fv[:, None, :]).T
    return hw * ik, np.abs(hw * diff)


# The seven panels of the one-point first call: the segment, its halves
# and its quarters, 105 nodes.
_FIRST_PANELS = ([0.0, 0.0, 0.5, 0.0, 0.25, 0.5, 0.75],
                 [1.0, 0.5, 1.0, 0.25, 0.5, 0.75, 1.0])
_FIRST_PANELS += _panel_nodes(*map(np.array, _FIRST_PANELS))


def adaptive_segments(f, z0, z1, abs_tol, rel_tol, max_subdivisions):
    """adaptive_segment on every segment [z0, z1] of two broadcast arrays,
    returning a complex ndarray of their shape.

    ``f`` maps an ndarray of points to an ndarray of values of its shape.
    The panels of all segments live in flat arrays (segment, t0, t1,
    estimate, error); each round evaluates the new panels in one call of
    f.  A segment that exceeds ``max_subdivisions`` stops alone; once the
    others are done, the ConvergenceError names the first such segment in
    C order by its flat ``index``.
    """
    z0, z1 = np.broadcast_arrays(np.asarray(z0, dtype=complex),
                                 np.asarray(z1, dtype=complex))
    shape = z0.shape
    z0 = z0.ravel()
    dz = z1.ravel() - z0
    m = dz.size
    total = np.zeros(m, dtype=complex)
    splits = np.zeros(m, dtype=int)
    failed = np.zeros(m, dtype=bool)
    stalled = np.zeros(m)
    live = dz != 0
    owner = np.flatnonzero(live)
    t0 = np.zeros(owner.size)
    t1 = np.ones(owner.size)
    ik, err = _panel_estimates(f, z0[owner, None], dz[owner, None],
                               *_panel_nodes(t0, t1))
    while owner.size:
        est = (np.bincount(owner, ik.real, m)
               + 1j * np.bincount(owner, ik.imag, m))
        error = np.bincount(owner, err, m)
        budget = np.maximum(abs_tol, rel_tol * np.abs(est))
        split = (~(error <= budget)[owner]
                 & ~(err <= budget[owner] * (t1 - t0)))
        count = np.bincount(owner[split], minlength=m)
        # within the budget, or every panel within its share (rounding)
        done = live & (count == 0)
        total[done] = est[done]
        splits += count
        bad = live & ~done & (splits > max_subdivisions)
        bad[owner[split & (t1 - t0 < MIN_PANEL_WIDTH)]] = True
        failed |= bad
        stalled[bad] = error[bad]
        live &= ~(done | bad)
        if not live.any():
            break
        keep = live[owner]
        split &= keep
        keep &= ~split
        # the halves of each split panel side by side, as adaptive_segment
        # orders them
        mid = 0.5 * (t0[split] + t1[split])
        new_owner = np.repeat(owner[split], 2)
        new_t0 = np.stack([t0[split], mid], axis=1).ravel()
        new_t1 = np.stack([mid, t1[split]], axis=1).ravel()
        new_ik, new_err = _panel_estimates(f, z0[new_owner, None],
                                           dz[new_owner, None],
                                           *_panel_nodes(new_t0, new_t1))
        owner = np.concatenate([owner[keep], new_owner])
        t0 = np.concatenate([t0[keep], new_t0])
        t1 = np.concatenate([t1[keep], new_t1])
        ik = np.concatenate([ik[keep], new_ik])
        err = np.concatenate([err[keep], new_err])
    if failed.any():
        i = int(np.argmax(failed))
        raise ConvergenceError(_stalled(int(splits[i]), stalled[i]), index=i)
    return total.reshape(shape)
