"""The quadrature kernel: an adaptive Gauss-Kronrod (G7/K15) rule on
straight segments, in numpy.

Both entry points share one stopping rule, QUADPACK's global error control
(Piessens et al., *QUADPACK*, 1983, routine QAG): a segment is done when
the summed |K15 - G7| of its panels is at most max(abs_tol, rel_tol*|I|),
where I is the sum of the panel estimates.  Until then every panel whose
error exceeds its width share of that budget is bisected.  Some panel
always does, so each round makes progress; ``max_subdivisions`` caps the
bisections of one segment.

* ``adaptive_segment`` integrates one segment, one 15-point panel per
  integrand call;
* ``adaptive_segments`` integrates an array of segments at once: every
  round evaluates all new panels of all segments in one integrand call.
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
GAUSS_IDX = np.arange(1, 15, 2)
WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def _stalled(splits, err):
    return (f"segment quadrature stalled after {splits} subdivisions "
            f"(error {err:.3e})")


def adaptive_segment(f, z0, z1, abs_tol, rel_tol, max_subdivisions):
    """Adaptively integrate a vectorized complex function along [z0, z1].

    ``f`` maps an ndarray of points on the segment to an ndarray of values.
    """
    z0 = complex(z0)
    dz = complex(z1) - z0
    if dz == 0:
        return 0j

    def panel(t0, t1):
        mid = 0.5 * (t0 + t1)
        hw = 0.5 * (t1 - t0)
        fv = np.asarray(f(z0 + (mid + hw * XGK) * dz)) * dz
        ik = complex(hw * (fv @ WGK))
        return t0, t1, ik, abs(ik - complex(hw * (fv[GAUSS_IDX] @ WG)))

    panels = [panel(0.0, 1.0)]
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
            if splits > max_subdivisions or t1 - t0 < 2e-15:
                raise ConvergenceError(_stalled(splits, error))
            mid = 0.5 * (t0 + t1)
            halves += (panel(t0, mid), panel(mid, t1))
        if not halves:
            # every panel within its share: the sum exceeds the budget by
            # rounding only
            break
        panels = kept + halves
        total = sum(p[2] for p in panels)
        error = sum(p[3] for p in panels)
    return total


def _panel_estimates(f, z0, dz, owner, t0, t1):
    """K15 estimate and |K15 - G7| of each panel [t0, t1] of the segments
    ``owner``, from one call of f on a (panels, 15) array of nodes."""
    mid = 0.5 * (t0 + t1)
    hw = 0.5 * (t1 - t0)
    d = dz[owner, None]
    fv = np.asarray(f(z0[owner, None]
                      + (mid[:, None] + hw[:, None] * XGK) * d)) * d
    ik = hw * (fv @ WGK)
    return ik, np.abs(ik - hw * (fv[:, GAUSS_IDX] @ WG))


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
    ik, err = _panel_estimates(f, z0, dz, owner, t0, t1)
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
        bad[owner[split & (t1 - t0 < 2e-15)]] = True
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
        new_ik, new_err = _panel_estimates(f, z0, dz, new_owner, new_t0,
                                           new_t1)
        owner = np.concatenate([owner[keep], new_owner])
        t0 = np.concatenate([t0[keep], new_t0])
        t1 = np.concatenate([t1[keep], new_t1])
        ik = np.concatenate([ik[keep], new_ik])
        err = np.concatenate([err[keep], new_err])
    if failed.any():
        i = int(np.argmax(failed))
        raise ConvergenceError(_stalled(int(splits[i]), stalled[i]), index=i)
    return total.reshape(shape)
