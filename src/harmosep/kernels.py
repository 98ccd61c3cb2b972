"""Vectorized rasterization of sums of Gaussian bumps on a sample grid.

Both pattern families (single peaks for the spectrogram transform,
harmonic combs for instruments) reduce to scattered Gaussians; the
helpers here evaluate them and their adjoints over truncated local
windows so that per-frame costs stay proportional to the number of
bumps, not the grid length.

The fused pair works on the model's span, the grid range ``[lo, hi)``
that the windows touch: :func:`gaussian_forward` returns the summed
bumps on that span together with ``lo``, and :func:`gaussian_adjoint`
takes a weight vector on the same span.  Window entries that fall off
the grid go to two padding slots, one on each side of the span, which
the forward pass discards and the adjoint pass reads as zero weight.
:func:`gaussian_curvature` reads the same windows for the weighted
squared norms that scale the pursuit's refines.
"""

import math
from functools import lru_cache

import numpy as np

# Gaussians are cut where they fall below exp(-32) ~ 1e-14.
CUTOFF_SIGMAS = 8.0


@lru_cache(maxsize=128)
def _offsets(halfwidth):
    """Integer and float window offsets ``-halfwidth .. halfwidth``."""
    offsets = np.arange(-halfwidth, halfwidth + 1)
    offsets_f = offsets.astype(np.float64)
    offsets.setflags(write=False)
    offsets_f.setflags(write=False)
    return offsets, offsets_f


def _windows(centers, stds, length):
    """Evaluate every bump on its window.

    Returns ``(lo, hi, cache)``.  ``cache`` is ``(slots, d, g, stds)``:
    the ``(n_bumps, width)`` span slots of the window entries (slot
    ``s - lo + 1`` for grid sample ``s``, 0 left of the grid and
    ``hi - lo + 1`` right of it), the distances to the centers, the
    Gaussian values and the standard deviations.
    """
    halfwidth = math.ceil(CUTOFF_SIGMAS * float(stds.max())) + 1
    offsets, offsets_f = _offsets(halfwidth)
    rounded_f = centers.round()
    # A center further off the grid than its window moves nothing but
    # its window's padding slots; clamping it keeps non-finite and huge
    # shifts from overflowing the int64 slots.
    rounded = np.minimum(np.maximum(rounded_f.astype(np.int64),
                                    -halfwidth - 1), length + halfwidth)
    first = int(rounded.min()) - halfwidth
    last = int(rounded.max()) + halfwidth + 1
    lo = min(max(first, 0), length)
    hi = min(max(last, lo), length)
    slots = (rounded - (lo - 1))[:, None] + offsets
    if first < lo:
        np.maximum(slots, 0, out=slots)
    if last > hi:
        np.minimum(slots, hi - lo + 1, out=slots)
    # centers - rounded is exact, so d rounds (rounded + offset) - center
    # once, as subtracting the center from the sample index does.
    d = offsets_f - (centers - rounded_f)[:, None]
    # exp(-d^2 / (2 std^2)); dividing by the negated denominator rounds
    # exactly as negating the quotient does.
    g = d * d
    g /= -2.0 * stds[:, None] ** 2
    np.exp(g, out=g)
    return lo, hi, (slots, d, g, stds)


def gaussian_forward(length, centers, amps, stds):
    """Sum ``amps[k] * exp(-(s - centers[k])^2 / (2 stds[k]^2))`` over
    the bumps on the grid ``0 <= s < length``.

    Returns ``(values, lo, cache)``: the sum on the span ``lo <= s <
    lo + len(values)`` (zero elsewhere on the grid), and the evaluated
    windows for :func:`gaussian_adjoint`.  The span is empty when every
    bump lies off the grid.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if len(centers) == 0:
        return np.zeros(0), 0, None
    amps = np.asarray(amps, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
    lo, hi, cache = _windows(centers, stds, length)
    slots, _, g, _ = cache
    vals = amps[:, None] * g
    n = hi - lo
    acc = np.bincount(slots.ravel(), weights=vals.ravel(), minlength=n + 2)
    return acc[1:n + 1], lo, cache


def _gathered(weights, slots):
    """``weights`` on the span, read at the window slots; the padding
    slots read zero."""
    padded = np.zeros(len(weights) + 2)
    padded[1:-1] = weights
    return padded.take(slots)


def gaussian_adjoint(weights, cache):
    """Inner products of a weight vector on the span with each bump
    and its partials, reusing the windows of :func:`gaussian_forward`.

    Returns ``(ip_g, ip_dc, ip_ds)`` where for bump k (unit amplitude)
    ``ip_g[k] = <w, g_k>``, ``ip_dc[k] = <w, dg_k/dcenter>`` and
    ``ip_ds[k] = <w, dg_k/dstd>``.
    """
    if cache is None:
        z = np.zeros(0)
        return z, z.copy(), z.copy()
    slots, d, g, stds = cache
    wg = _gathered(weights, slots)
    wg *= g
    inv_var = 1.0 / stds**2
    ip_g = wg.sum(axis=1)
    wgd = wg * d
    ip_dc = wgd.sum(axis=1) * inv_var
    wgd *= d
    ip_ds = wgd.sum(axis=1) * inv_var / stds
    return ip_g, ip_dc, ip_ds


def gaussian_curvature(row_weights, cache):
    """Weighted squared norms of each bump and its partials, the
    squared-norm counterpart of :func:`gaussian_adjoint` over the same
    windows.

    Returns ``(sq_g, sq_dc, sq_ds)`` where for bump k (unit amplitude)
    and ``w = row_weights`` on the span ``sq_g[k] = sum (w g_k)^2``,
    ``sq_dc[k] = sum (w dg_k/dcenter)^2`` and ``sq_ds[k] = sum (w
    dg_k/dstd)^2``.
    """
    if cache is None:
        z = np.zeros(0)
        return z, z.copy(), z.copy()
    slots, d, g, stds = cache
    wg2 = _gathered(row_weights, slots)
    wg2 *= g
    wg2 *= wg2
    inv_var = 1.0 / stds**2
    sq_g = wg2.sum(axis=1)
    d2 = d * d
    wg2 *= d2
    sq_dc = wg2.sum(axis=1) * inv_var**2
    wg2 *= d2
    sq_ds = wg2.sum(axis=1) * (inv_var / stds) ** 2
    return sq_g, sq_dc, sq_ds


def gaussian_accumulate(out, centers, amps, stds):
    """Add the bumps of :func:`gaussian_forward` to ``out`` in place;
    contributions outside the grid are dropped."""
    values, lo, _ = gaussian_forward(len(out), centers, amps, stds)
    out[lo:lo + len(values)] += values
    return out


def gaussian_backprop(weights, centers, stds):
    """:func:`gaussian_adjoint` for a weight vector on the whole grid."""
    centers = np.asarray(centers, dtype=np.float64)
    if len(centers) == 0:
        return gaussian_adjoint(weights, None)
    stds = np.asarray(stds, dtype=np.float64)
    lo, hi, cache = _windows(centers, stds, len(weights))
    return gaussian_adjoint(weights[lo:hi], cache)


def sample_gaussian(centers, amps, stds, length):
    """Convenience wrapper returning a fresh grid of the summed bumps."""
    return gaussian_accumulate(np.zeros(length), centers, amps, stds)
