"""Dyadically graded Gauss-Legendre panel quadrature.

Integrands in this package are smooth except at isolated known points
(density kinks, Lorentzian peaks, excision edges). Panels are refined
geometrically toward those points; each panel carries a fixed-order
Gauss-Legendre rule, so the composite rule converges fast while the
node count stays O(order * log(range/floor)).
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss


@functools.cache
def _gl(order):
    return leggauss(order)


def graded_edges(a, b, special=(), floor=None, max_levels=48):
    """Panel edges on [a, b], refined dyadically toward each point of `special`.

    `floor` sets the smallest panel width produced next to a special point.
    Special points outside (a, b) are ignored; ones hitting the ends grade
    one-sidedly.
    """
    if not b > a:
        raise ValueError("empty panel interval")
    span = b - a
    if floor is None:
        floor = 1e-15 * span
    floor = max(floor, 1e-300)
    edges = {a, b}
    for s in special:
        if s < a - 1e-15 * span or s > b + 1e-15 * span:
            continue
        s = min(max(s, a), b)
        if a < s < b:
            edges.add(s)
        w = span
        for _ in range(max_levels):
            w *= 0.5
            if w < floor:
                break
            lo, hi = s - w, s + w
            if a < lo < b:
                edges.add(lo)
            if a < hi < b:
                edges.add(hi)
    out = np.array(sorted(edges))
    # keep base resolution reasonable even with no special points nearby
    widths = np.diff(out)
    cap = span / 8.0
    if np.any(widths > cap):
        refined = [out[0]]
        for left, w in zip(out[:-1], widths):
            k = int(np.ceil(w / cap))
            for j in range(1, k + 1):
                refined.append(left + w * j / k)
        out = np.array(refined)
    return out


def panel_nodes(edges, order=16):
    """Flattened Gauss-Legendre nodes and weights for the given panel edges."""
    base_x, base_w = _gl(order)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    w = (half[:, None] * base_w[None, :]).ravel()
    return x, w
