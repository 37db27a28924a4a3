"""Geometrically graded Gauss-Legendre panel quadrature.

Integrands in this package are smooth except at isolated known points
(density kinks, Lorentzian peaks, excision edges). Panels are refined
toward those points by quarters; each panel carries a fixed-order
Gauss-Legendre rule, so the composite rule converges fast while the
node count stays O(order * log(range/floor)).  A panel [h, 4h] next to
a singularity sees it at a Bernstein ellipse parameter rho = 3, and 16
nodes there converge like rho^-32, about 5e-16 (Trefethen, Approximation
Theory and Approximation Practice, Thm 19.3), so finer grading would
spend nodes on accuracy no double shows.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.polynomial.legendre import leggauss


@functools.cache
def _gl(order):
    return leggauss(order)


def graded_edges(a, b, special=(), floor=None, max_levels=48):
    """Panel edges on [a, b], refined by quarters toward each point of `special`.

    Next to a special point the widths are span 4^-k, k = 1..max_levels,
    down to the first one below `floor`. Special points outside (a, b) are
    ignored; ones hitting the ends grade one-sidedly. When a gap of a rule
    exceeds span/8, each of its gaps is split into k = ceil(8 gap/span)
    parts, with edges left + gap j/k, j = 1..k.

    `special` may also be a 2-d array, one row of points per rule, with
    `floor` one value or one per row; then all rules are graded at once and
    the result is ``(rows, edges)``: every rule's edges in order, flattened
    row after row, and the row of each edge.
    """
    if not b > a:
        raise ValueError("empty panel interval")
    span = b - a
    points = np.asarray(special, dtype=float)
    per_row = points.ndim == 2
    if not per_row:
        points = points[None, :]
    nrow = points.shape[0]
    floor = np.broadcast_to(1e-15 * span if floor is None else floor, (nrow,))
    floor = np.maximum(floor, 1e-300)
    widths = np.ldexp(span, -2 * np.arange(1, max_levels + 1))
    # the ladder stops at the first width below the floor
    kept = np.logical_and.accumulate(~(widths[None, :] < floor[:, None]), axis=1)
    s = np.clip(points, a, b)[..., None]
    cand = np.concatenate([s, s - widths, s + widths], axis=-1)
    use = ~((points < a - 1e-15 * span) | (points > b + 1e-15 * span))
    level = np.concatenate([np.ones((nrow, 1), bool), kept, kept], axis=1)
    keep = use[..., None] & level[:, None, :] & (a < cand) & (cand < b)
    rows = np.concatenate([
        np.broadcast_to(np.arange(nrow)[:, None, None], cand.shape)[keep],
        np.arange(nrow), np.arange(nrow),
    ])
    edges = np.concatenate([cand[keep], np.full(nrow, a), np.full(nrow, b)])
    rows, edges = row_union(rows, edges)
    # keep base resolution reasonable even with no special points nearby
    first = np.ones(rows.size, bool)
    first[1:] = rows[1:] != rows[:-1]
    gap = np.zeros(edges.size)
    gap[1:] = edges[1:] - edges[:-1]
    cap = span / 8.0
    redo = np.zeros(nrow, bool)
    redo[rows[~first & (gap > cap)]] = True
    split = redo[rows] & ~first
    if split.any():
        # the gap ending at an edge of a refined rule becomes k edges, the
        # last one left + gap k/k, which need not be the edge itself
        k = np.where(split, np.ceil(gap / cap), 1.0).astype(np.int64)
        src = np.repeat(np.arange(edges.size), k)
        j = np.arange(src.size) - np.repeat(np.cumsum(k) - k, k) + 1
        left = edges[np.maximum(src - 1, 0)]
        edges = np.where(split[src], left + gap[src] * j / k[src], edges[src])
        rows = rows[src]
    return (rows, edges) if per_row else edges


def row_union(rows, edges):
    """Each row's edges sorted and unique, rows in order: (rows, edges)."""
    order = np.lexsort((edges, rows))
    rows, edges = rows[order], edges[order]
    new = np.ones(rows.size, bool)
    new[1:] = (rows[1:] != rows[:-1]) | (edges[1:] != edges[:-1])
    return rows[new], edges[new]


def gauss_panels(lo, hi, order=16):
    """Gauss-Legendre nodes and weights on the panels [lo_i, hi_i], one row
    of `order` each."""
    base_x, base_w = _gl(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid[:, None] + half[:, None] * base_x[None, :], half[:, None] * base_w[None, :]


def panel_nodes(edges, order=16):
    """Flattened Gauss-Legendre nodes and weights for the given panel edges."""
    x, w = gauss_panels(edges[:-1], edges[1:], order)
    return x.ravel(), w.ravel()
