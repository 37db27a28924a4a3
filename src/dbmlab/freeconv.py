"""Free additive convolution with a semicircle, via subordination.

For a probability measure mu and a time t > 0, the density psi_t of
the evolved measure is recovered from the geometry of the map
H(z) = z + t G(z), where G is the Stieltjes transform of mu.  The
subordination height

    y_t(x) = inf { y >= 0 : int dmu(s) / ((x-s)^2 + y^2) <= 1/t }

defines a graph x -> x + i y_t(x) on which H takes real values and is
strictly increasing; H maps the open region above the graph
conformally onto the upper half plane.  Writing F for the inverse of
H along the graph,

    psi_t(xi) = -Im G(F(xi)) / pi,

with the parametric identity psi_t(H(x + i y_t(x))) = y_t(x)/(pi t)
available as an independent route.  The finite-n saddle points of the
kernel's contour representation are F evaluated at rescaled window
coordinates, for mu the empirical measure of the initial points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    NonConvergence,
    OutsideDomain,
    PrincipalValueRequired,
)
from .measures import InitialConfiguration, MeasureSpec
from .measures import _illinois, _shaped
from .panels import gauss_panels, graded_edges, jacobi_panels, panel_nodes, row_union

__all__ = [
    "FreeConvolutionState",
    "Window",
    "stieltjes",
    "hilbert_transform",
    "second_moment_integral",
    "t_critical",
    "y_t",
    "H_map",
    "forward_map",
    "psi_t",
    "inverse_map",
    "make_window",
    "gap_window",
]

_DIVERGENCE_THRESHOLD = 1e12  # partial integrals beyond this count as divergent


# --------------------------------------------------------------------------
# measure handling helpers


def _as_measure(obj):
    if isinstance(obj, (MeasureSpec, InitialConfiguration)):
        return obj
    if isinstance(obj, (np.ndarray, list, tuple)):
        return InitialConfiguration(obj)
    raise TypeError(f"not a measure: {type(obj).__name__}")


def _atoms(mu):
    """Atom locations of a configuration's empirical measure, else None."""
    return mu.points if isinstance(mu, InitialConfiguration) else None


def _closed(mu):
    """Whether mu is a density with closed forms for G and the Lorentz sums."""
    return _atoms(mu) is None and mu.kind in ("semicircle", "uniform")


def _check_finite(x, name="x"):
    """ConfigError unless every value of x, a scalar or an array, is finite."""
    bad = np.extract(~np.isfinite(x), x)
    if bad.size:
        raise ConfigError(f"{name} must be finite, got {bad[0]}")


def _interval_distance(x, a, b):
    return max(a - x, x - b, 0.0)


def _support_distance(mu, x):
    pts = _atoms(mu)
    if pts is not None:
        return float(np.min(np.abs(pts - x)))
    best = math.inf
    for a, b in mu.support:
        d = _interval_distance(x, a, b)
        if d == 0.0:
            return 0.0
        best = min(best, d)
    return best


# --------------------------------------------------------------------------
# Stieltjes transform


def _stieltjes_closed(mu, z):
    """Closed-form G for the semicircle and uniform kinds; array-safe."""
    z = np.asarray(z, dtype=complex)
    if mu.kind == "semicircle":
        (v,) = mu.params
        e = 2.0 * math.sqrt(v)
        # principal square roots keep Im G < 0 in the upper half plane and
        # give the 1/z-decaying branch on the real axis outside the support
        w = np.sqrt(z - e) * np.sqrt(z + e)
        # (z - w)/(2v), written without its cancellation far out on the axis
        return 2.0 / (z + w)
    a, b = mu.support[0]
    # Im G from the angle between z - a and z - b in one arctan2: left of
    # the support Im log(z - a) - Im log(z - b) cancels two values near pi
    x, y = z.real, z.imag
    angle = np.arctan2(y * (b - a), (x - a) * (x - b) + y * y)
    return ((np.log(z - a) - np.log(z - b)).real - 1j * angle) / (b - a)


def _closed_dg(mu, z):
    """Closed-form G'(z) for the semicircle and uniform kinds; array-safe."""
    lo, hi = mu.support[0]
    if mu.kind == "semicircle":
        return -_stieltjes_closed(mu, z) / (np.sqrt(z - hi) * np.sqrt(z + hi))
    return (1.0 / (z - lo) - 1.0 / (z - hi)) / (hi - lo)


def _cauchy_panels(mu, z):
    """int density(s)/(z - s) ds on the panel rule at z."""
    zz = complex(z)
    s, wd = _rule_rows(mu, np.array([zz.real]), zz.imag)
    return complex(np.sum(wd[0] / (zz - s[0])))


def stieltjes(mu, z):
    """Stieltjes transform G(z) = int dmu(s)/(z - s).

    Exact compensated summation for atomic measures; closed forms for the
    semicircle and uniform kinds; graded-panel quadrature otherwise.  Real
    z on the support needs a principal value and is rejected.
    """
    mu = _as_measure(mu)
    zz = complex(z)
    _check_finite(zz, "z")
    if zz.imag == 0.0 and _support_distance(mu, zz.real) == 0.0:
        raise PrincipalValueRequired(
            "z lies on the support; use hilbert_transform for the principal value"
        )
    pts = _atoms(mu)
    if pts is not None:
        terms = 1.0 / (zz - pts)
        return complex(math.fsum(terms.real), math.fsum(terms.imag)) / pts.size
    if _closed(mu):
        return complex(_stieltjes_closed(mu, zz))
    return _cauchy_panels(mu, zz)


# --------------------------------------------------------------------------
# Hilbert transform (principal value on the support)


def _pv_excision(mu, x):
    """Principal value of int density(s)/(x - s) ds at x on the support.

    e is half the distance from x to the nearest other support end or kink,
    at most span/16.  Inside the band |s - x| < e the principal value is the
    ordinary integral int_0^e (rho(x - r) - rho(x + r))/r dr, smooth in r
    out to r = 2e, so one Gauss-Legendre panel takes it.  Outside the band
    the support is cut at the kinks and the band, and each stretch graded
    toward both its ends down to e: every panel sees the pole at x and the
    kinks at rho >= 3, and one that ends at a power kink takes Gauss-Jacobi
    nodes.
    """
    kinks = mu.kink_points()
    near = [abs(x - p) for p in (*np.ravel(mu.support), *kinks) if p != x]
    e = 0.5 * min(near + [np.ptp(mu.hull()) / 8.0])
    r, w = panel_nodes(np.array([0.0, e]))
    total = float(np.sum(w * (mu.density(x - r) - mu.density(x + r)) / r))
    for a, b in mu.support:
        cuts = np.unique(np.clip([a, b, x - e, x + e, *kinks], a, b))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if lo < x - e or hi > x + e:
                edges = graded_edges(lo, hi, [lo, hi], e)
                s, wd = _density_panels(mu, edges[:-1], edges[1:])
                total += float(np.sum(wd / (x - s)))
    return total


def _one_sided_densities(mu, x):
    """The density's limits at x from the left and from the right: each
    piece's own value at an end of it that is x, 0 where no piece is."""
    left = right = 0.0
    for i, (a, b) in enumerate(mu.support):
        if x not in (a, b):
            continue
        if mu.kind == "piecewise":
            val = float(np.polynomial.polynomial.polyval(x, mu.params[i][1]))
        else:
            val = float(mu.density(x))
        if x == b:
            left = val
        if x == a:
            right = val
    return left, right


def hilbert_transform(mu, x):
    """Principal value of int dmu(s)/(x - s); the ordinary integral off the support.

    Exact sums over atoms; Re G on the axis for the semicircle and uniform
    kinds; coeff ((c - a)^kappa - (b - c)^kappa)/kappa at a power density's
    centre c; else one excision (``_pv_excision``) on the support.  An atom
    at x, or a support end where the density jumps, diverges: ValueError.
    """
    mu = _as_measure(mu)
    x = float(x)
    _check_finite(x)
    pts = _atoms(mu)
    if pts is not None:
        if np.min(np.abs(pts - x)) == 0.0:
            raise ValueError("non-integrable: an atom sits at x")
        terms = 1.0 / (x - pts)
        return math.fsum(terms) / pts.size
    if x in np.ravel(mu.support):
        left, right = _one_sided_densities(mu, x)
        if abs(left - right) > 1e-12 * max(abs(left), abs(right)):
            raise ValueError("non-integrable: the density jumps at a support edge")
    if _closed(mu):
        return float(_stieltjes_closed(mu, x).real)
    if _support_distance(mu, x) > 0.0:
        return _cauchy_panels(mu, complex(x)).real
    if mu.kind == "power" and x == mu.params[1]:
        kappa, c, coeff = mu.params
        ((a, b),) = mu.support
        return coeff * ((c - a) ** kappa - (b - c) ** kappa) / kappa
    return _pv_excision(mu, x)


# --------------------------------------------------------------------------
# second moment integral and the critical time


def _piecewise_second_moment(mu, x):
    from numpy.polynomial import polynomial as P

    total = 0.0
    for (a, b), coeffs in mu.params:
        co = np.asarray(coeffs, dtype=float)
        # p(s) = (q(s) (s - x) + r1) (s - x) + r0
        q1, r0 = P.polydiv(co, [-x, 1.0])
        q, r1 = P.polydiv(q1, [-x, 1.0])
        r0, r1 = float(r0[0]), float(r1[0])
        scale = max(float(np.max(np.abs(co))), 1e-300)
        scale *= max(1.0, abs(b - a), abs(x - a), abs(x - b)) ** max(co.size - 1, 0)
        inside = a <= x <= b
        # on the piece the density must vanish to second order at x, else
        # the integral diverges (one-sidedly at the ends)
        if inside and (abs(r0) > 1e-12 * scale or abs(r1) > 1e-12 * scale):
            return math.inf
        anti = P.polyint(q)
        total += float(P.polyval(b, anti) - P.polyval(a, anti))
        if not inside:
            total += r1 * math.log(abs((b - x) / (a - x)))
            total += r0 * (1.0 / (x - b) - 1.0 / (x - a))
    return total


def second_moment_integral(mu, x):
    """int dmu(s)/(x - s)^2, with exact divergence detection (may be inf)."""
    mu = _as_measure(mu)
    x = float(x)
    _check_finite(x)
    pts = _atoms(mu)
    if pts is not None:
        diffs = x - pts
        if np.min(np.abs(diffs)) == 0.0:
            return math.inf
        return math.fsum(1.0 / diffs**2) / pts.size
    if mu.kind == "piecewise":
        return _piecewise_second_moment(mu, x)
    if _support_distance(mu, x) > 0.0:
        if _closed(mu):
            return -float(_closed_dg(mu, complex(x)).real)
        s, wd = _rule_rows(mu, np.array([x]), 0.0)
        return float(np.sum(wd[0] / (x - s[0]) ** 2))
    if mu.kind == "power" and x == mu.params[1] and mu.params[0] > 1.0:
        kappa, c, coeff = mu.params
        ((a, b),) = mu.support
        return coeff * ((b - c) ** (kappa - 1.0) + (c - a) ** (kappa - 1.0)) / (kappa - 1.0)
    return math.inf  # density positive at x, or vanishing too slowly there


def t_critical(mu, x_star):
    """Largest time with vanishing evolved density at x*; 0 when divergent."""
    d = second_moment_integral(mu, float(x_star))
    if not math.isfinite(d) or d > _DIVERGENCE_THRESHOLD:
        return 0.0
    return 1.0 / d


# --------------------------------------------------------------------------
# subordination height


def _closed_lorentz_sums(mu, xs, big_y):
    """L and M = -dL/dY for the semicircle and uniform kinds, from G and G'.

    With z = x + iy, L = -Im G(z)/y and M = (Re G'(z) + L)/(2y^2).  The
    latter cancels to nothing when y is far below the distance from x to
    the support; there M is replaced by M(0) = int dmu/(x - s)^4, which
    exceeds M by a relative 2y^2/dist^2 at most, so Newton steps taken
    with it stay below the root.
    """
    y = np.sqrt(big_y)
    z = xs + 1j * y
    lo, hi = mu.support[0]
    lsum = -np.imag(_stieltjes_closed(mu, z)) / y
    msum = (np.real(_closed_dg(mu, z)) + lsum) / (2.0 * big_y)
    far = y < 1e-4 * np.maximum(np.maximum(lo - xs, xs - hi), 0.0)
    if np.any(far):
        x = xs[far]
        if mu.kind == "semicircle":
            msum[far] = np.abs(x) / (x * x - hi * hi) ** 2.5
        else:
            msum[far] = ((x - hi) ** -3 - (x - lo) ** -3) / (3.0 * (hi - lo))
    return lsum, msum


def _density_panels(mu, lo, hi):
    """Nodes s and weights w * density(s) on the panels [lo_i, hi_i], one
    row of 16 each: Gauss-Legendre, and on the panels that end at a power
    density's kink c Gauss-Jacobi, with the weight coeff |s - c|^kappa
    folded in, which integrate the kink exactly."""
    s, w = gauss_panels(lo, hi)
    w *= mu.density(s)
    if mu.kind == "power" and mu.kink_points():
        kappa, kink, coeff = mu.params
        at = (lo == kink) | (hi == kink)
        far = np.where(lo[at] == kink, hi[at], lo[at])
        s[at], w[at] = jacobi_panels(kink, far - kink, kappa)
        w[at] *= coeff
    return s, w


def _rule_rows(mu, xs, y):
    """The panel rules for integrals against mu near the points xs + iy, one
    row per point: nodes s, and weights w * density(s) padded with zeros on
    nodes one unit right of the point, an exact 0 in every sum, also at
    y = 0.  y is one height for all points or one per point.

    Each piece of the support is graded toward x (clipped into the piece)
    down to half of max(|y|, dist(x, piece)), in one ``graded_edges`` call
    for all points.  A power density's kink c, inside the piece or at one of
    its ends, is graded by quarters too, in each row down to the first width
    below the row's nearest other edge to c, so every Gauss-Legendre panel
    sees c at rho >= 3; the panels that end at c take Gauss-Jacobi nodes
    with the weight coeff |s - c|^kappa folded in, which integrate the kink
    exactly.  Each row is bitwise the rule of its point alone.
    """
    hull_lo, hull_hi = mu.hull()
    span = max(hull_hi - hull_lo, 1e-12)
    kink = mu.params[1] if mu.kind == "power" and mu.kink_points() else None
    rows, nodes, weights = [], [], []
    for a, b in mu.support:
        if not b > a:
            continue
        dist = np.maximum(np.abs(y), np.maximum(np.maximum(a - xs, xs - b), 0.0))
        row, edges = graded_edges(
            a, b, np.clip(xs, a, b)[:, None], np.maximum(0.5 * dist, 1e-13 * span)
        )
        if kink is not None and a <= kink <= b:
            # each row's nearest edge to the kink other than the kink itself;
            # every row holds a and b
            gap = np.abs(edges - kink)
            gap[gap == 0.0] = np.inf
            near = np.minimum.reduceat(gap, np.searchsorted(row, np.arange(xs.size)))
            # the x grading already caps every gap at span/8, so the kink's
            # ladder needs no cap of its own
            widths = np.ldexp(b - a, -2 * np.arange(1, 49))
            krow, kw = np.nonzero(widths[None, :] >= near[:, None])
            kedges = np.concatenate([np.full(xs.size, kink), kink - widths[kw], kink + widths[kw]])
            krow = np.concatenate([np.arange(xs.size), krow, krow])
            inside = (a < kedges) & (kedges < b)
            row, edges = row_union(
                np.concatenate([row, krow[inside]]), np.concatenate([edges, kedges[inside]])
            )
        inner = row[1:] == row[:-1]
        s, w = _density_panels(mu, edges[:-1][inner], edges[1:][inner])
        rows.append(np.repeat(row[1:][inner], s.shape[1]))
        nodes.append(s.ravel())
        weights.append(w.ravel())
    # rows in order, and in each row the pieces in order
    order = np.argsort(np.concatenate(rows), kind="stable")
    row = np.concatenate(rows)[order]
    s = np.concatenate(nodes)[order]
    wd = np.concatenate(weights)[order]
    count = np.bincount(row, minlength=xs.size)
    col = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    out_nodes = np.repeat(xs[:, None] + 1.0, count.max(), axis=1)
    out_weights = np.zeros(out_nodes.shape)
    out_nodes[row, col] = s
    out_weights[row, col] = wd
    return out_nodes, out_weights


def _height_floor(mu, t, xs):
    """A lower bound on the height y_t(x) at each point, or 0.

    L(Y) >= mu[x - d, x + d] / (d^2 + Y) for every d > 0, so the root of
    L(Y) = 1/t has Y >= t mu[x - d, x + d] - d^2.  The largest of these over
    a ladder of halving d, with each mass read off the cdf less a slack for
    its rounding, is halved, so the floor is at most 1/sqrt(2) of the
    height.  A floor below Newton's start height counts as 0.
    """
    hull_lo, hull_hi = mu.hull()
    d = np.ldexp(hull_hi - hull_lo + 2.0 * math.sqrt(t), -np.arange(_FLOOR_LEVELS))
    mass = mu.cdf(xs[:, None] + d) - mu.cdf(xs[:, None] - d)
    y = np.sqrt(0.5 * np.maximum(np.max(t * (mass - _MASS_SLACK) - d * d, axis=1), 0.0))
    return np.where(y >= _Y_START * math.sqrt(t), y, 0.0)


def _row_lorentz_sums(dx2, weights, big_y):
    """L and M = -dL/dY with one row of squared distances (x - s)^2 to the
    nodes and one row of weights per point, or one for all.  Each sum reduces
    its own row; a matrix-vector product would round each one differently
    with the rows around it."""
    inv = np.add(dx2, big_y[:, None])
    np.reciprocal(inv, out=inv)
    lsum = np.einsum("ij,ij->i", inv, weights)
    msum = np.einsum("ij,ij->i", np.multiply(inv, inv, out=inv), weights)
    return lsum, msum


# points per block of panel rules, set by memory: a block holds a dozen
# arrays of its widest rule per point while its rules are built, then x - s
# and (x - s)^2 through Newton.  The power density's 201-point psi pads its
# rules to 281 nodes on average; at 32 points it allocates 2.2 MB at its
# peak (4.1 MB at 64, little faster), and at 16 it runs about 15% slower.
# Rows do not depend on it.
_RULE_BLOCK = 32
# float64 entries per block of an n-column temporary of atom sums, 256 KB: a
# block's (x - s)^2 and the few temporaries of each Newton step then stay in
# a core's cache (a 4000-point profile at n = 50 took 4.9 ms, against 9.1 ms
# at 1 MB)
_ATOM_BLOCK = 1 << 15
_NEWTON_CAP = 64
# an inverse-map bracket narrower than _XTOL + _RTOL |x| has settled
_XTOL, _RTOL = 1e-10, 8.9e-16
_INVERSE_CAP = 100
# Newton's start height, in units of sqrt(t); heights below it count as 0
_Y_START = 1e-14
# exact heights in a configuration's seed table, equispaced over the graph's range
_SEED_POINTS = 129
# the height floor's half-widths d: the hull's span plus 2 sqrt(t), halved
# up to this many times; and the mass it takes off each cdf difference, far
# above the rounding of a cdf made of O(1) terms
_FLOOR_LEVELS = 48
_MASS_SLACK = 1e-12


def _newton_heights(sums, t, size, start=None):
    """Heights y >= 0 with L(y^2) = 1/t, and 0 where no positive one exists.

    ``sums(idx, Y)`` returns L(Y) = int dmu(s)/((x - s)^2 + Y) and
    M = -dL/dY at the points indexed by idx, a slice of them all while
    every point is still open, so no row is copied.  As a harmonic mean of
    functions affine in Y, h = 1/L is concave and increasing (Biane,
    Indiana Univ. Math. J. 46, 1997), so Newton on h(Y) = t, started below
    the root, rises monotonically to it, and started above it, lands below
    it in one step.  It starts at the heights ``start``, one per point, else
    at sqrt(t) _Y_START.  A start above that whose L is at most 1/t takes
    the one step down, clamped at sqrt(t) _Y_START; if L is still at most
    1/t off the clamp, the point sits within rounding of the root and
    keeps that height.  A point whose L at sqrt(t) _Y_START is at most 1/t
    gets height 0.
    """
    low = math.sqrt(t) * _Y_START
    y0 = np.full(size, low) if start is None else start
    big_y = y0 * y0
    big_low = low * low
    lsum, msum = sums(slice(None), big_y)
    above = np.nonzero((lsum <= 1.0 / t) & (big_y > big_low))[0]
    if above.size:
        step = lsum[above] * (t * lsum[above] - 1.0) / msum[above]
        if not np.all(np.isfinite(step)):
            raise NonConvergence("subordination height: non-finite Newton step")
        big_y[above] = np.maximum(big_y[above] + step, big_low)
        lsum[above], msum[above] = sums(above, big_y[above])
    ys = np.where((lsum <= 1.0 / t) & (big_y > big_low), np.sqrt(big_y), 0.0)
    idx = np.nonzero(lsum > 1.0 / t)[0]
    big_y, lsum, msum = big_y[idx], lsum[idx], msum[idx]
    for _ in range(_NEWTON_CAP):
        step = lsum * (t * lsum - 1.0) / msum
        if not np.all(np.isfinite(step)):
            raise NonConvergence("subordination height: non-finite Newton step")
        moving = step > 4.0 * np.spacing(big_y)
        ys[idx[~moving]] = np.sqrt(big_y[~moving])
        idx, big_y = idx[moving], big_y[moving] + step[moving]
        if idx.size == 0:
            return ys
        lsum, msum = sums(idx if idx.size < size else slice(None), big_y)
    raise NonConvergence(
        f"subordination height: Newton did not settle in {_NEWTON_CAP} steps "
        f"at {idx.size} points, t={t:g}"
    )


def _monotone_cubic(nodes, values, q):
    """The monotone cubic through (nodes, values) at q, clamped to its ends.

    Nodes strictly increase and values do not decrease.  Fritsch and
    Carlson (SIAM J. Numer. Anal. 17, 1980): the slope at a node is the mean
    of its two secants, capped at three times either, which keeps each
    cubic piece monotone; the end slopes are the end secants.  Linear data
    are reproduced.
    """
    secant = np.diff(values) / np.diff(nodes)
    slope = np.concatenate([
        secant[:1],
        np.minimum(0.5 * (secant[:-1] + secant[1:]), 3.0 * np.minimum(secant[:-1], secant[1:])),
        secant[-1:],
    ])
    k = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, nodes.size - 2)
    dh = nodes[k + 1] - nodes[k]
    s = np.clip((q - nodes[k]) / dh, 0.0, 1.0)
    # cubic Hermite basis on [0, 1]
    h01 = s * s * (3.0 - 2.0 * s)
    return (
        values[k] + h01 * (values[k + 1] - values[k])
        + dh * s * (1.0 - s) * ((1.0 - s) * slope[k] - s * slope[k + 1])
    )


class FreeConvolutionState:
    """Immutable bundle of (mu, t) with a cached sample of the subordination graph.

    Every height y_t(x), at one point or along a profile, comes from one
    Newton solver (``_newton_heights``), and H along the graph from the
    same integrals: closed forms for the semicircle and uniform kinds, else
    one weighted sum per point, shared by y and G, over the atoms of a
    configuration or over the point's graded panel rule (a row of
    ``_rule_rows``).
    H is increasing along the graph, so the cached graph brackets every xi
    at once and ``inverse`` solves H = xi for a whole array in one
    root-finding loop.
    """

    def __init__(self, mu, t):
        self.mu = _as_measure(mu)
        self.t = float(t)
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ConfigError("t must be positive and finite")
        self.sqrt_t = math.sqrt(self.t)
        self._graph = None
        self._seeds = None

    # ------------------------------------------------------------ pointwise

    def y(self, x):
        x = float(x)
        _check_finite(x)
        return float(self._y_profile(np.array([x]))[0])

    def H_raw(self, z):
        """H(z) = z + t G(z) without domain validation."""
        z = complex(z)
        if z.imag == 0.0:
            return complex(z.real + self.t * hilbert_transform(self.mu, z.real), 0.0)
        return z + self.t * stieltjes(self.mu, z)

    def H(self, z):
        z = complex(z)
        _check_finite(z, "z")
        tol = 1e-12 * max(1.0, self.sqrt_t)
        if z.imag < -tol:
            raise OutsideDomain("z lies in the lower half plane")
        y_req = self.y(z.real)
        if z.imag + tol < y_req:
            raise OutsideDomain(
                f"z is below the subordination graph (height {y_req:.6g})"
            )
        return self.H_raw(z)

    def forward(self, x):
        """Real image H(x + i y(x)) of points transported along the flow; a
        scalar or an array like x."""
        xs = np.asarray(x, dtype=float).ravel()
        _check_finite(xs)
        return _shaped(x, self._real_image(xs, *self._graph_points(xs)))

    def _real_image(self, xs, ys, g):
        """x + t Re G at graph points, checked to lie on the real axis."""
        im = np.where(ys > 0.0, ys + self.t * g.imag, 0.0)
        if np.any(np.abs(im) > 1e-7 * max(1.0, self.sqrt_t)):
            raise NonConvergence(
                "graph point failed to map to the real axis: "
                f"Im = {im[np.argmax(np.abs(im))]:.3e}"
            )
        return xs + self.t * g.real

    # ------------------------------------------------------------ profiles

    def _y_profile(self, xs):
        """Heights y(x) alone."""
        mu = self.mu
        if _closed(mu):
            return _newton_heights(
                lambda i, big_y: _closed_lorentz_sums(mu, xs[i], big_y), self.t, xs.size
            )
        return self._row_points(xs, False)[0]

    def _graph_points(self, xs):
        """Heights y(x) and G(x + i y(x)), one evaluation per point."""
        if _closed(self.mu):
            ys = self._y_profile(xs)
            return ys, _stieltjes_closed(self.mu, xs + 1j * ys)
        return self._row_points(xs, True)

    def _seed_table(self):
        """Exact heights at _SEED_POINTS equispaced points over the graph's
        range, each solved from sqrt(t) _Y_START; made on first use."""
        if self._seeds is None:
            xs = np.linspace(*self._graph_range()[:2], _SEED_POINTS)
            self._seeds = (xs, self._row_points(xs, False, seeded=False)[0])
        return self._seeds

    def _row_points(self, xs, with_g, seeded=True):
        """Heights y(x), and G(x + i y(x)) if ``with_g``, from one row of
        nodes s and weights w per point: the atoms, each of weight 1/n, for
        a configuration, else the point's panel rule.

        Newton starts a panel rule's point at its height floor, an atom
        sum's at the seed table's linear interpolant if ``seeded``, else at
        sqrt(t) _Y_START.  The table depends on mu and t alone and every sum
        reduces its own row, so a height, and the G at it, is bitwise a
        function of its x alone: neither the other points of the call, nor
        the block size, nor the calls before change it.
        """
        mu = self.mu
        pts = _atoms(mu)
        ys = np.empty(xs.size)
        g = np.empty(xs.size, dtype=complex)
        low = _Y_START * self.sqrt_t
        start = None
        if pts is not None:
            # one weight row, broadcast against every row of the block
            nodes, weights = pts[None, :], np.full((1, pts.size), 1.0 / pts.size)
            if seeded:
                seeds = np.maximum(np.interp(xs, *self._seed_table()), low)
        block = _RULE_BLOCK if pts is None else max(1, _ATOM_BLOCK // pts.size)
        for j in range(0, xs.size, block):
            sl = slice(j, j + block)
            x = xs[sl]
            if pts is None:
                # one rule per point, graded at Newton's start height, the
                # point's height floor: it resolves every Lorentzian of width
                # y met on the way up to the root, and the one at the root
                # that G integrates against
                start = np.maximum(_height_floor(mu, self.t, x), low)
                nodes, weights = _rule_rows(mu, x, start)
            elif seeded:
                start = seeds[sl]
            # (x - s)^2 once per block, reused at every Newton step
            dx = x[:, None] - nodes
            dx2 = dx**2
            ys[sl] = y = _newton_heights(
                lambda i, big_y: _row_lorentz_sums(
                    dx2[i], weights if pts is not None else weights[i], big_y
                ),
                self.t, x.size, start,
            )
            if with_g:
                d2 = dx2 + y[:, None] ** 2
                g.real[sl] = np.einsum("ij,ij->i", weights, dx / d2)
                g.imag[sl] = -y * np.einsum("ij,ij->i", weights, np.reciprocal(d2, out=d2))
        if with_g and pts is None:
            # on-support points pinched to the axis need the principal value
            for i in np.nonzero(ys == 0.0)[0]:
                if _support_distance(mu, xs[i]) == 0.0:
                    g[i] = hilbert_transform(mu, xs[i])
        return ys, g

    def _h_graph(self, xs):
        """H(x + i y(x)) along the graph."""
        return xs + self.t * self._graph_points(xs)[1].real

    def _graph_range(self):
        """The graph's ends, 2 sqrt(t) + span/8 beyond the hull, and the span."""
        hull_lo, hull_hi = self.mu.hull()
        span = max(hull_hi - hull_lo, self.sqrt_t, 1e-6)
        margin = 2.0 * self.sqrt_t + 0.125 * span
        return hull_lo - margin, hull_hi + margin, span

    def _ensure_graph(self):
        if self._graph is not None:
            return self._graph
        mu, st = self.mu, self.sqrt_t
        lo, hi, span = self._graph_range()
        pts = _atoms(mu)
        # a frame reads its loop lumps off an atomic graph's heights, so atoms
        # keep the fine base; a density's graph only starts the inverse map,
        # and the refinement below resolves its steep stretches
        parts = [np.linspace(lo, hi, 301 if pts is None else 1201)]
        if pts is not None:
            lump = math.sqrt(self.t / pts.size)
            ladder = np.linspace(-8.0, 8.0, 33) * lump
            parts.append((pts[:, None] + ladder[None, :]).ravel())
            if pts.size > 1:
                parts.append(0.5 * (pts[1:] + pts[:-1]))
        else:
            anchors = set(mu.kink_points())
            for a, b in mu.support:
                anchors.update((a, b))
            cluster = np.linspace(-3.0, 3.0, 25) * st
            for a in anchors:
                parts.append(a + cluster)
        xs = np.unique(np.clip(np.concatenate(parts), lo, hi))
        ys, g = self._graph_points(xs)
        thr = max(st / 64.0, 1e-3 * st)
        for _ in range(6):
            dy = np.abs(np.diff(ys))
            need = (dy > thr) & (np.diff(xs) > 1e-9 * span)
            if not need.any():
                break
            mids = 0.5 * (xs[:-1][need] + xs[1:][need])
            ym, gm = self._graph_points(mids)
            order = np.argsort(np.concatenate([xs, mids]), kind="stable")
            xs = np.concatenate([xs, mids])[order]
            ys = np.concatenate([ys, ym])[order]
            g = np.concatenate([g, gm])[order]
        hs = xs + self.t * g.real
        self._graph = _Graph(xs, ys, hs, np.maximum.accumulate(hs))
        return self._graph

    # ------------------------------------------------------------ inversion

    def inverse(self, xi):
        """F(xi): the graph point x + i y(x) with H(x + i y(x)) = xi.

        A scalar xi gives a complex number, an array one complex array of
        its shape.
        """
        xs = self._solve(xi)
        return _shaped(xi, xs + 1j * self._y_profile(xs))

    def _bracket(self, xi):
        """Brackets [a, b] with H(a) <= xi <= H(b), and H - xi at both ends.

        Inside the graph's range, adjacent graph points and their stored H
        values.  Beyond it xi itself closes the bracket: the graph ends at
        least 2 sqrt(t) outside the hull, so y = 0 there and H(x) - x =
        t G(x) has the sign of x - hull, at xi as at the graph's end.
        """
        g = self._ensure_graph()
        i = np.searchsorted(g.hs_mono, xi)
        ia, ib = np.maximum(i - 1, 0), np.minimum(i, g.xs.size - 1)
        a, b = g.xs[ia], g.xs[ib]
        fa, fb = g.hs[ia] - xi, g.hs[ib] - xi
        out = np.nonzero(~((fa <= 0.0) & (fb >= 0.0)))[0]
        if out.size:
            # xi is the root to an ulp where rounding leaves H(xi) = xi, or
            # flips the sign (the semicircle's closed G far out)
            f = self._h_graph(xi[out]) - xi[out]
            left = fa[out] > 0.0
            f[np.where(left, f > 0.0, f < 0.0)] = 0.0
            lm, rm = left | (f == 0.0), ~left | (f == 0.0)
            a[out[lm]], fa[out[lm]] = xi[out[lm]], f[lm]
            b[out[rm]], fb[out[rm]] = xi[out[rm]], f[rm]
        return a, b, fa, fb

    def _solve(self, xi):
        """x with H(x + i y(x)) = xi, flattened, by safeguarded Illinois steps.

        Each open bracket first takes one step to the monotone cubic of the
        cached graph, x against H, kept half a tolerance inside the bracket.
        """
        xi = np.asarray(xi, dtype=float).ravel()
        _check_finite(xi, "xi")
        a, b, fa, fb = self._bracket(xi)
        tol = _XTOL + _RTOL * np.maximum(np.abs(a), np.abs(b))
        act = np.nonzero((fa < 0.0) & (fb > 0.0) & (b - a >= tol))[0]
        if act.size:
            g = self._ensure_graph()
            # H dips along the graph between repeated atoms; the nodes are the
            # points where its running maximum strictly rises
            rise = np.diff(g.hs_mono, prepend=-np.inf) > 0.0
            half = 0.5 * tol[act]
            c = np.clip(
                _monotone_cubic(g.hs[rise], g.xs[rise], xi[act]),
                a[act] + half, b[act] - half,
            )
            fc = self._h_graph(c) - xi[act]
            hi, lo = fc >= 0.0, fc <= 0.0
            b[act[hi]], fb[act[hi]] = c[hi], fc[hi]
            a[act[lo]], fa[act[lo]] = c[lo], fc[lo]
        return _illinois(
            lambda x, idx: self._h_graph(x) - xi[idx],
            a, b, fa, fb, _XTOL, _RTOL, _INVERSE_CAP, "inverse map"
        )

    def psi(self, xi):
        """Density of mu evolved to time t at xi; a scalar or an array like xi."""
        ys, g = self._graph_points(self._solve(xi))
        return _shaped(xi, np.where(ys > 0.0, np.maximum(-g.imag / math.pi, 0.0), 0.0))


@dataclass(frozen=True)
class _Graph:
    xs: np.ndarray
    ys: np.ndarray
    hs: np.ndarray
    hs_mono: np.ndarray


# --------------------------------------------------------------------------
# module-level wrappers; accept a state or a (measure, t) pair


def _dispatch(state_or_mu, a, b):
    if isinstance(state_or_mu, FreeConvolutionState):
        if b is not None:
            raise TypeError("pass (state, x) or (mu, t, x)")
        return state_or_mu, a
    if b is None:
        raise TypeError("pass (state, x) or (mu, t, x)")
    return FreeConvolutionState(state_or_mu, a), b


def y_t(state_or_mu, a, b=None):
    state, x = _dispatch(state_or_mu, a, b)
    return state.y(x)


def H_map(state_or_mu, a, b=None):
    state, z = _dispatch(state_or_mu, a, b)
    return state.H(z)


def forward_map(state_or_mu, a, b=None):
    state, x = _dispatch(state_or_mu, a, b)
    return state.forward(x)


def psi_t(state_or_mu, a, b=None):
    state, xi = _dispatch(state_or_mu, a, b)
    return state.psi(xi)


def inverse_map(state_or_mu, a, b=None):
    state, xi = _dispatch(state_or_mu, a, b)
    return state.inverse(xi)


# --------------------------------------------------------------------------
# observation windows

DEFAULT_U_GRID = tuple(float(k) * 0.25 for k in range(-8, 9))


@dataclass(frozen=True)
class Window:
    """Observation frame around x*: bulk (c_t > 0) or spectral gap (epsilon)."""

    x_star: float
    t: float
    x_star_t: float
    c_t: float | None
    epsilon: float | None = None
    u_grid: tuple = field(default=DEFAULT_U_GRID)


def make_window(mu, t, x_star, u_grid=None):
    """Bulk window: requires positive local density of the evolved measure."""
    return _window(FreeConvolutionState(mu, t), x_star, None, u_grid)


def gap_window(config, t, x_star, epsilon, u_grid=None):
    """Gap window: x* must carry no local density at time t."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ConfigError("epsilon must be positive and finite")
    return _window(FreeConvolutionState(config, t), x_star, epsilon, u_grid)


def _window(state, x_star, epsilon, u_grid):
    """A bulk window when epsilon is None, else a gap window; one graph point
    gives the height at x*, c_t and x*_t."""
    xs = np.array([float(x_star)])
    _check_finite(xs)
    ys, g = state._graph_points(xs)
    y_star = float(ys[0])
    if epsilon is None and y_star <= 0.0:
        raise OutsideDomain(
            "y_t(x*) = 0: no local density at x*; use gap_window for gap frames"
        )
    if epsilon is not None and y_star > 0.0:
        raise OutsideDomain(
            "x* carries local density at time t; use make_window for bulk frames"
        )
    return Window(
        x_star=float(xs[0]),
        t=state.t,
        x_star_t=float(state._real_image(xs, ys, g)[0]),
        c_t=None if epsilon is not None else y_star / (math.pi * state.t),
        epsilon=epsilon,
        u_grid=tuple(u_grid) if u_grid is not None else DEFAULT_U_GRID,
    )


def window_scale(window, n):
    """Physical half-width of one unit of u in the window coordinates."""
    if window.c_t is not None:
        return 1.0 / (window.c_t * n)
    return window.epsilon
