"""Reference measures and deterministic initial configurations.

A MeasureSpec is an exactly described probability density on the real
line (semicircle, normalized power law, uniform, or piecewise
polynomial); every quantity derived from it (cdf, quantiles, critical
times) is computed from closed-form antiderivatives where they exist.
An InitialConfiguration is a finite sorted point set built by one of its
deterministic generators (quantiles, equispaced, explicit, with a gap
inserted), so the same generator arguments give bitwise the same points.
It is also the empirical measure of its points, and the one type through
which every point set enters the package.

Total mass of every spec is validated to 1e-10 at construction time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonConvergence
from .panels import graded_edges, panel_nodes

MASS_TOL = 1e-10
_LEVEL_TOL = 1e-12


def _shaped(like, values):
    """A Python scalar for a scalar ``like``, else ``values`` in its shape."""
    if np.ndim(like) == 0:
        return values[0].item()
    return values.reshape(np.shape(like))


def _illinois(f, a, b, fa, fb, xtol, rtol, cap, name):
    """Roots in brackets fa = f(a) <= 0 <= f(b) = fb by safeguarded Illinois steps.

    ``f(x, idx)`` evaluates the brackets numbered ``idx``, all open ones in
    one call per step.  A bracket settles when narrower than xtol + rtol |x|
    and gives its secant root; new points stay half that far inside, so a
    root that close to an end is straddled.  The brackets are narrowed in
    place.  ``cap`` steps without settling raise NonConvergence naming ``name``.
    """
    xtol = np.broadcast_to(xtol, a.shape)
    wa, wb = fa.copy(), fb.copy()
    # +1 where the last step moved b, -1 where it moved a
    last = np.zeros(a.size, dtype=np.int8)
    act = np.nonzero((fa < 0.0) & (fb > 0.0))[0]
    for _ in range(cap):
        tol = xtol[act] + rtol * np.maximum(np.abs(a[act]), np.abs(b[act]))
        wide = b[act] - a[act] >= tol
        act, tol = act[wide], tol[wide]
        if act.size == 0:
            span = np.where(fb > fa, fb - fa, 1.0)
            return a - fa * (b - a) / span
        aa, bb = a[act], b[act]
        c = bb - wb[act] * (bb - aa) / (wb[act] - wa[act])
        c = np.clip(c, aa + 0.5 * tol, bb - 0.5 * tol)
        fc = f(c, act)
        hi, lo = fc >= 0.0, fc <= 0.0
        # Illinois: an end kept a second time in a row has its weight halved
        wa[act[hi & (last[act] > 0)]] *= 0.5
        wb[act[lo & (last[act] < 0)]] *= 0.5
        up, dn = act[hi], act[lo]
        b[up], fb[up], wb[up] = c[hi], fc[hi], fc[hi]
        a[dn], fa[dn], wa[dn] = c[lo], fc[lo], fc[lo]
        last[act] = np.sign(fc)
        act = act[fc != 0.0]
    raise NonConvergence(f"{name}: {act.size} brackets still open after {cap} steps")


@dataclass(frozen=True)
class MeasureSpec:
    """Closed-form probability measure on the real line.

    kind is one of "semicircle", "power", "uniform", "piecewise";
    params holds the kind-specific scalars; support is an ascending
    tuple of disjoint closed intervals.
    """

    kind: str
    params: tuple
    support: tuple

    # ------------------------------------------------------------ constructors

    @staticmethod
    def semicircle(variance):
        """Semicircular density sqrt(4 v - x^2) / (2 pi v) on [-2 sqrt v, 2 sqrt v]."""
        v = float(variance)
        if not 0.0 < v < math.inf:
            raise ConfigError("semicircle variance must be positive and finite")
        edge = 2.0 * math.sqrt(v)
        return MeasureSpec("semicircle", (v,), ((-edge, edge),))

    @staticmethod
    def power(exponent, center, support):
        """Density proportional to |x - center|^exponent on [a, b], mass 1."""
        kappa = float(exponent)
        c = float(center)
        a, b = float(support[0]), float(support[1])
        if not 0.0 < kappa < math.inf:
            raise ConfigError("power exponent must be positive and finite")
        if not -math.inf < a < b < math.inf:
            raise ConfigError("power support must be a finite nondegenerate interval")
        if not (a <= c <= b):
            raise ConfigError("power center must lie inside the support")
        raw = (_signed_pow(b - c, kappa + 1.0) - _signed_pow(a - c, kappa + 1.0)) / (
            kappa + 1.0
        )
        coeff = 1.0 / raw
        spec = MeasureSpec("power", (kappa, c, coeff), ((a, b),))
        _validate_mass(spec)
        return spec

    @staticmethod
    def uniform(a, b):
        a, b = float(a), float(b)
        if not -math.inf < a < b < math.inf:
            raise ConfigError("uniform support must be a finite nondegenerate interval")
        return MeasureSpec("uniform", (), ((a, b),))

    @staticmethod
    def piecewise(pieces):
        """Piecewise polynomial density: [( (a, b), coefficients ), ...].

        Coefficients are ascending powers of x. Pieces must be disjoint and
        ascending; total mass must equal 1 within 1e-10 and the density must
        be nonnegative on every piece.
        """
        norm = []
        for (a, b), coeffs in pieces:
            a, b, coeffs = float(a), float(b), tuple(float(c) for c in coeffs)
            if not (-math.inf < a < b < math.inf and all(map(math.isfinite, coeffs))):
                raise ConfigError("piecewise piece needs finite a < b and coefficients")
            norm.append(((a, b), coeffs))
        norm.sort(key=lambda p: p[0][0])
        for left, right in zip(norm[:-1], norm[1:]):
            if left[0][1] > right[0][0] + 1e-15:
                raise ConfigError("piecewise pieces overlap")
        spec = MeasureSpec(
            "piecewise", tuple(norm), tuple(interval for interval, _ in norm)
        )
        _validate_nonnegative(spec)
        _validate_mass(spec)
        return spec

    # ------------------------------------------------------------ evaluation

    def density(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x_arr)
        if self.kind == "semicircle":
            (v,) = self.params
            rad = 4.0 * v - x_arr**2
            mask = rad > 0.0
            out[mask] = np.sqrt(rad[mask]) / (2.0 * math.pi * v)
        elif self.kind == "uniform":
            (a, b) = self.support[0]
            mask = (x_arr >= a) & (x_arr <= b)
            out[mask] = 1.0 / (b - a)
        elif self.kind == "power":
            kappa, c, coeff = self.params
            a, b = self.support[0]
            mask = (x_arr >= a) & (x_arr <= b)
            out[mask] = coeff * np.abs(x_arr[mask] - c) ** kappa
        else:
            assigned = np.zeros(x_arr.shape, dtype=bool)
            for (a, b), coeffs in self.params:
                mask = (x_arr >= a) & (x_arr <= b) & ~assigned
                out[mask] = np.polynomial.polynomial.polyval(x_arr[mask], coeffs)
                assigned |= mask
        return _shaped(x, out)

    def cdf(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "semicircle":
            (v,) = self.params
            edge = 2.0 * math.sqrt(v)
            xc = np.clip(x_arr, -edge, edge)
            rad = np.maximum(4.0 * v - xc**2, 0.0)
            out = (
                0.5
                + xc * np.sqrt(rad) / (4.0 * math.pi * v)
                + np.arcsin(np.clip(xc / edge, -1.0, 1.0)) / math.pi
            )
        elif self.kind == "uniform":
            (a, b) = self.support[0]
            out = np.clip((x_arr - a) / (b - a), 0.0, 1.0)
        elif self.kind == "power":
            kappa, c, coeff = self.params
            a, b = self.support[0]
            xc = np.clip(x_arr, a, b)
            out = (
                coeff
                * (_signed_pow(xc - c, kappa + 1.0) - _signed_pow(a - c, kappa + 1.0))
                / (kappa + 1.0)
            )
        else:
            out = np.zeros_like(x_arr)
            for (a, b), coeffs in self.params:
                anti = np.polynomial.polynomial.polyint(coeffs)
                xc = np.clip(x_arr, a, b)
                out += np.polynomial.polynomial.polyval(
                    xc, anti
                ) - np.polynomial.polynomial.polyval(a, anti)
        return _shaped(x, out)

    # ------------------------------------------------------------ structure

    def hull(self):
        """Smallest closed interval containing the support."""
        return self.support[0][0], self.support[-1][1]

    def kink_points(self):
        """Where the density is not smooth: a power density's centre, unless
        kappa is even, and a piecewise one's piece ends."""
        if self.kind == "power":
            kappa, c, _ = self.params
            return (c,) if kappa % 2.0 != 0.0 else ()
        if self.kind == "piecewise":
            return tuple(
                edge for interval in self.support for edge in interval
            )
        return ()

    def mass_pieces(self):
        """Ends a, b of the positive-mass intervals and the cumulative masses
        at those ends, as four arrays."""
        a, b = np.array(self.support).T
        m = self.cdf(b) - self.cdf(a)
        a, b, m = a[m > 0.0], b[m > 0.0], m[m > 0.0]
        hi = np.cumsum(m)
        return a, b, np.concatenate([[0.0], hi[:-1]]), hi


def _signed_pow(u, p):
    return np.sign(u) * np.abs(u) ** p


def _validate_mass(spec):
    lo, hi = spec.hull()
    total = float(spec.cdf(hi))
    if not abs(total - 1.0) <= MASS_TOL:
        raise ConfigError(f"measure mass is {total!r}, expected 1 within {MASS_TOL}")
    # independent numeric verification on graded panels
    numeric = 0.0
    for a, b in spec.support:
        edges = graded_edges(a, b, special=(a, b) + spec.kink_points(), floor=1e-13 * (b - a))
        x, w = panel_nodes(edges)
        numeric += float(np.dot(w, spec.density(x)))
    if not abs(numeric - 1.0) <= 1e-7:
        raise ConfigError("numeric mass check failed; density and cdf disagree")


def _validate_nonnegative(spec):
    for (a, b), coeffs in spec.params:
        xs = np.linspace(a, b, 257)
        vals = np.polynomial.polynomial.polyval(xs, coeffs)
        if np.min(vals) < -1e-12:
            raise ConfigError("piecewise density is negative on its support")


# ---------------------------------------------------------------- quantiles


def quantiles(mu, n, return_flags=False):
    """Points q_k with cdf(q_k) = (k - 1/2)/n, k = 1..n.

    Where the level falls on a flat stretch of the cdf the quantile is not
    unique; the midpoint of the admissible interval is returned and the
    corresponding flag is set (a UserWarning is issued unless flags are
    requested explicitly).
    """
    if not isinstance(mu, MeasureSpec):
        raise TypeError("quantiles requires a MeasureSpec")
    n = int(n)
    if n < 1:
        raise ConfigError("need at least one quantile")
    levels = (np.arange(1, n + 1) - 0.5) / n
    xa, xb, c_lo, c_hi = mu.mass_pieces()
    i = np.minimum(np.searchsorted(c_hi, levels), c_hi.size - 1)
    a, b = xa[i], xb[i]
    # the ends of the neighbouring mass pieces; a piece's own end at the hull
    left = np.concatenate([xa[:1], xb[:-1]])[i]
    right = np.concatenate([xa[1:], xb[-1:]])[i]
    at_lo = levels <= c_lo[i] + _LEVEL_TOL
    at_hi = ~at_lo & (levels >= c_hi[i] - _LEVEL_TOL)
    # a level at a junction with a gap beside it takes the gap's midpoint
    gap_lo = at_lo & (a - left > 0.0)
    gap_hi = at_hi & (right - b > 0.0)
    flags = gap_lo | gap_hi
    out = np.where(at_lo, a, b)
    out[gap_lo] = 0.5 * (left + a)[gap_lo]
    out[gap_hi] = 0.5 * (b + right)[gap_hi]
    mid = np.nonzero(~(at_lo | at_hi))[0]
    a, b, p = a[mid], b[mid], levels[mid]
    xtol = 2e-15 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    q = _illinois(
        lambda x, k: mu.cdf(x) - p[k],
        a, b, mu.cdf(a) - p, mu.cdf(b) - p, xtol, 8.9e-16, 100, "quantiles"
    )
    if np.any(np.abs(mu.cdf(q) - p) > 1e-10):
        raise RuntimeError("quantile solve missed its level tolerance")
    out[mid] = q
    if flags.any() and not return_flags:
        warnings.warn(
            "quantile level(s) fall on a flat stretch of the cdf; "
            "midpoints of the admissible intervals were returned",
            UserWarning,
            stacklevel=2,
        )
    if return_flags:
        return out, flags
    return out


def rigidity(points, mu):
    """n * max_k |a_k - q_k| against the quantiles of mu."""
    pts = _extract_points(points)
    q = quantiles(mu, pts.size)
    return float(pts.size * np.max(np.abs(pts - q)))


def kolmogorov_distance(points, mu):
    """Exact sup |F_n - F|, evaluated at the step breakpoints."""
    pts = _extract_points(points)
    n = pts.size
    f = np.atleast_1d(mu.cdf(pts))
    k = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(f - k / n), np.abs(f - (k - 1) / n))))


def insert_gap(points, x_star, half_width):
    """Project every point strictly inside (x*-d, x*+d) to the nearer edge.

    A point exactly at the center goes to the left edge. Order and count
    are preserved (projection is monotone).
    """
    x_star, half_width = float(x_star), float(half_width)
    if not (math.isfinite(x_star) and 0.0 < half_width < math.inf):
        raise ConfigError(
            "a gap needs a finite center and a positive finite half-width, "
            f"got {x_star} and {half_width}"
        )
    pts = np.asarray(points, dtype=float).copy()
    left = x_star - half_width
    right = x_star + half_width
    inside = (pts > left) & (pts < right)
    pts[inside] = np.where(pts[inside] > x_star, right, left)
    return pts


# ---------------------------------------------------------------- point sets


def _extract_points(config) -> np.ndarray:
    """The points of a configuration, or of the one a raw point set makes."""
    if isinstance(config, InitialConfiguration):
        return config.points
    return InitialConfiguration(config).points


@dataclass(frozen=True, eq=False)
class InitialConfiguration:
    """Sorted, read-only, finite point set, and the uniform atomic measure on
    it; the generators are deterministic."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ConfigError("configuration must be a non-empty 1-d point set")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("configuration points must be finite")
        pts = np.sort(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return int(self.points.size)

    def cdf(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        return _shaped(x, np.searchsorted(self.points, x_arr, side="right") / self.n)

    def hull(self):
        return float(self.points[0]), float(self.points[-1])

    def empirical(self):
        """The configuration itself, which is its own empirical measure; kept
        for callers that still ask for the measure by name."""
        return self

    @staticmethod
    def from_quantiles(mu, n):
        return InitialConfiguration(quantiles(mu, n))

    @staticmethod
    def equispaced(a, b, n):
        return InitialConfiguration(np.linspace(float(a), float(b), int(n)))

    @staticmethod
    def explicit(points):
        return InitialConfiguration(points)

    def with_gap(self, x_star, half_width):
        return InitialConfiguration(insert_gap(self.points, x_star, half_width))
