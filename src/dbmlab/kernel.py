"""Exact correlation kernels for deterministic spectra under Gaussian flow.

Two independent evaluation routes are kept deliberately separate so that one
can certify the other.  The first writes the kernel as a finite biorthogonal
sum: Gaussian quadrature applied to the vertical-line integral of each
Lagrange basis ratio, times a Gaussian factor per source point.  It is exact
for any node count above half the point count, but it sums terms of
alternating sign whose cancellation grows with ``n * spread^2 / t``, so it is
the reference route at moderate size and a cross-check elsewhere.  The second
route discretizes the double contour representation directly: a vertical line
through the real part of the z-saddle, and a loop following the graph of the
local spectral half-width around the source points.  All exponentials are
referenced to their saddle values, which keeps every factor at or below one
in modulus along the descent paths; this route scales to large ``n`` and is
what the rescaled observation frames use.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError, NonConvergence
from .freeconv import FreeConvolutionState, Window, window_scale
from .measures import _extract_points
from .panels import panel_nodes

# e^-60: below any tolerance this module promises, with margin for sums
_DROP_CUTOFF = 60.0

# bytes of one block's largest temporary: an x-block of the Lagrange sums,
# the stacked real Cauchy blocks of a w-block in _loop_sum or any product
# made from them, or each real temporary of a q-block in
# RescaledKernelFrame._phi_parts
_BLOCK_BYTES = 2_000_000


def _x_blocks(size: int, bytes_per_x: int) -> list[slice]:
    """Slices of range(size) whose temporaries stay under _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // bytes_per_x)
    return [slice(i, i + step) for i in range(0, size, step)]


@functools.cache
def _hermgauss(m: int):
    # numpy's hermgauss overflows above a few hundred nodes; scipy.special,
    # most of the cost of importing dbmlab, loads on the first call instead
    from scipy.special import roots_hermite

    return roots_hermite(m)


def sine_kernel(u, v):
    """sin(pi(u-v))/(pi(u-v)) with the diagonal understood as 1."""
    d = np.subtract(u, v)
    out = np.sinc(d)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _split_duplicates(pts: np.ndarray) -> tuple[np.ndarray, float]:
    """Separate exactly coincident points of a sorted set symmetrically by a
    relative eps."""
    if pts.size == 1 or np.all(np.diff(pts) > 0.0):
        return pts, 0.0
    spread = float(pts[-1] - pts[0])
    eps = 1e-9 * (spread if spread > 0.0 else max(1.0, abs(float(pts[0]))))
    # each run of k equal points moves by (rank - (k - 1) / 2) eps
    _, first, k = np.unique(pts, return_index=True, return_counts=True)
    rank = np.arange(pts.size) - np.repeat(first, k)
    out = pts + (rank - (np.repeat(k, k) - 1) / 2.0) * eps
    if np.any(np.diff(out) <= 0.0):
        raise ConfigError(
            "duplicate points too tightly clustered to split; "
            "separate them by more than the splitting eps"
        )
    return out, eps


class KernelEvaluator:
    """Lagrange-sum kernel evaluator bound to one configuration and time.

    ``x0`` is the gauge base point: determinants and the diagonal are
    invariant under it, individual off-diagonal entries of the gauge-fixed
    kernel are not.
    """

    def __init__(self, config, t, x0=0.0, m_nodes=64, m_max=4096):
        t = float(t)
        if not (math.isfinite(t) and t > 0.0):
            raise ConfigError(f"t must be positive and finite, got {t}")
        self.points, self.eps_split_applied = _split_duplicates(_extract_points(config))
        self.n = int(self.points.size)
        self.t = t
        self.x0 = float(x0)
        self.m0 = int(max(int(m_nodes), self.n // 2 + 1))
        self.m_max = int(m_max)
        self.quadrature_m = self.m0
        diffs = self.points[:, None] - self.points[None, :]
        np.fill_diagonal(diffs, 1.0)
        # log |prod_{j!=k}(a_k - a_j)| and its sign, split for stability
        self._d = np.sum(np.log(np.abs(diffs)), axis=1)
        self._sign = np.where((self.n - 1 - np.arange(self.n)) % 2 == 0, 1.0, -1.0)

    # -- z-line quadrature core -------------------------------------------

    def _z_core(self, xs, m, shift):
        """Per x: reference exponent p1, line sums b (X x n), |b| sums, noise scale."""
        n, t = self.n, self.t
        s, w = _hermgauss(m)
        c = math.sqrt(2.0 * t / n)
        with np.errstate(divide="ignore"):
            logw = np.log(w)
        rot = 1j * (shift * math.sqrt(2.0 * n / t))
        extra = (n / (2.0 * t)) * shift * shift + rot * s
        p1, scale = np.empty(xs.size), np.empty(xs.size)
        b = np.empty((xs.size, n), dtype=complex)
        bmag = np.empty((xs.size, n))
        for sl in _x_blocks(xs.size, 16 * m * n):
            z = (xs[sl, None] + shift) + 1j * (c * s)
            with np.errstate(divide="ignore"):
                lz = np.log(z[:, :, None] - self.points)
            stot = lz.sum(axis=2)
            am = (stot + logw + extra)[:, :, None] - lz - self._d
            ar = am.real
            p1[sl] = np.max(ar, axis=(1, 2))
            e = np.exp(am - p1[sl, None, None])
            b[sl] = e.sum(axis=1)
            bmag[sl] = np.abs(e).sum(axis=1)
            # Hermite weights that underflow to 0 (from M = 512 on) give -inf
            # exponents; their terms are exact zeros and carry no rounding
            top = np.max(np.abs(ar), axis=(1, 2), where=np.isfinite(ar), initial=0.0)
            scale[sl] = np.maximum(1.0, top)
        return p1, b, bmag, scale

    def _rows(self, xs, ys, m, shift):
        """K(xs[i], ys[i, j]) and its noise; ys broadcasts against X x 1."""
        n, t = self.n, self.t
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.broadcast_to(ys, np.broadcast_shapes((xs.size, 1), np.shape(ys)))
        p1, b, bmag, scale = self._z_core(xs, m, shift)
        pref = math.sqrt(2.0 * n / t) / (2.0 * math.pi)
        absb = np.abs(b)
        with np.errstate(divide="ignore"):
            lb = np.where(absb > 0.0, np.log(np.maximum(absb, 1e-300)), -np.inf)
            lmag = np.where(bmag > 0.0, np.log(np.maximum(bmag, 1e-300)), -np.inf)
        phase = np.where(absb > 0.0, b / np.maximum(absb, 1e-300), 0.0)
        vals = np.empty(ys.shape, dtype=complex)
        noise = np.empty(ys.shape)
        for sl in _x_blocks(xs.size, 16 * n * ys.shape[1]):
            q = -(n / (2.0 * t)) * (self.points[:, None] - ys[sl, None, :]) ** 2
            m2 = q + (p1[sl, None] + lb[sl])[:, :, None]
            p2 = np.max(m2, axis=1)
            dead = ~np.isfinite(p2)
            p2 = np.where(dead, 0.0, p2)
            terms = (self._sign * phase[sl])[:, :, None] * np.exp(m2 - p2[:, None, :])
            nm = q + (p1[sl, None] + lmag[sl])[:, :, None]
            err = pref * np.exp(p2) * np.exp(nm - p2[:, None, :]).sum(axis=1)
            err = err * (5e-16 * scale[sl, None])
            vals[sl] = np.where(dead, 0.0, pref * np.exp(p2) * terms.sum(axis=1))
            noise[sl] = np.where(dead, 0.0, err)
        return vals, noise

    def _doubled(self, level, rtol, cap_msg, stall_msg):
        """Doubles M from m0 until ``level(M)``, values and their noise, agrees
        with the level before within max(rtol |value|, 4 noise); returns
        those values made real, and M."""
        m = self.m0
        if 2 * m > self.m_max:
            raise NonConvergence(cap_msg.format(m_max=self.m_max, m=m))
        vals, noise = level(m)
        while True:
            m2 = 2 * m
            vals2, noise2 = level(m2)
            tol = np.maximum(rtol * np.abs(vals2), 4.0 * np.maximum(noise, noise2))
            if np.all(np.abs(vals2 - vals) <= tol + 1e-300):
                return self._realize(vals2, noise2), m2
            if 2 * m2 > self.m_max:
                raise NonConvergence(
                    stall_msg.format(m_max=self.m_max, m=m, vals=vals, m2=m2, vals2=vals2)
                )
            vals, noise, m = vals2, noise2, m2

    def _converged_rows(self, xs, ys, shift=0.0):
        """K(xs[i], ys[i, j]) at one M, the largest any row needs."""
        vals, m = self._doubled(
            lambda m: self._rows(xs, ys, m, shift),
            1e-8,
            "node cap m_max={m_max} forbids doubling from m0={m}; "
            "the quadrature cannot be verified",
            "kernel quadrature not converged at cap {m_max}: "
            "M={m} gave {vals}, M={m2} gave {vals2}",
        )
        self.quadrature_m = max(self.quadrature_m, m)
        return vals

    def _realize(self, vals, noise):
        tol = np.maximum(1e-12 * np.abs(vals.real), 8.0 * noise) + 1e-300
        if np.any(np.abs(vals.imag) > tol):
            raise NonConvergence(
                f"imaginary residue {np.max(np.abs(vals.imag)):.3e} exceeds "
                "the realness tolerance"
            )
        return vals.real.copy()

    # -- biorthogonal family ----------------------------------------------

    def _p_hat_all(self, xs, shift=0.0):
        """All n members of the polynomial half at each x, X x n, at one M."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        pref = math.sqrt(2.0 * self.n / self.t) / (2.0 * math.pi)

        def level(m):
            p1, b, bmag, scale = self._z_core(xs, m, shift)
            top = (pref * np.exp(p1))[:, None]
            return top * self._sign * b, top * bmag * (5e-16 * scale[:, None])

        return self._doubled(
            level, 1e-10, "node cap forbids doubling", "p-hat quadrature not converged at cap"
        )[0]


def kernel_lagrange(ev: KernelEvaluator, x, y, contour_shift=0.0) -> float:
    """Ungauged kernel value via the Lagrange quadrature route."""
    return float(kernel_matrix(ev, x, y, contour_shift)[0, 0])


def kernel_matrix(ev: KernelEvaluator, xs, ys, contour_shift=0.0) -> np.ndarray:
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    return ev._converged_rows(xs, ys[None, :], float(contour_shift))


def gauge_log(ev: KernelEvaluator, x, y):
    """Log of the conjugation factor at (x, y); x and y broadcast."""
    n, t = ev.n, ev.t
    return (n / (2.0 * t)) * ((y * y - x * x) - 2.0 * ev.x0 * (y - x))


def gauge_to_paper(ev: KernelEvaluator, x, y, value) -> float:
    """Apply the conjugation factor that symmetrizes the kernel at x0."""
    if value == 0.0:
        return 0.0
    g = gauge_log(ev, float(x), float(y))
    return float(math.copysign(math.exp(math.log(abs(value)) + g), value))


def kernel_paper(ev: KernelEvaluator, x, y) -> float:
    """Gauge-fixed kernel entry; diagonal coincides with the ungauged one."""
    return gauge_to_paper(ev, x, y, kernel_lagrange(ev, x, y))


def lagrange_p_hat(ev: KernelEvaluator, k, x) -> float:
    """k-th member of the polynomial half of the biorthogonal pair."""
    return float(ev._p_hat_all(x)[0, int(k)])


def biorthogonality_check(ev: KernelEvaluator) -> float:
    """Max deviation of the pairing matrix from the identity."""
    n, t = ev.n, ev.t
    s, w = _hermgauss(128)
    c = math.sqrt(2.0 * t / n)
    # row k pairs every p-hat with the Gaussian around point k
    nodes = ev.points[:, None] + c * s
    pmat = ev._p_hat_all(nodes.ravel()).reshape(n, s.size, n)
    pairing = c * (w[:, None] * pmat).sum(axis=1)
    return float(np.max(np.abs(pairing - np.eye(n))))


def _diag_interval(ev: KernelEvaluator) -> tuple[float, float]:
    half = 10.0 * math.sqrt(ev.t)
    return float(ev.points[0] - half), float(ev.points[-1] + half)


def kernel_trace(ev: KernelEvaluator, tol=1e-7) -> float:
    """Integral of the kernel diagonal; equals the point count."""
    lo, hi = _diag_interval(ev)
    panels = 32
    prev = None
    while panels <= 1024:
        edges = np.linspace(lo, hi, panels + 1)
        nodes, wts = panel_nodes(edges, 16)
        diag = ev._converged_rows(nodes, nodes[:, None])[:, 0]
        val = float(wts @ diag)
        if prev is not None and abs(val - prev) <= max(tol, 1e-12 * ev.n):
            return val
        prev = val
        panels *= 2
    raise NonConvergence("trace quadrature did not settle")


def projection_defect(ev: KernelEvaluator, x, y) -> float:
    """|integral K(x,z)K(z,y) dz - K(x,y)|: the reproducing property."""
    lo, hi = _diag_interval(ev)
    x, y = float(x), float(y)
    target = kernel_lagrange(ev, x, y)
    edges = np.linspace(lo, hi, 65)
    nodes, wts = panel_nodes(edges, 16)
    row = ev._converged_rows(x, nodes[None, :])[0]
    col = ev._converged_rows(nodes, [[y]])[:, 0]
    return float(abs(np.sum(wts * row * col) - target))


def correlation_function(ev: KernelEvaluator, pts) -> float:
    """k-point correlation determinant of the gauge-fixed kernel."""
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    mat = kernel_matrix(ev, pts, pts)
    return float(np.linalg.det(mat * np.exp(gauge_log(ev, pts[:, None], pts[None, :]))))


# -- rescaled double-contour frames ---------------------------------------

def _loop_sum(x0: float, sig: np.ndarray, a: np.ndarray, wn: np.ndarray, q: np.ndarray):
    """Double sums of a(z) q(w) / (z - w) over both halves of both contours, times i.

    The z-line is x0 + i*sig (sig > 0) with weight columns ``a`` (Z x U),
    mirrored to x0 - i*sig with conj(a); the loop is ``wn`` with weight rows
    ``-q`` (W x V), mirrored to conj(wn) with conj(q); the result is U x V.
    The z weights are contracted first: r1 = a^T @ 1/(z - w) and
    r2 = a^T @ 1/(z - conj w) give the whole sum as [g, -conj g] @ [conj q, q]
    with g = r2 + conj(r1), accumulated in one product so that its imaginary
    part is the rounding of the mirrored sum.  Every z shares the real part
    x0, so 1/(z - w) = (dx - i dy)/(dx^2 + dy^2) with one real dx = x0 - Re w
    per column: the Cauchy blocks are real, and one real product per loop
    half contracts both of them against the real and imaginary weights.
    """
    nz, nu = a.shape
    amat = np.concatenate([a.real.T, a.imag.T])
    block = max(1, _BLOCK_BYTES // (16 * max(nz, 2 * nu, 2 * q.shape[1])))
    # the transposed Cauchy blocks, stacked: rows of inv, then rows of dy
    buf = np.empty((2 * min(block, wn.size), nz))
    ssum = np.zeros((nu, q.shape[1]), dtype=complex)
    for i in range(0, wn.size, block):
        sl = slice(i, i + block)
        dx = x0 - wn.real[sl]
        dx2 = dx * dx
        k = dx.size
        cauchy = buf[: 2 * k]
        inv, dy = cauchy[:k], cauchy[k:]
        r = []
        for wy in (wn.imag[sl], -wn.imag[sl]):
            # 1/(z - w) = dx*inv - i*dy*inv for w = Re w + i*wy
            np.subtract(sig[None, :], wy[:, None], out=dy)
            np.multiply(dy, dy, out=inv)
            inv += dx2[:, None]
            np.reciprocal(inv, out=inv)
            dy *= inv
            pm = amat @ cauchy.T
            p, m = pm[:, :k], pm[:, k:]
            r.append((p[:nu] * dx + m[nu:]) + 1j * (p[nu:] * dx - m[:nu]))
        g = r[1] + np.conj(r[0])
        qs = q[sl]
        ssum += np.concatenate([g, -np.conj(g)], axis=1) @ np.concatenate([np.conj(qs), qs])
    return 1j * ssum


class RescaledKernelFrame:
    """Kernel in window coordinates via saddle-referenced contour quadrature.

    For bulk windows one unit of (u, v) is 1/(c_t n); for gap windows it is
    the window epsilon.  Values include the oscillatory part, whose frequency
    is read off the height at which the vertical line crosses the loop; in a
    gap frame the saddles are real, the crossing height is zero and the
    oscillatory part vanishes identically.
    """

    def __init__(self, config, t, window: Window, dc_tol=1e-7, max_levels=8):
        self.t = float(t)
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ConfigError(f"t must be positive and finite, got {self.t}")
        if window.t != self.t:
            raise ConfigError(
                f"the window was built at t={window.t!r}, the frame is at t={self.t!r}"
            )
        # the state's measure is the configuration, raw points wrapped in one;
        # phi sums logs of |q - a|, so repeated points need no split
        self.state = FreeConvolutionState(config, self.t)
        self.points = _extract_points(self.state.mu)
        self.n = int(self.points.size)
        self.window = window
        self.h = window_scale(window, self.n)
        self.dc_tol = float(dc_tol)
        self.max_levels = int(max_levels)
        # window coordinate a -> (z_saddle(a), Re phi_hat(z_saddle(a), a))
        self._saddles: dict[float, tuple[complex, float]] = {}
        self._pairs: dict[tuple[float, float], float] = {}
        self._far_lumps: dict[tuple[int, int], tuple | None] = {}
        # largest node count, both contours and both halves, of an accepted row
        self.quadrature_m = 0
        # Re z_saddle(0), reported as the frame's anchor
        self.x0 = self._saddles_at((0.0,))[0][0].real
        # runs [i, j) of positive heights on the graph that solve built,
        # widened by one graph point a side
        g = self.state._ensure_graph()
        pos = np.concatenate([[False], g.ys > 0.0, [False]])
        ends = np.flatnonzero(np.diff(pos))
        last = g.xs.size - 1
        self._lumps = [
            (float(g.xs[max(i - 1, 0)]), float(g.xs[min(j, last)]))
            for i, j in zip(ends[::2], ends[1::2])
        ]

    # -- geometry ----------------------------------------------------------

    def _saddles_at(self, coords) -> list[tuple[complex, float]]:
        """Saddle and its reference Re phi_hat at each window coordinate.

        Coordinates not seen before are solved in one inverse-map call, and
        each new saddle is checked against H by its own exact sum.
        """
        new = [a for a in dict.fromkeys(coords) if a not in self._saddles]
        if new:
            a = np.array(new)
            xi = self.window.x_star_t + self.h * a
            zs = self.state.inverse(xi)
            for x, z in zip(xi.tolist(), zs.tolist()):
                resid = abs(self.state.H_raw(z) - x) / max(1.0, abs(x))
                if resid > 1e-9:
                    raise NonConvergence(f"saddle residual {resid:.3e} above 1e-9")
            b, l = self._phi_parts(zs)
            refs = (b - self.h * a * l).real
            self._saddles.update(zip(new, zip(zs.tolist(), refs.tolist())))
        return [self._saddles[a] for a in coords]

    def _phi_parts(self, q: np.ndarray):
        """B(q) and L(q) with phi_hat(q, a) = B(q) - h*a*L(q)."""
        n, t = self.n, self.t
        xst = self.window.x_star_t
        b = (n / (2.0 * t)) * (q - xst) ** 2
        for sl in _x_blocks(q.size, 8 * n):
            # sum of log(q - a) in real arithmetic, on the same principal branch
            dx = q.real[sl, None] - self.points[None, :]
            dy = q.imag[sl, None]
            b[sl] += 0.5 * np.sum(np.log(dx * dx + dy * dy), axis=1)
            b[sl] += 1j * np.sum(np.arctan2(dy, dx), axis=1)
        return b, (n / t) * (q - xst)

    def _beta(self, x0: float, s: float) -> float:
        d2 = (x0 - self.points) ** 2
        if s > 0.0:
            val = 2.0 * self.n * s * s * float(np.mean(1.0 / (d2 + s * s) ** 2))
        else:
            lor = float(np.mean(1.0 / np.maximum(d2, 1e-300)))
            val = (self.n / self.t) * max(1.0 - self.t * lor, 1e-12)
        return max(val, 1e-300)

    # -- contour quadrature --------------------------------------------------

    def _z_line(self, x0: float, s: float, width: float, level: int):
        """Positive-sigma half of the vertical line: midpoints and cell widths.

        The fine band uses a spacing that divides the crossing height exactly,
        so nodes sit symmetrically around the pole on both sides; the residual
        of the 1/(z-w) singularity then cancels pairwise.
        """
        dens = 3 * (1 << level)
        target = width / dens
        if s > 0.0:
            m = max(dens, int(math.ceil(s / target)))
            dz = s / m
            edges = [np.arange(0, 2 * m + 1) * dz]
            pos = 2.0 * s
        else:
            edges = [np.array([0.0])]
            pos = 0.0
        nb = int(math.ceil(8.0 * width / target))
        band = pos + np.arange(1, nb + 1) * target
        edges.append(band)
        pos = float(band[-1])
        tail = []
        step = target
        for _ in range(200):
            step *= 1.35
            pos += step
            tail.append(pos)
        edges.append(np.asarray(tail))
        e = np.concatenate(edges)
        mids = (e[:-1] + e[1:]) / 2.0
        return mids, np.diff(e)

    @staticmethod
    def _bridge(inner: float, end: float, step: float):
        """Vertex/midpoint parameter grid stretched like sqrt toward ``end``.

        The loop leaves the real axis with a square-root profile, so a grid
        quadratic in the parameter keeps the complex steps comparable in
        length along the arc.
        """
        span = abs(end - inner)
        if span <= 1e-13 * max(1.0, abs(end)):
            return None
        m = max(8, int(math.ceil(2.0 * span / step)))
        tau_v = np.arange(m + 1) / m
        tau_m = (np.arange(m) + 0.5) / m
        sgn = 1.0 if end > inner else -1.0
        xv = end - sgn * span * (1.0 - tau_v) ** 2
        xm = end - sgn * span * (1.0 - tau_m) ** 2
        if sgn < 0:
            xv, xm = xv[::-1], xm[::-1]
        return xv, xm

    def _lump_grid(self, lo, hi, x0, s, width, level, is_home):
        """One lump's vertex chain and parameter-midpoint nodes, ascending."""
        step = width / (3 * (1 << level))
        if not is_home:
            cells = max(16, 32 * (1 << level))
            tau_v = np.linspace(0.0, 1.0, cells + 1)
            tau_m = (tau_v[:-1] + tau_v[1:]) / 2.0
            half = 0.5 * (hi - lo)
            return (
                lo + half * (1.0 - np.cos(np.pi * tau_v)),
                lo + half * (1.0 - np.cos(np.pi * tau_m)),
            )
        # symmetric uniform cells around the crossing keep the pole residual
        # antisymmetric; the outer 3/8 of each side goes to the bridges
        win = 2.0 * (s + 8.0 * width)
        kl = max(0, int(math.floor(min(win, 0.625 * (x0 - lo)) / step)))
        kr = max(0, int(math.floor(min(win, 0.625 * (hi - x0)) / step)))
        verts = [x0 + np.arange(-kl, kr + 1) * step]
        mids = [x0 + (np.arange(-kl, kr) + 0.5) * step]
        left = self._bridge(x0 - kl * step, lo, step)
        if left is not None:
            verts.insert(0, left[0][:-1])
            mids.insert(0, left[1])
        right = self._bridge(x0 + kr * step, hi, step)
        if right is not None:
            verts.append(right[0][1:])
            mids.append(right[1])
        return np.concatenate(verts), np.concatenate(mids)

    def _lump_nodes(self, lo, hi, x0, s, width, level, is_home):
        """One lump's loop nodes and steps, with B and L at the nodes."""
        vx, mx = self._lump_grid(lo, hi, x0, s, width, level, is_home)
        if vx.size < 2:
            return None
        ally = self.state._y_profile(np.concatenate([vx, mx]))
        nodes = mx + 1j * ally[vx.size :]
        return (nodes, np.diff(vx + 1j * ally[: vx.size]), *self._phi_parts(nodes))

    def _w_contour(self, x0: float, s: float, width: float, level: int):
        """Upper half of the loop: parameter-midpoint nodes, steps, B and L."""
        parts = []
        for k, (lo, hi) in enumerate(self._lumps):
            if hi <= lo:
                continue
            if lo <= x0 <= hi:
                part = self._lump_nodes(lo, hi, x0, s, width, level, True)
            else:
                # away from x0 a lump's grid depends on (lump, level) alone
                key = (k, level)
                if key not in self._far_lumps:
                    self._far_lumps[key] = self._lump_nodes(
                        lo, hi, x0, s, width, level, False
                    )
                part = self._far_lumps[key]
            if part is not None:
                parts.append(part)
        if not parts:
            return (np.empty(0, dtype=complex),) * 4
        return tuple(np.concatenate(arrs) for arrs in zip(*parts))

    def _block(self, us: np.ndarray, vs: np.ndarray, anchor: float, level: int):
        """Rows us x columns vs on the z-line and loop through z_saddle(anchor).

        Returns the values, each row's imaginary residual and the node count.
        """
        n, t, h = self.n, self.t, self.h
        (za, _), *at = self._saddles_at((anchor, *us, *vs))
        ref_z = np.array([ref for _, ref in at[: us.size]])
        ref_w = np.array([ref for _, ref in at[us.size :]])
        x0, s = za.real, za.imag
        beta = self._beta(x0, s)
        width = 1.0 / math.sqrt(beta)

        sig, wsig = self._z_line(x0, s, width, level)
        bz, lz = self._phi_parts(x0 + 1j * sig)
        phi_z = bz[:, None] - (h * lz)[:, None] * us[None, :]
        # each row is referenced to its own saddle; a node stays if any row needs it
        keep = np.any(phi_z.real - ref_z > -_DROP_CUTOFF, axis=1)
        sig, wsig, phi_z = sig[keep], wsig[keep], phi_z[keep]
        with np.errstate(under="ignore"):
            a = wsig[:, None] * np.exp(phi_z - ref_z)

        wn, wst, bw, lw = self._w_contour(x0, s, width, level)
        theta = h * n * s / t
        du = us[:, None] - vs[None, :]
        # one gauge for all rows, at self.x0; the crossing residue carries
        # the line's own factor exp(-(nh/t) du (x0 - x*_t)), 1 when x0 = self.x0
        a_blk = (theta / math.pi) * np.sinc(du * theta / math.pi)
        a_blk = a_blk * np.exp((n * h / t) * du * (self.x0 - x0))
        no_resid = np.zeros(us.size)

        if wn.size == 0:
            return a_blk, no_resid, 2 * sig.size

        phi_w = bw[:, None] - (h * lw)[:, None] * vs[None, :]
        drop = ref_w[None, :] - phi_w.real
        keep_w = np.any(drop > -_DROP_CUTOFF, axis=1)
        if not np.any(keep_w):
            return a_blk, no_resid, 2 * sig.size
        wn, wst, phi_w = wn[keep_w], wst[keep_w], phi_w[keep_w]
        with np.errstate(under="ignore"):
            ew = np.exp(ref_w[None, :] - phi_w)
        q = wst[:, None] * ew

        ssum = _loop_sum(x0, sig, a, wn, q)
        gauge = (n * h / t) * du * (self.x0 - self.window.x_star_t)
        pref = -h * n / (4.0 * math.pi**2 * t)
        i_blk = pref * np.exp(gauge + ref_z[:, None] - ref_w[None, :]) * ssum
        if not np.all(np.isfinite(i_blk)):
            raise NonConvergence("contour exponent overflow in frame block")
        resid = np.max(np.abs(i_blk.imag), axis=1)
        return a_blk + i_blk.real, resid, 2 * (sig.size + wn.size)

    def _refine(self, us, vs, anchor: float) -> np.ndarray:
        """One block, refined until every row passes its own tolerance."""
        uarr = np.asarray(us, dtype=float)
        varr = np.asarray(vs, dtype=float)
        prev, _, _ = self._block(uarr, varr, anchor, 0)
        err = math.inf
        for level in range(1, self.max_levels + 1):
            cur, resid, nodes = self._block(uarr, varr, anchor, level)
            errs = np.max(np.abs(cur - prev), axis=1)
            scale = np.max(np.abs(cur), axis=1)
            err = float(np.max(errs))
            ok = errs <= np.maximum(self.dc_tol, 1e-6 * scale)
            ok_im = resid <= np.maximum(1e-9, 1e-6 * scale)
            if np.all(ok & ok_im):
                self.quadrature_m = max(self.quadrature_m, nodes)
                # halving the cell size quarters the error, so one Richardson
                # step removes the leading term
                out = cur + (cur - prev) / 3.0
                for u, row in zip(us, out.tolist()):
                    self._pairs.update(zip(((u, v) for v in vs), row))
                return out
            prev = cur
        raise NonConvergence(
            f"contour refinement stalled at level {self.max_levels}: "
            f"residual {err:.3e}"
        )

    def value(self, u, v) -> float:
        u, v = float(u), float(v)
        got = self._pairs.get((u, v))
        if got is None:
            got = float(self.values([u], [v])[0, 0])
        return got

    def values(self, us, vs) -> np.ndarray:
        """K(u, v) on a grid; a grid whose every pair is stored is read back.

        All rows share the contour through z_saddle(0) when every saddle of
        the grid is complex and sits on the loop lump of that anchor; any
        real saddle puts each row on its own contour through z_saddle(u).
        """
        us = [float(u) for u in np.atleast_1d(us)]
        vs = [float(v) for v in np.atleast_1d(vs)]
        if all((u, v) in self._pairs for u in us for v in vs):
            return np.array([[self._pairs[u, v] for v in vs] for u in us]).reshape(
                len(us), len(vs)
            )
        zs = [z for z, _ in self._saddles_at([0.0, *us, *vs])]
        x0 = zs[0].real
        home = [(lo, hi) for lo, hi in self._lumps if lo <= x0 <= hi]
        if home and all(z.imag > 0.0 and home[0][0] <= z.real <= home[0][1] for z in zs):
            return self._refine(us, vs, 0.0)
        out = np.empty((len(us), len(vs)))
        for i, u in enumerate(us):
            out[i] = self._refine((u,), vs, u)[0]
        return out

    def sine_amplitude(self, u) -> float:
        """Peak of the oscillatory part at u; exactly 0 when the saddle is real."""
        s = self._saddles_at((float(u),))[0][0].imag
        return self.h * self.n * s / (math.pi * self.t)


def rescaled_kernel(frame: RescaledKernelFrame, u, v) -> float:
    """Kernel in window coordinates, scaled by the window unit."""
    return frame.value(u, v)


def sup_sine_deviation(frame: RescaledKernelFrame, us=None, vs=None) -> float:
    """Max deviation from the sine kernel over the window grid."""
    grid_u = np.asarray(us if us is not None else frame.window.u_grid, float)
    grid_v = np.asarray(vs if vs is not None else frame.window.u_grid, float)
    got = frame.values(grid_u, grid_v)
    ref = np.sinc(grid_u[:, None] - grid_v[None, :])
    return float(np.max(np.abs(got - ref)))


def gauge_free_deviation(frame: RescaledKernelFrame, us=None, vs=None) -> float:
    """Max deviation from the sine kernel of what no gauge can change.

    Over the window grid: | sqrt|K(u,v) K(v,u)| - |sinc(u - v)| | and, where
    u = v, |K(u,u) - 1|.  K(v,u) comes from the transposed grid.
    """
    grid_u = np.asarray(us if us is not None else frame.window.u_grid, float)
    grid_v = np.asarray(vs if vs is not None else frame.window.u_grid, float)
    got = frame.values(grid_u, grid_v)
    back = frame.values(grid_v, grid_u).T
    du = grid_u[:, None] - grid_v[None, :]
    dev = np.abs(np.sqrt(np.abs(got * back)) - np.abs(np.sinc(du)))
    on_diag = np.abs(got[du == 0.0] - 1.0)
    return float(max(np.max(dev), np.max(on_diag, initial=0.0)))


def frame_to_json(frame: RescaledKernelFrame) -> dict:
    w = frame.window
    return {
        "n": frame.n,
        "t": frame.t,
        "x_star": w.x_star,
        "x_star_t": w.x_star_t,
        "c_t": w.c_t,
        "x0": frame.x0,
        "quadrature_M": int(frame.quadrature_m),
    }
