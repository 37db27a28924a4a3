"""Exact correlation kernels for deterministic spectra under Gaussian flow.

Two independent evaluation routes are kept deliberately separate so that one
can certify the other.  The first is a closed form, the w-residues of the
Brezin-Hikami / Johansson double contour integral: K(x, y) = sqrt(2n/t) /
(2 sqrt(pi)) sum_k A_k(x) exp(-n (a_k - y)^2 / (2t)), with A_k the Lagrange
basis polynomial of source point a_k smoothed by the heat flow.  The k-sum is
taken in Newton form at the points in Leja order, confluent where a point
repeats.  Its divided differences and heat recurrence lose up to tens of
digits to cancellation, so it is summed in decimal, at working digits that
rise until each value agrees within 1e-15 of its scale with itself at 20
digits more; a value below the float range becomes 0.0 only when converted.
The second route discretizes the double contour representation directly: a
vertical line through the real part of the z-saddle, and a loop following
the graph of the local spectral half-width around the source points.  All
exponentials are referenced to their saddle values, which keeps every
factor at or below one in modulus along the descent paths; this route
scales to large ``n``.  The rescaled observation frames take it where every
saddle of a grid is complex, and the first route where one is real.
"""

from __future__ import annotations

import decimal
import functools
import math
from decimal import Decimal

import numpy as np

from .errors import ConfigError, NonConvergence
from .freeconv import FreeConvolutionState, Window, _check_finite, window_scale
from .measures import _extract_points
from .panels import panel_nodes
from .threads import default_threads, run_items

# e^-60: below any tolerance this module promises, with margin for sums.  A
# contour node whose factor falls below it for every row (or column) of a
# block is dropped, and past the run of nodes that a block keeps none is
# ever built: see RescaledKernelFrame._kept
_DROP_CUTOFF = 60.0

# bytes of one block's largest temporary: an x- or y-block of the Lagrange sums,
# a w-block's stacked real proxy block or near-leaf block in _loop_sum or
# any product made from them, or each real temporary of a q-block in
# RescaledKernelFrame._phi_parts.  The bound holds per block, whatever the
# thread count: each thread of _loop_sum works on one block at a time.  A
# w-block of _loop_sum holds at most _MAX_BLOCK loop nodes, so there the
# bound binds only past about 1000 proxies, a z-line of over 6000 nodes
_BLOCK_BYTES = 2_000_000

# the Lagrange route's first working digits, the digits more at which each
# value is taken again, and the cap past which it raises NonConvergence
_START_DIGITS = 30
_CHECK_DIGITS = 20
_MAX_DIGITS = 400


def _x_blocks(size: int, bytes_per_x: int) -> list[slice]:
    """Slices of range(size) whose temporaries stay under _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // bytes_per_x)
    return [slice(i, i + step) for i in range(0, size, step)]


def sine_kernel(u, v):
    """sin(pi(u-v))/(pi(u-v)) with the diagonal understood as 1."""
    d = np.subtract(u, v)
    out = np.sinc(d)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _newton_order(pts: np.ndarray) -> np.ndarray:
    """Indices of the sorted points in Newton order: the distinct points in
    Leja order from the one of largest modulus, each as often as it occurs."""
    vals, first, counts = np.unique(pts, return_index=True, return_counts=True)
    logd, order = np.zeros(vals.size), [int(np.argmax(np.abs(vals)))]
    with np.errstate(divide="ignore"):
        for _ in range(vals.size - 1):
            # the next point is farthest, by product of distances, from those taken
            logd += np.log(np.abs(vals - vals[order[-1]]))
            order.append(int(np.argmax(logd)))
    return np.concatenate([first[k] + np.arange(counts[k]) for k in order])


def _newton_coefficients(b: np.ndarray, taylor: list) -> np.ndarray:
    """Divided differences f[b_0..b_m], m < n, down each column, from
    taylor[r] = f^(r)(b_i)/r! in row i for r below the longest run of equal
    points: along such a run the divided differences are those coefficients.
    Each point difference is inverted once and its reciprocal multiplies
    every column: a Decimal division costs about three products."""
    c = taylor[0].copy()
    for j in range(1, b.size):
        d = b[j:] - b[:-j]
        same = np.flatnonzero(b[j:] == b[:-j]) if j < len(taylor) else []
        d[same] = Decimal(1)
        c[j:] = (c[j:] - c[j - 1 : -1]) * (1 / d)[:, None]
        for i in same:
            c[j + i] = taylor[j][j + i]
    return c


def _at(digits: int, compute):
    with decimal.localcontext(decimal.Context(prec=digits)):
        return compute()


class KernelEvaluator:
    """Lagrange-route kernel evaluator bound to one configuration and time.

    ``x0`` is the gauge base point: determinants and the diagonal are
    invariant under it, individual off-diagonal entries of the gauge-fixed
    kernel are not.  A value's scale is the larger of |K(x,y)| and
    sqrt(K(x,x) K(y,y)), the latter carried onto the ungauged entry through
    ``gauge_log``.  The working digits only rise.
    """

    def __init__(self, config, t, x0=0.0):
        t = float(t)
        if not (math.isfinite(t) and t > 0.0):
            raise ConfigError(f"t must be positive and finite, got {t}")
        self.points = _extract_points(config)
        self.n = int(self.points.size)
        self.t = t
        self.x0 = float(x0)
        _check_finite(self.x0, "x0")
        self.digits = _START_DIGITS
        self._pref = math.sqrt(2.0 * self.n / t) / (2.0 * math.sqrt(math.pi))
        self._order = _newton_order(self.points)
        self._b = np.array([Decimal(v) for v in self.points[self._order].tolist()], dtype=object)
        self._run = int(np.max(np.unique(self.points, return_counts=True)[1]))
        self._diag: dict[float, float] = {}  # x -> K(x, x)
        # the Gaussians of the certification under way, by block of y
        self._exps: dict[bytes, np.ndarray] = {}

    @property
    def quadrature_m(self) -> int:
        """The largest working digits reached, under the name the benchmark's
        ``kernel.lagrange_m`` reads; a change to the benchmark alone renames it."""
        return self.digits + _CHECK_DIGITS

    def _heat_newton(self, xs: np.ndarray) -> np.ndarray:
        """T(pi_m)(x), X x n, at the context's digits, for pi_m = prod_{j<m} (w - b_j)
        and T = exp(-(s/2) d^2), s = t/n.  As T(w p) = x T(p) - s T(p)', the
        Taylor coefficients of T(pi_m) at x obey E_{m+1}^(j) = (x - b_m) E_m^(j)
        + E_m^(j-1) - s (j+1) E_m^(j+1), of which T(pi_{n-1}) needs j < n - m."""
        n = self.n
        x = np.array([Decimal(v) for v in xs.tolist()], dtype=object)
        sj = Decimal(self.t) / n * np.arange(1, n + 1, dtype=object)
        e = np.full((x.size, n + 1), Decimal(0), dtype=object)
        e[:, 0] = Decimal(1)
        out = np.full((x.size, n), Decimal(1), dtype=object)
        for m in range(n - 1):
            top = min(m + 2, n - 1 - m)  # E_m^(j) is 0 for j > m
            new = (x - self._b[m])[:, None] * e[:, :top] - sj[:top] * e[:, 1 : top + 1]
            new[:, 1:] += e[:, : top - 1]
            e[:, :top] = new
            out[:, m + 1] = new[:, 0]
        return out

    def _gauss_newton(self, ys: np.ndarray) -> np.ndarray:
        """g_y[b_0..b_m], n x Y, at the context's digits, for g_y(a) = exp(-kappa
        (a - y)^2), kappa = n/(2t), whose Taylor coefficients at a repeated point
        a obey (r+1) e_{r+1} = -2 kappa (u e_r + e_{r-1}), u = a - y.  Within a
        certification each Gaussian is taken once, at the higher digits, and
        rounded to the lower: Decimal exp is correctly rounded, so that is the
        direct exp but for a double rounding."""
        kappa = self.n / (2 * Decimal(self.t))
        out = []
        for sl in _x_blocks(ys.size, 128 * (self._run + 2) * self.n):
            u = self._b[:, None] - np.array([Decimal(v) for v in ys[sl].tolist()], dtype=object)
            key = ys[sl].tobytes()
            if key not in self._exps:
                self._exps[key] = np.exp(-kappa * u**2)
            # rounded to the context's digits, which only the lower pass changes
            e = [+self._exps[key]]
            for r in range(self._run - 1):
                e.append(-2 * kappa * (u * e[r] + (e[r - 1] if r else 0)) / (r + 1))
            out.append(_newton_coefficients(self._b, e))
        return np.concatenate(out, axis=1)

    def _sums(self, xs: np.ndarray, ys: np.ndarray, pairs: bool = False) -> np.ndarray:
        """K = pref sum_m g_y[b_0..b_m] T(pi_m)(x) over the grid xs x ys, or
        over the pairs (xs[i], ys[i]), in floats at the context's digits."""
        g = None if pairs else self._gauss_newton(ys)
        out = []
        for sl in _x_blocks(xs.size, 128 * (3 * self.n + (self.n if pairs else ys.size))):
            h = self._heat_newton(xs[sl])
            out.append(np.sum(h * self._gauss_newton(ys[sl]).T, axis=1) if pairs else h @ g)
        return self._pref * np.concatenate(out).astype(float)

    def _certified(self, compute, xs: np.ndarray, scale=None) -> np.ndarray:
        """``compute()`` at the working digits plus _CHECK_DIGITS, once it
        agrees with itself at the working digits within 1e-15 of each value's
        scale: the larger of its size and exp(scale(value)).  The first axis
        of the values runs along xs.  After a failed check the digits rise by
        _CHECK_DIGITS, and the failed round's higher pass is the new lower one."""
        lo = None
        while True:
            try:
                hi = _at(self.digits + _CHECK_DIGITS, compute)
                if lo is None:
                    lo = _at(self.digits, compute)
            finally:
                self._exps.clear()
            with np.errstate(divide="ignore", invalid="ignore"):
                size = np.log(np.abs(hi))
                if scale is not None:
                    size = np.maximum(size, scale(hi))
                # equal values pass, also at 0.0; values past the float range fail
                ok = np.isfinite(hi) & (np.log(np.abs(hi - lo)) <= math.log(1e-15) + size)
            if np.all(ok):
                return hi
            if self.digits + 2 * _CHECK_DIGITS > _MAX_DIGITS:
                x = float(xs[np.argwhere(~ok)[0][0]])
                raise NonConvergence(
                    f"Lagrange kernel at n={self.n}, x={x!r} differs between {self.digits} "
                    f"and {self.digits + _CHECK_DIGITS} digits; the cap is {_MAX_DIGITS}"
                )
            lo = hi
            self.digits += _CHECK_DIGITS

    def _diagonal(self, xs: np.ndarray) -> np.ndarray:
        """K(x, x) at each x; each x is evaluated once per evaluator."""
        new = np.array([x for x in dict.fromkeys(xs.tolist()) if x not in self._diag])
        if new.size:
            vals = self._certified(lambda: self._sums(new, new, pairs=True), new)
            self._diag.update(zip(new.tolist(), vals.tolist()))
        return np.array([self._diag[x] for x in xs.tolist()])


def kernel_lagrange(ev: KernelEvaluator, x, y) -> float:
    """Ungauged kernel value via the Lagrange route."""
    return float(kernel_matrix(ev, x, y)[0, 0])


def kernel_matrix(ev: KernelEvaluator, xs, ys) -> np.ndarray:
    """Ungauged K(xs[i], ys[j]) via the Lagrange route.  A square grid, xs
    equal to ys, takes each K(x, x) off its own diagonal in the same pass."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    _check_finite(xs, "xs")
    _check_finite(ys, "ys")

    def scale(diag):  # K(x, x) at the xs, then at the ys
        half = np.log(diag, out=np.full(diag.shape, -np.inf), where=diag > 0.0) / 2.0
        gauge = gauge_log(ev, xs[:, None], ys[None, :])
        return half[: xs.size, None] + half[None, xs.size :] - gauge

    if np.array_equal(xs, ys):
        return ev._certified(
            lambda: ev._sums(xs, xs), xs, lambda hi: scale(np.tile(np.diagonal(hi), 2))
        )
    fixed = scale(ev._diagonal(np.concatenate([xs, ys])))
    return ev._certified(lambda: ev._sums(xs, ys), xs, lambda _: fixed)


def gauge_log(ev: KernelEvaluator, x, y):
    """Log of the conjugation factor at (x, y); x and y broadcast."""
    n, t = ev.n, ev.t
    return (n / (2.0 * t)) * ((y * y - x * x) - 2.0 * ev.x0 * (y - x))


def gauge_to_paper(ev: KernelEvaluator, x, y, value):
    """Apply the conjugation factor that symmetrizes the kernel at x0; x, y
    and value broadcast.  Taken in logs, and 0 stays 0 whatever the factor."""
    value = np.asarray(value, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        size = np.exp(np.log(np.abs(value)) + gauge_log(ev, x, y))
    out = np.where(value == 0.0, 0.0, np.copysign(size, value))
    return float(out) if out.ndim == 0 else out


def kernel_paper(ev: KernelEvaluator, x, y) -> float:
    """Gauge-fixed kernel entry; diagonal coincides with the ungauged one."""
    return gauge_to_paper(ev, x, y, kernel_lagrange(ev, x, y))


def _p_hat_all(ev: KernelEvaluator, xs) -> np.ndarray:
    """Every member of the polynomial half at each x, X x n, within 1e-15 of
    the largest member at its x.  The Newton coefficients of l_k, defined only
    for distinct points, are the divided differences of identity column k."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if ev._run > 1:
        raise ConfigError(f"l_k needs distinct points; a point repeats {ev._run} times")
    ident = [np.eye(ev.n, dtype=object)[ev._order]]
    return ev._certified(
        lambda: ev._pref * (ev._heat_newton(xs) @ _newton_coefficients(ev._b, ident)).astype(float),
        xs,
        lambda hi: np.log(np.max(np.abs(hi), axis=1, keepdims=True)),
    )


def lagrange_p_hat(ev: KernelEvaluator, k, x) -> float:
    """k-th member of the polynomial half of the biorthogonal pair, pref A_k(x)."""
    return float(_p_hat_all(ev, x)[0, int(k)])


def biorthogonality_check(ev: KernelEvaluator) -> float:
    """Max deviation of the pairing matrix from the identity."""
    # exact for the p-hats, of degree n - 1, up to n = 256
    s, w = np.polynomial.hermite.hermgauss(128)
    c = math.sqrt(2.0 * ev.t / ev.n)
    # row k pairs every p-hat with the Gaussian around point k
    pmat = np.stack([_p_hat_all(ev, a + c * s) for a in ev.points])
    pairing = c * (w[:, None] * pmat).sum(axis=1)
    return float(np.max(np.abs(pairing - np.eye(ev.n))))


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
        val = float(wts @ ev._diagonal(nodes))
        if prev is not None and abs(val - prev) <= max(tol, 1e-12 * ev.n):
            return val
        prev = val
        panels *= 2
    raise NonConvergence("trace quadrature did not settle")


def projection_defect(ev: KernelEvaluator, xs, ys):
    """|integral K(x,z)K(z,y) dz - K(x,y)| at each pair (xs[i], ys[i]): the
    reproducing property, a float for one pair given as scalars.  All pairs
    share one row block K(xs, nodes) and one column block K(nodes, ys)."""
    scalar = np.ndim(xs) == np.ndim(ys) == 0
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ConfigError(f"pairs need two 1-d arrays of one length, got {xs.shape}, {ys.shape}")
    lo, hi = _diag_interval(ev)
    nodes, wts = panel_nodes(np.linspace(lo, hi, 65), 16)
    target = np.diagonal(kernel_matrix(ev, xs, ys))
    rows = kernel_matrix(ev, xs, nodes)
    cols = kernel_matrix(ev, nodes, ys)
    out = np.abs(np.sum(wts * rows * cols.T, axis=1) - target)
    return float(out[0]) if scalar else out


def correlation_function(ev: KernelEvaluator, pts) -> float:
    """k-point correlation determinant of the gauge-fixed kernel."""
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    mat = kernel_matrix(ev, pts, pts)
    return float(np.linalg.det(mat * np.exp(gauge_log(ev, pts[:, None], pts[None, :]))))


# -- rescaled double-contour frames ---------------------------------------

# The z-line sums of _loop_sum go through proxies.  The z nodes are cut into
# leaves of _LEAF consecutive nodes; a leaf acts on a target past _NEAR of its
# radii from its centre as _P charges at the first-kind Chebyshev points of
# its span, and on a nearer target node by node.  In the leaf's own variable
# s', interpolating 1/(s - p) at those points errs by T_P(s')/T_P(p') of
# each term, and |T_P(p')| >= (rho^P - rho^-P)/2 with rho >= 3 + sqrt(8) the
# Bernstein ellipse through any |p'| >= 3: past _NEAR radii each term is off
# by at most 2/(rho^P - rho^-P) = 1.0e-15 of itself
_LEAF = 128
_P = 20
_NEAR = 3.0
_ANGLES = (2 * np.arange(_P) + 1) * np.pi / (2 * _P)
_CHEB = np.cos(_ANGLES)
# barycentric weights of the first-kind points, on any interval
_BARY = (-1.0) ** np.arange(_P) * np.sin(_ANGLES)
# loop nodes a w-block of _loop_sum holds at most, whatever its bytes: a
# loop of a few hundred nodes still makes a block for each thread
_MAX_BLOCK = 128


def _z_leaves(sig: np.ndarray, amat: np.ndarray):
    """The z-line's leaves: their centres, squared near radii and proxy
    points, and the proxy weights, [Re A~; Im A~] with A~ = L^T a per leaf,
    L the barycentric Lagrange matrix of the leaf's nodes at its points."""
    nz = sig.size
    starts = np.arange(0, nz, _LEAF)
    lo, hi = sig[starts], sig[np.minimum(starts + _LEAF, nz) - 1]
    mid, rad = (lo + hi) / 2.0, (hi - lo) / 2.0
    pts = mid[:, None] + rad[:, None] * _CHEB
    d = sig[:, None] - pts[np.arange(nz) // _LEAF]
    # a node on a proxy point puts its weight there; a leaf of one node
    # shares it among its P coinciding points
    hit = d == 0.0
    lag = np.where(hit.any(axis=1, keepdims=True), hit, _BARY / np.where(hit, 1.0, d))
    lag /= np.sum(lag, axis=1, keepdims=True)
    pmat = np.concatenate(
        [amat[:, i : i + _LEAF] @ lag[i : i + _LEAF] for i in starts.tolist()], axis=1
    )
    return mid, (_NEAR * rad) ** 2, pts.ravel(), pmat


def _loop_sum(x0: float, sig: np.ndarray, a: np.ndarray, wn: np.ndarray, q: np.ndarray):
    """Double sums of a(z) q(w) / (z - w) over both halves of both contours, times i.

    The z-line is x0 + i*sig (sig > 0, ascending) with weight columns ``a``
    (Z x U), mirrored to x0 - i*sig with conj(a); the loop is ``wn`` with
    weight rows ``-q`` (W x V), mirrored to conj(wn) with conj(q); the result
    is U x V.  The z-line acts through the proxies of its leaves (see
    _z_leaves).  The loop nodes are cut into blocks by size alone.  Up to
    default_threads() threads take the blocks as they come free, each
    block's product goes to its own slot, and the slots are added in block
    order: the sum is the same bits at any thread count.
    """
    nu = a.shape[1]
    nv = q.shape[1]
    amat = np.concatenate([a.real.T, a.imag.T])
    leaves = _z_leaves(sig, amat)
    nproxy = leaves[2].size
    block = max(1, min(_MAX_BLOCK, _BLOCK_BYTES // (16 * max(nproxy, _LEAF, 2 * nu, 2 * nv))))
    starts = range(0, wn.size, block)
    workers = min(default_threads(), len(starts))
    # the slots of one round stay under _BLOCK_BYTES, or hold one block a thread
    per_round = max(workers, _BLOCK_BYTES // (16 * nu * nv))
    # each thread's transposed proxy block and near block, each stacked: rows
    # of inv, then rows of dy.  Taken by the caller, so that no worker's own
    # heap keeps them
    rows = 2 * min(block, wn.size)
    bufs = [(np.empty((rows, nproxy)), np.empty((rows, _LEAF))) for _ in range(workers)]
    ssum = np.zeros((nu, nv), dtype=complex)
    for first in range(0, len(starts), per_round):
        slots = starts[first : first + per_round]
        parts = [None] * len(slots)

        def product(j, w, slots=slots, parts=parts):
            sl = slice(slots[j], slots[j] + block)
            parts[j] = _block_product(x0, sig, amat, leaves, wn[sl], q[sl], bufs[w])

        run_items(product, len(slots), workers)
        for part in parts:
            ssum += part
    return 1j * ssum


def _cauchy(s, wy, dx2, out, skip=None):
    """The stacked real Cauchy block [inv; dy*inv] of the targets wy + i dx
    against the real points s, written into ``out`` and returned: dy = s - wy
    and inv = 1/(dy^2 + dx^2), both 0 where ``skip`` holds."""
    k = wy.size
    block = out[: 2 * k, : s.size]
    inv, dy = block[:k], block[k:]
    np.subtract(s[None, :], wy[:, None], out=dy)
    np.multiply(dy, dy, out=inv)
    inv += dx2[:, None]
    if skip is not None:
        # an infinite denominator makes both 0, with no division by 0 for
        # a target on a point
        np.putmask(inv, skip, np.inf)
    np.reciprocal(inv, out=inv)
    dy *= inv
    return block


def _block_product(x0, sig, amat, leaves, wn, qs, buf):
    """One loop block's term of _loop_sum, before the factor i.

    The z weights are contracted first: r1 = a^T @ 1/(z - w) and
    r2 = a^T @ 1/(z - conj w) give the block's sum as [g, -conj g] @
    [conj q, q] with g = r2 + conj(r1), one product so that its imaginary
    part is the rounding of the mirrored sum.  Every z shares the real part
    x0, so 1/(z - w) = (dx - i dy)/(dx^2 + dy^2) with one real dx = x0 - Re w
    per column and dy = Im z - Im w: the Cauchy blocks are real, and
    1/(z - w) = -i/(Im z - p) for the target p = Im w + i dx.  Per loop half,
    one real product contracts the proxy weights against the proxy block,
    in which a leaf within its near radius of a target is 0, and then each
    such leaf's own nodes are contracted for its near targets alone.
    """
    nu = amat.shape[0] // 2
    mid, reach2, pts, pmat = leaves
    far_buf, near_buf = buf
    dx = x0 - wn.real
    dx2 = dx * dx
    k = dx.size
    r = []
    for wy in (wn.imag, -wn.imag):
        near = (mid[None, :] - wy[:, None]) ** 2 + dx2[:, None] <= reach2
        pm = pmat @ _cauchy(pts, wy, dx2, far_buf, np.repeat(near, _P, axis=1)).T
        for leaf in np.flatnonzero(np.any(near, axis=0)).tolist():
            at = np.flatnonzero(near[:, leaf])
            zs = slice(leaf * _LEAF, (leaf + 1) * _LEAF)
            direct = amat[:, zs] @ _cauchy(sig[zs], wy[at], dx2[at], near_buf).T
            pm[:, at] += direct[:, : at.size]
            pm[:, k + at] += direct[:, at.size :]
        p, m = pm[:, :k], pm[:, k:]
        r.append((p[:nu] * dx + m[nu:]) + 1j * (p[nu:] * dx - m[:nu]))
    g = r[1] + np.conj(r[0])
    return np.concatenate([g, -np.conj(g)], axis=1) @ np.concatenate([np.conj(qs), qs])


# nodes a contour run grows by, at the least, at an end whose node does not
# yet miss the drop cutoff by 1; past that it doubles
_GROW = 16


class _Run:
    """A contour piece's grid, whose first array holds its node positions,
    ascending (sigma, or Re w), and the tuple ``vals`` of arrays over the one
    run [lo, hi) of its nodes built so far."""

    def __init__(self, grid):
        self.grid = grid
        self.lo = self.hi = 0
        self.vals = None

    def cover(self, lo, hi, make):
        """Build, by ``make(i, j)`` for nodes i..j-1, the nodes of [lo, hi)
        not built yet; none is built twice, and the run stays one run.  The
        run keeps no reference to ``make``, so no cycle holds a frame."""
        if self.vals is None:
            self.lo, self.hi, self.vals = lo, hi, make(lo, hi)
            return
        parts = [self.vals]
        if lo < self.lo:
            parts.insert(0, make(lo, self.lo))
        if hi > self.hi:
            parts.append(make(self.hi, hi))
        if len(parts) > 1:
            self.vals = tuple(np.concatenate(arrs) for arrs in zip(*parts))
            self.lo, self.hi = min(lo, self.lo), max(hi, self.hi)


class RescaledKernelFrame:
    """Kernel in window coordinates via saddle-referenced contour quadrature.

    For bulk windows one unit of (u, v) is 1/(c_t n); for gap windows it is
    the window epsilon.  Values include the oscillatory part, whose frequency
    is read off the height at which the vertical line crosses the loop.  A
    grid with a real saddle, in a gap or below threshold, takes the exact
    route instead, through one KernelEvaluator per frame.
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
        # each refinement level's z-line (key -1) and lumps (key k), made
        # once per frame, and per key the span of Re w or sigma whose nodes
        # some block kept so far, whatever the level
        self._runs: dict[tuple[int, int], _Run | None] = {}
        self._spans: dict[int, tuple[float, float]] = {}
        # loop heights solved on each lump, keyed by the lump: sorted x and
        # y(x).  A height is bitwise a function of its x, so the levels of
        # one refinement read back what the levels before them solved
        self._heights: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._exact: KernelEvaluator | None = None
        # largest node count, both contours and both halves, of an accepted block
        self.quadrature_m = 0
        # z_saddle(0) = x0 + i s: the frame's one contour and its gauge
        z0 = self._saddles_at((0.0,))[0][0]
        self.x0, self._s = z0.real, z0.imag
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
        # the lump that holds x0, which the contour crosses
        self._home = next((k for k, (a, b) in enumerate(self._lumps) if a <= self.x0 <= b), None)

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

    @functools.cached_property
    def _width(self) -> float:
        """The contours' cell scale; taken once a contour is made, as at s = 0 beta may be 1/0."""
        s = self._s
        d2 = (self.x0 - self.points) ** 2
        beta = max(2.0 * self.n * s * s * float(np.mean(1.0 / (d2 + s * s) ** 2)), 1e-300)
        return 1.0 / math.sqrt(beta)

    # -- contour quadrature --------------------------------------------------

    def _z_line(self, level: int):
        """Positive-sigma half of the vertical line: midpoints and cell widths.

        The fine band uses a spacing that divides the crossing height exactly,
        so nodes sit symmetrically around the pole on both sides; the residual
        of the 1/(z-w) singularity then cancels pairwise.
        """
        s, width = self._s, self._width
        dens = 3 * (1 << level)
        target = width / dens
        m = max(dens, int(math.ceil(s / target)))
        edges = [np.arange(0, 2 * m + 1) * (s / m)]
        nb = int(math.ceil(8.0 * width / target))
        band = 2.0 * s + np.arange(1, nb + 1) * target
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

    def _lump_grid(self, lo, hi, level, is_home):
        """One lump's vertex chain and parameter-midpoint nodes, ascending."""
        x0, s, width = self.x0, self._s, self._width
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

    def _nodes(self, k, grid, i, j):
        """Nodes i..j-1 of the z-line (k = -1, grid sigma and weights) or of
        lump k (grid midpoints and vertices) with their weights or steps, and
        B and L at the nodes: one B, L call, and for a lump one height call."""
        if k < 0:
            sig, wsig = grid
            return sig[i:j], wsig[i:j], *self._phi_parts(self.x0 + 1j * sig[i:j])
        mx, vx = grid
        ys = self._stored_profile(k, np.concatenate([vx[i : j + 1], mx[i:j]]))
        nodes = mx[i:j] + 1j * ys[j + 1 - i :]
        return nodes, np.diff(vx[i : j + 1] + 1j * ys[: j + 1 - i]), *self._phi_parts(nodes)

    def _stored_profile(self, k, xs):
        """Heights at xs on lump k, each solved once per frame.

        A lump's run at one level is built in stretches: the first a block
        asks for, then any a later block adds at either end.  A home grid's
        vertices at one level are the vertices and midpoints of the level
        before; a far lump's cosine grid at one level holds every vertex of
        the level before.  So a stretch mostly reads back what coarser runs
        solved: points already solved are read back exactly, the rest go to
        Newton and join the store.  A height does not depend on which points
        Newton solved it with, so a run's nodes do not depend on which runs
        or stretches were built before it.
        """
        kx, ky = self._heights.get(k, (np.empty(0), np.empty(0)))
        i = np.searchsorted(kx, xs)
        hit = i < kx.size
        hit[hit] = kx[i[hit]] == xs[hit]
        ys = np.empty(xs.size)
        ys[hit] = ky[i[hit]]
        miss = ~hit
        if miss.any():
            ys[miss] = self.state._y_profile(xs[miss])
            kx, first = np.unique(np.concatenate([kx, xs[miss]]), return_index=True)
            self._heights[k] = (kx, np.concatenate([ky, ys[miss]])[first])
        return ys

    def _contour(self, level: int, k: int):
        """The level's z-line positive half (k = -1) or lump k's upper half,
        as a run: node positions made once per frame, on first use, and
        (nodes, weights, B, L) built only where some block asks.  None for a
        lump without nodes."""
        key = (level, k)
        if key not in self._runs:
            if k < 0:
                grid = self._z_line(level)
            else:
                lo, hi = self._lumps[k]
                # midpoints, then vertices: a run's node positions lead its grid
                grid = self._lump_grid(lo, hi, level, k == self._home)[::-1] if hi > lo else ((),)
            self._runs[key] = _Run(grid) if len(grid[0]) else None
        return self._runs[key]

    def _kept(self, level, k, coords, refs, sign, anchors):
        """The nodes of run (level, k) that pass the drop test for the
        block's rows (z-line, sign 1) or columns (lumps, sign -1), with their
        weights and phi_hat: sign (Re phi_hat - ref) > -_DROP_CUTOFF for some
        coordinate.  None for a lump without nodes.

        Along the z-line Re phi_hat(x0 + i sigma) rises up to sigma = s and
        falls after it, for every row; along a lump's graph it falls up to
        each column's saddle and rises after it.  So the run is seeded over
        ``anchors`` (s, or the saddles' Re w) and the span earlier blocks
        reached at any level, and grown at an end until that end's node
        misses the cutoff by 1 for every coordinate: every node past it
        misses it too, rounding included.
        """
        run = self._contour(level, k)
        if run is None:
            return None
        h, pos = self.h, run.grid[0]
        ends = [*anchors, *self._spans.get(k, ())]
        lo = max(0, int(np.searchsorted(pos, min(ends), "right")) - 1)
        hi = max(lo + 1, min(pos.size, int(np.searchsorted(pos, max(ends))) + 1))
        make = functools.partial(self._nodes, k, run.grid)
        while True:
            run.cover(lo, hi, make)
            lo, hi = run.lo, run.hi
            b, l = (arr[[0, -1]] for arr in run.vals[2:])
            score = sign * ((b[:, None] - (h * l)[:, None] * coords).real - refs)
            grow = (np.max(score, axis=1) > -_DROP_CUTOFF - 1.0) & [lo > 0, hi < pos.size]
            if not grow.any():
                break
            step = max(_GROW, hi - lo)
            lo, hi = max(0, lo - grow[0] * step), min(pos.size, hi + grow[1] * step)
        node, weight, b, l = run.vals
        phi = b[:, None] - (h * l)[:, None] * coords[None, :]
        # each row or column is referenced to its own saddle; a node stays if
        # any of them needs it
        above = sign * (phi.real - refs)
        keep = np.any(above > -_DROP_CUTOFF, axis=1)
        # the span reaches the nodes next to those within the margin, so a
        # finer level seeded from it normally needs no growth
        near = np.flatnonzero(np.max(above, axis=1) > -_DROP_CUTOFF - 1.0)
        if near.size:
            edge = pos[lo:hi][[max(near[0] - 1, 0), min(near[-1] + 1, hi - lo - 1)]]
            span = self._spans.get(k, edge)
            self._spans[k] = (min(span[0], edge[0]), max(span[1], edge[1]))
        return node[keep], weight[keep], phi[keep]

    def _block(self, us: np.ndarray, vs: np.ndarray, level: int):
        """Rows us x columns vs on the level's z-line and loop, summed
        over the nodes that pass the drop test (see _kept).

        Returns the values, each row's imaginary residual and the node count.
        """
        n, t, h = self.n, self.t, self.h
        at = self._saddles_at((*us, *vs))
        ref_z = np.array([ref for _, ref in at[: us.size]])
        ref_w = np.array([ref for _, ref in at[us.size :]])
        sig, wsig, phi_z = self._kept(level, -1, us, ref_z, 1.0, [self._s])
        with np.errstate(under="ignore"):
            a = wsig[:, None] * np.exp(phi_z - ref_z)

        theta = h * n * self._s / t
        du = us[:, None] - vs[None, :]
        a_blk = (theta / math.pi) * np.sinc(du * theta / math.pi)

        xs = [z.real for z, _ in at[us.size :]]
        parts = [
            part
            for k in range(len(self._lumps))
            if (part := self._kept(level, k, vs, ref_w, -1.0, xs)) is not None
        ]
        wn, wst, phi_w = (np.concatenate(arrs) for arrs in zip(*parts))
        with np.errstate(under="ignore"):
            ew = np.exp(ref_w[None, :] - phi_w)
        q = wst[:, None] * ew

        ssum = _loop_sum(self.x0, sig, a, wn, q)
        gauge = (n * h / t) * du * (self.x0 - self.window.x_star_t)
        pref = -h * n / (4.0 * math.pi**2 * t)
        i_blk = pref * np.exp(gauge + ref_z[:, None] - ref_w[None, :]) * ssum
        if not np.all(np.isfinite(i_blk)):
            raise NonConvergence("contour exponent overflow in frame block")
        resid = np.max(np.abs(i_blk.imag), axis=1)
        return a_blk + i_blk.real, resid, 2 * (sig.size + wn.size)

    def _refine(self, us, vs) -> np.ndarray:
        """One block, refined until every row passes its own tolerance.

        The value returned is the Richardson one, so the error test is on
        its change from the level before, with level 0's plain value first.
        """
        uarr = np.asarray(us, dtype=float)
        varr = np.asarray(vs, dtype=float)
        prev, _, _ = self._block(uarr, varr, 0)
        rich_prev = prev
        stall = "no level refined"
        for level in range(1, self.max_levels + 1):
            cur, resid, nodes = self._block(uarr, varr, level)
            # halving the cell size quarters the error, so one Richardson
            # step removes the leading term
            rich = cur + (cur - prev) / 3.0
            errs = np.max(np.abs(rich - rich_prev), axis=1)
            scale = np.max(np.abs(cur), axis=1)
            tol = np.maximum(self.dc_tol, 1e-6 * scale)
            tol_im = np.maximum(1e-9, 1e-6 * scale)
            if np.all((errs <= tol) & (resid <= tol_im)):
                self.quadrature_m = max(self.quadrature_m, nodes)
                return rich
            i = int(np.argmax(np.maximum(errs / tol, resid / tol_im)))
            stall = (
                f"Richardson change {errs[i]:.3e} (tolerance {tol[i]:.3e}) and "
                f"imaginary residual {resid[i]:.3e} (tolerance {tol_im[i]:.3e}) "
                f"at row u = {uarr[i]:.6g}"
            )
            prev, rich_prev = cur, rich
        raise NonConvergence(f"contour refinement stalled at level {self.max_levels}: {stall}")

    def value(self, u, v) -> float:
        u, v = float(u), float(v)
        got = self._pairs.get((u, v))
        if got is None:
            got = float(self.values([u], [v])[0, 0])
        return got

    def values(self, us, vs) -> np.ndarray:
        """K(u, v) on a grid; a grid whose every pair is stored is read back.

        All rows share the contour through z_saddle(0) when that saddle and
        every saddle of the grid are complex and sit on the loop lump the
        contour crosses; any other grid takes the exact route at x*_t + h u,
        in the gauge at x0.
        """
        us = [float(u) for u in np.atleast_1d(us)]
        vs = [float(v) for v in np.atleast_1d(vs)]
        if all((u, v) in self._pairs for u in us for v in vs):
            return np.array([[self._pairs[u, v] for v in vs] for u in us]).reshape(
                len(us), len(vs)
            )
        zs = [z for z, _ in self._saddles_at([0.0, *us, *vs])]
        lo, hi = self._lumps[self._home] if self._home is not None else (math.inf, -math.inf)
        if all(z.imag > 0.0 and lo <= z.real <= hi for z in zs):
            out = self._refine(us, vs)
        else:
            if self._exact is None:
                self._exact = KernelEvaluator(self.points, self.t, self.x0)
            xs, ys = (self.window.x_star_t + self.h * np.array(a) for a in (us, vs))
            vals = kernel_matrix(self._exact, xs, ys)
            with np.errstate(over="ignore"):
                out = self.h * gauge_to_paper(self._exact, xs[:, None], ys[None, :], vals)
            if not np.all(np.isfinite(out)):
                raise NonConvergence("exact value past the float range in the frame's gauge")
        for u, row in zip(us, out.tolist()):
            self._pairs.update(zip(((u, v) for v in vs), row))
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
