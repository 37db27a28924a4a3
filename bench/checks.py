"""Output checks for the benchmark workloads.

Each check is a property the computed object must have, or a comparison
with a computation that does not share the timed code path.  None compares
with a stored copy of earlier output.  A check returns ``(ok, detail)``;
``detail`` is a short human-readable account of the numbers compared.
"""

from __future__ import annotations

import math

import numpy as np

# a sample mean is accepted within this many of its own standard errors
SIGMAS = 4.0


def _result(ok, detail):
    return bool(ok), detail


def r2_bound(vals, rtol=1e-4):
    """-tol <= K(u,u)K(v,v) - K(u,v)K(v,u) <= K(u,u)K(v,v) + tol on a grid.

    The middle term is the 2-point correlation, which is non-negative and
    at most the product of the 1-point ones; both sides are gauge-free.
    ``tol`` is ``rtol`` times the largest K(u,u)K(v,v), the relative
    accuracy to which the two kernel routes are held to agree.
    """
    k = np.asarray(vals, dtype=float)
    d = np.diag(k)
    dd = d[:, None] * d[None, :]
    r2 = dd - k * k.T
    tol = rtol * float(np.max(np.abs(dd)))
    lo = float(np.min(r2))
    hi = float(np.max(r2 - dd))
    return _result(
        lo >= -tol and hi <= tol,
        f"min R2 {lo:.3g}, max R2-K(u,u)K(v,v) {hi:.3g}, tol {tol:.3g}",
    )


def close(got, ref, atol, rtol=0.0):
    """|got - ref| <= max(atol, rtol |ref|) elementwise."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    err = np.abs(got - ref)
    tol = np.maximum(atol, rtol * np.abs(ref))
    worst = float(np.max(err / tol))
    return _result(np.all(err <= tol), f"worst error {worst:.3g} of tolerance")


def in_unit_interval(x):
    return _result(0.0 <= x <= 1.0, f"value {x!r}")


def at_least(x, floor):
    return _result(x >= floor, f"value {x!r}, floor {floor}")


def bulk_trend(devs):
    """Criterion 6: the sine-kernel distance falls with n, and is <= 0.05 last."""
    ns = sorted(devs)
    seq = [devs[n] for n in ns]
    falling = all(a > b for a, b in zip(seq, seq[1:]))
    return _result(
        falling and seq[-1] <= 0.05,
        " > ".join(f"D({n})={d:.4g}" for n, d in zip(ns, seq)),
    )


def semicircle_density(xs, psi, variance, tol=1e-8):
    """psi equals the semicircle density of the given variance."""
    xs = np.asarray(xs, dtype=float)
    ref = np.sqrt(np.maximum(4.0 * variance - xs**2, 0.0)) / (2.0 * math.pi * variance)
    return close(psi, ref, tol)


def non_negative(psi):
    low = float(np.min(psi))
    return _result(low >= 0.0, f"min {low:.3g}")


def symmetric(xs, psi, tol=1e-7):
    """psi(x) = psi(-x) on a grid symmetric about 0."""
    xs = np.asarray(xs, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if not np.allclose(xs, -xs[::-1], rtol=0.0, atol=1e-12):
        return _result(False, "grid is not symmetric about 0")
    return close(psi, psi[::-1], tol)


def unit_mass(xs, psi):
    """Trapezoid mass is 1 within the trapezoid rule's error, h^(3/2).

    An evolved density vanishes like a square root at the edges of its
    support, where the trapezoid rule converges at order 3/2 in the step.
    """
    xs = np.asarray(xs, dtype=float)
    mass = float(np.trapezoid(psi, xs))
    tol = float(np.max(np.diff(xs))) ** 1.5
    return _result(abs(mass - 1.0) <= tol, f"mass {mass:.6g}, tol {tol:.3g}")


def sample_moments(spectra, points, t):
    """Means of sum(lambda) and sum(lambda^2) over the samples of M + sqrt(t) H.

    E sum(lambda) = tr M and E sum(lambda^2) = sum(a^2) + n t follow from
    the law of the matrix, not from the eigensolver.  Returns two results.
    """
    spectra = np.asarray(spectra, dtype=float)
    a = np.asarray(points, dtype=float)
    n_samples = spectra.shape[0]
    out = []
    for stat, want in (
        (spectra.sum(axis=1), float(a.sum())),
        ((spectra**2).sum(axis=1), float(a @ a) + a.size * t),
    ):
        se = float(np.std(stat, ddof=1)) / math.sqrt(n_samples)
        dev = abs(float(np.mean(stat)) - want)
        out.append(_result(dev <= SIGMAS * se, f"|mean - {want:.6g}| = {dev:.3g}, se {se:.3g}"))
    return out


def bin_count(hit, exact, n_samples):
    """Mean count per sample in a bin against the exact 1-point integral."""
    se = math.sqrt(max(exact * (1.0 - exact), 0.0) / n_samples)
    dev = abs(hit - exact)
    return _result(dev <= SIGMAS * se, f"|{hit:.5f} - {exact:.5f}| = {dev / se:.2f} se")


def paths_sorted(paths):
    return _result(np.all(np.diff(paths, axis=-1) >= 0.0), "rows ascending")


def starts_at(paths, points, tol=1e-12):
    """Every path's t = 0 row is the sorted spectrum of M."""
    first = np.asarray(paths)[:, 0, :]
    ref = np.sort(np.asarray(points, dtype=float))
    scale = max(1.0, float(np.max(np.abs(ref))))
    return close(first, np.broadcast_to(ref, first.shape), tol * scale)


def trace_increments(paths, grid):
    """Increments of sum(lambda) between grid times are N(0, dt).

    tr Y(t + dt) - tr Y(t) = sqrt(dt) tr H with tr H standard normal, so the
    increments divided by sqrt(dt), pooled over samples and steps, have mean
    0 and variance 1.  Returns two results.
    """
    tr = np.asarray(paths).sum(axis=-1)
    z = (np.diff(tr, axis=1) / np.sqrt(np.diff(np.asarray(grid, dtype=float)))).ravel()
    m = z.size
    mean = float(np.mean(z))
    var = float(np.var(z, ddof=1))
    se_var = math.sqrt(2.0 / (m - 1))
    return [
        _result(abs(mean) <= SIGMAS / math.sqrt(m), f"mean {mean:.3g} over {m}"),
        _result(abs(var - 1.0) <= SIGMAS * se_var, f"variance {var:.4g}, se {se_var:.3g}"),
    ]
