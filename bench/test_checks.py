"""Each output check accepts a good input and rejects a known-bad one.

    python3 -m pytest bench/test_checks.py

These run in a second; they sit outside the repository's default test
collection, which is limited to ``tests/``.
"""

import math

import numpy as np
import pytest

import checks

GRID = np.arange(-8, 9) * 0.25
SINE = np.sinc(GRID[:, None] - GRID[None, :])


def test_r2_bound_accepts_sine_kernel():
    assert checks.r2_bound(SINE)[0]


def test_r2_bound_rejects_negative_correlation():
    bad = SINE.copy()
    bad[2, 5] = bad[5, 2] = 1.5  # R2 = 1 - 2.25 < 0
    assert not checks.r2_bound(bad)[0]


def test_r2_bound_rejects_correlation_above_product():
    bad = SINE.copy()
    bad[2, 5], bad[5, 2] = 0.3, -0.3  # K(u,v)K(v,u) < 0
    assert not checks.r2_bound(bad)[0]


def test_close_uses_the_larger_tolerance():
    assert checks.close([1.0 + 5e-5], [1.0], 1e-6, 1e-4)[0]
    assert not checks.close([1.0 + 5e-4], [1.0], 1e-6, 1e-4)[0]
    assert not checks.close([2e-6], [0.0], 1e-6, 1e-4)[0]


def test_unit_interval_and_floor():
    assert checks.in_unit_interval(0.17)[0]
    assert not checks.in_unit_interval(-1e-9)[0]
    assert not checks.in_unit_interval(1.0 + 1e-9)[0]
    assert checks.at_least(0.995, 0.99)[0]
    assert not checks.at_least(0.98, 0.99)[0]


def test_bulk_trend():
    assert checks.bulk_trend({50: 0.37, 100: 0.11, 200: 0.046})[0]
    assert not checks.bulk_trend({50: 0.37, 100: 0.11, 200: 0.06})[0]
    assert not checks.bulk_trend({50: 0.10, 100: 0.11, 200: 0.04})[0]


def _semicircle(variance, points=201):
    r = 2.0 * math.sqrt(variance)
    xs = np.linspace(-r - 0.5, r + 0.5, points)
    psi = np.sqrt(np.maximum(4.0 * variance - xs**2, 0.0)) / (2.0 * math.pi * variance)
    return xs, psi


def test_semicircle_density():
    xs, psi = _semicircle(1.25)
    assert checks.semicircle_density(xs, psi, 1.25)[0]
    assert not checks.semicircle_density(xs, psi, 1.0)[0]


def test_non_negative_and_symmetric():
    xs, psi = _semicircle(1.0)
    assert checks.non_negative(psi)[0]
    assert checks.symmetric(xs, psi)[0]
    assert not checks.non_negative(psi - 1e-3)[0]
    assert not checks.symmetric(xs, psi * (1.0 + 0.01 * xs))[0]
    assert not checks.symmetric(xs + 0.1, psi)[0]


def test_unit_mass():
    xs, psi = _semicircle(1.0)
    assert checks.unit_mass(xs, psi)[0]
    assert not checks.unit_mass(xs, 1.01 * psi)[0]


def test_sample_moments_reject_shifted_samples():
    rng = np.random.default_rng(7)
    n, t, samples = 20, 0.5, 2000
    a = np.linspace(-1.0, 1.0, n)
    # rows with the first two moments of the spectrum of M + sqrt(t) H
    h = rng.standard_normal((samples, n, n)) + 1j * rng.standard_normal((samples, n, n))
    h = (h + np.conj(np.swapaxes(h, 1, 2))) / (2.0 * math.sqrt(n))
    spectra = np.linalg.eigvalsh(np.diag(a) + math.sqrt(t) * h)
    assert all(ok for ok, _ in checks.sample_moments(spectra, a, t))
    shifted = checks.sample_moments(spectra + 0.2, a, t)
    assert not shifted[0][0] and not shifted[1][0]
    assert not checks.sample_moments(spectra, a, 0.8 * t)[1][0]


def test_bin_count():
    assert checks.bin_count(0.33, 0.34, 2000)[0]
    assert not checks.bin_count(0.40, 0.34, 2000)[0]


def test_paths():
    rng = np.random.default_rng(3)
    a = np.linspace(-1.0, 1.0, 5)
    grid = np.linspace(0.0, 0.5, 11)
    steps = rng.standard_normal((400, grid.size - 1)) * np.sqrt(np.diff(grid))
    shift = np.concatenate([np.zeros((400, 1)), np.cumsum(steps, axis=1)], axis=1)
    # trace moves by the increments, spread evenly over the five levels
    paths = a[None, None, :] + shift[:, :, None] / a.size
    assert checks.paths_sorted(paths)[0]
    assert checks.starts_at(paths, a)[0]
    assert all(ok for ok, _ in checks.trace_increments(paths, grid))
    assert not checks.paths_sorted(paths[..., ::-1])[0]
    assert not checks.starts_at(paths + 1e-6, a)[0]
    drift, _ = checks.trace_increments(paths + 0.5 * grid[None, :, None], grid)
    assert not drift[0]


@pytest.mark.parametrize("factor", [0.0, 2.0])
def test_trace_increments_reject_wrong_variance(factor):
    grid = np.linspace(0.0, 0.5, 11)
    rng = np.random.default_rng(11)
    steps = factor * rng.standard_normal((400, grid.size - 1)) * np.sqrt(np.diff(grid))
    tr = np.concatenate([np.zeros((400, 1)), np.cumsum(steps, axis=1)], axis=1)
    _, var = checks.trace_increments(tr[:, :, None], grid)
    assert not var[0]
