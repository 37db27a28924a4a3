"""Sampler tests.

Oracles: exact spectra at t=0, closed-form entry variances of the
Hermitian perturbation, the trace-increment variance identity
Var(Tr Y(t) - Tr M) = t, the semicircle law at large n, and the
determinantal one- and two-point identities at n=2 where the exact
kernel route is independent of the sampler.
"""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dbmlab.errors import ConfigError, NonConvergence
from dbmlab.fredholm import GapProblem, gap_probability
from dbmlab.kernel import KernelEvaluator, correlation_function
from dbmlab.measures import InitialConfiguration, MeasureSpec, kolmogorov_distance
from dbmlab.montecarlo import (
    GueSampler,
    dbm_paths,
    default_threads,
    eigenvalues,
    empirical_density,
    empirical_gap_frequency,
    paths_csv,
    sample_perturbed,
    sample_spectra,
)


class TestGueSampler:
    def test_matrix_is_hermitian(self):
        h = GueSampler(6, seed=3).matrix(0)
        assert np.allclose(h, h.conj().T, atol=0, rtol=0)

    def test_reproducible_and_streams_distinct(self):
        s = GueSampler(5, seed=11)
        a = s.matrix(7)
        b = GueSampler(5, seed=11).matrix(7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, s.matrix(8))
        assert not np.array_equal(a, GueSampler(5, seed=12).matrix(7))

    def test_entry_moments(self):
        # diagonal variance 1/n, off-diagonal real and imaginary parts 1/(2n)
        n, draws = 3, 30_000
        s = GueSampler(n, seed=5)
        d = np.empty(draws)
        re = np.empty(draws)
        im = np.empty(draws)
        for k in range(draws):
            h = s.matrix(k)
            d[k] = h[0, 0].real
            re[k] = h[0, 1].real
            im[k] = h[0, 1].imag
        sig = 3.0 / np.sqrt(draws)
        assert abs(d.mean()) <= sig / np.sqrt(n)
        assert d.var() == pytest.approx(1 / n, rel=4 * np.sqrt(2 / draws))
        assert re.var() == pytest.approx(1 / (2 * n), rel=4 * np.sqrt(2 / draws))
        assert im.var() == pytest.approx(1 / (2 * n), rel=4 * np.sqrt(2 / draws))
        assert abs(np.mean(re * im)) <= 3.0 / (2 * n * np.sqrt(draws))


class TestEigenvalues:
    def test_diagonal_matrix_exact(self):
        rep = eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.array_equal(rep.eigenvalues, [1.0, 2.0, 3.0])

    def test_known_two_by_two(self):
        rep = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert rep.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        y = (a + a.conj().T) / 2
        rep = eigenvalues(y)
        assert rep.eigenvalues.sum() == pytest.approx(
            np.trace(y).real, rel=1e-10
        )
        assert rep.max_residual <= 1e-10 * np.linalg.norm(y)
        assert rep.orthogonality_defect <= 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ConfigError):
            eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestSamplePerturbed:
    def test_time_zero_is_exact(self):
        cfg = InitialConfiguration.explicit([0.4, -1.2, 0.9])
        out = sample_perturbed(cfg, 0.0, 0)
        assert np.array_equal(out, np.sort(np.asarray(cfg.points)))

    def test_raw_points_are_sorted_on_the_way_in(self):
        raw = [0.4, -1.2, 0.9]
        cfg = InitialConfiguration.explicit(raw)
        assert np.array_equal(
            sample_perturbed(raw, 0.5, 3, seed=9), sample_perturbed(cfg, 0.5, 3, seed=9)
        )

    def test_bit_reproducible(self):
        cfg = InitialConfiguration.equispaced(-1.0, 1.0, 8)
        a = sample_perturbed(cfg, 0.5, 3, seed=9)
        b = sample_perturbed(cfg, 0.5, 3, seed=9)
        assert np.array_equal(a, b)

    def test_n1_variance_is_t(self):
        cfg = InitialConfiguration.explicit([0.0])
        draws = np.array(
            [sample_perturbed(cfg, 1.0, k, seed=2)[0] for k in range(100_000)]
        )
        assert draws.var() == pytest.approx(1.0, abs=0.02)

    def test_semicircle_at_large_n(self):
        cfg = InitialConfiguration.explicit([0.0] * 100)
        pooled = np.concatenate(
            [sample_perturbed(cfg, 1.0, k, seed=4) for k in range(30)]
        )
        mu = MeasureSpec.semicircle(1.0)
        assert kolmogorov_distance(pooled, mu) <= 0.05


class TestSampleSpectra:
    def test_shape_and_determinism_across_threads(self):
        cfg = InitialConfiguration.equispaced(-1.0, 1.0, 6)
        a = sample_spectra(cfg, 0.3, 40, seed=1, threads=1)
        assert a.shape == (40, 6)
        for threads in (None, 2, 4):
            b = sample_spectra(cfg, 0.3, 40, seed=1, threads=threads)
            assert a.tobytes() == b.tobytes()

    def test_paths_determinism_across_threads(self):
        cfg = InitialConfiguration.equispaced(-1.0, 1.0, 6)
        grid = [0.0, 0.1, 0.3]
        serial = [dbm_paths(cfg, grid, k, seed=1) for k in range(8)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(lambda k: dbm_paths(cfg, grid, k, seed=1), range(8)))
        for a, b in zip(serial, pooled):
            assert a.tobytes() == b.tobytes()

    def test_default_threads_follows_blas_pinning(self, monkeypatch):
        # sampling threads only pay off when each eigensolve runs on one BLAS thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert default_threads() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert default_threads() == 3
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert default_threads() == 1
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert default_threads() == 3

    @pytest.mark.parametrize("threads", [1, 2])
    def test_certificate_checks_every_sample_at_threads(self, monkeypatch, threads):
        # one eigenvalue moved by 1e-6 in one sample must fail its residual check
        cfg = InitialConfiguration.equispaced(-1.0, 1.0, 6)
        eigh = np.linalg.eigh
        calls = itertools.count()

        def off_by_one_sample(y):
            vals, vecs = eigh(y)
            if next(calls) == 17:
                vals[2] += 1e-6
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", off_by_one_sample)
        with pytest.raises(NonConvergence):
            sample_spectra(cfg, 0.3, 40, seed=1, threads=threads)


class TestPaths:
    def test_time_zero_row_exact(self):
        cfg = InitialConfiguration.explicit([-0.5, 0.5])
        grid = [0.0, 0.3, 0.7]
        paths = dbm_paths(cfg, grid, 0, seed=6)
        assert paths.shape == (3, 2)
        assert np.array_equal(paths[0], np.sort(np.asarray(cfg.points)))

    def test_decreasing_grid_rejected(self):
        cfg = InitialConfiguration.explicit([0.0])
        with pytest.raises(ConfigError):
            dbm_paths(cfg, [0.0, 0.5, 0.4], 0)
        with pytest.raises(ConfigError):
            dbm_paths(cfg, [-0.1, 0.5], 0)

    @pytest.mark.parametrize("grid", [[0.0, math.nan, 0.2], [0.0, 0.2, math.inf]])
    def test_nonfinite_grid_rejected(self, grid):
        # a NaN step compares false against 0 and would be skipped silently
        with pytest.raises(ConfigError):
            dbm_paths(InitialConfiguration.explicit([-1.0, 0.0, 1.0]), grid, 0)

    def test_csv_header_and_formatting(self):
        cfg = InitialConfiguration.explicit([-0.5, 0.5])
        grid = [0.0, 0.25]
        text = paths_csv(np.asarray(grid), dbm_paths(cfg, grid, 1, seed=6))
        lines = text.strip().split("\n")
        assert lines[0] == "t,lambda_1,lambda_2"
        assert len(lines) == 3
        assert lines[1].startswith("0,") or lines[1].startswith("0.0,")

    def test_trace_increment_variance(self):
        # Tr Y(t) - Tr M is a Gaussian of variance t for every fixed t
        cfg = InitialConfiguration.equispaced(-1.0, 1.0, 4)
        grid = [0.2, 0.4, 0.6]
        total = np.sum(np.asarray(cfg.points))
        traces = np.empty(20_000)
        for k in range(traces.size):
            traces[k] = dbm_paths(cfg, grid, k, seed=8)[-1].sum() - total
        assert traces.var() == pytest.approx(0.6, rel=0.05)


class TestEstimators:
    def test_gap_frequency_counts(self):
        samples = np.array([[0.1, 0.5], [0.7, 0.9], [-0.3, 0.25]])
        freq, se = empirical_gap_frequency(samples, (0.2, 0.6))
        assert freq == pytest.approx(1.0 / 3.0)
        assert se == pytest.approx(np.sqrt((1 / 3) * (2 / 3) / 3))

    def test_gap_frequency_t0_trivial(self):
        cfg = InitialConfiguration.explicit([-1.0, 1.0])
        samples = sample_spectra(cfg, 0.0, 50, seed=0)
        freq, _ = empirical_gap_frequency(samples, (-0.5, 0.5))
        assert freq == 1.0

    def test_density_histogram_payload(self):
        samples = np.array([[0.05, 0.55], [0.15, 0.45]])
        hist = empirical_density(samples, np.linspace(0.0, 0.6, 4))
        assert hist.counts.tolist() == [2, 0, 2]
        dens = hist.density()
        assert dens[0] == pytest.approx(2 / (4 * 0.2))

    def test_one_and_two_point_against_exact_kernel(self):
        cfg = InitialConfiguration.explicit([-1.0, 1.0])
        t = 0.3
        ev = KernelEvaluator(cfg, t)
        samples = sample_spectra(cfg, t, 40_000, seed=13)

        # one-point: expected count in a bin is the integral of rho^1
        lo, hi = 0.85, 1.15
        nodes, weights = np.polynomial.legendre.leggauss(8)
        xs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * weights
        expected = float(
            sum(w * correlation_function(ev, [x]) for x, w in zip(xs, ws))
        )
        counts = np.sum((samples >= lo) & (samples <= hi), axis=1)
        assert abs(counts.mean() - expected) <= 3 * np.sqrt(
            expected / samples.shape[0]
        )

        # two-point: disjoint bins A, B; P(one eigenvalue in each) is the
        # integral of rho^2 over A x B when n = 2
        a_lo, a_hi = -1.15, -0.85
        xa = 0.5 * (a_hi - a_lo) * nodes + 0.5 * (a_hi + a_lo)
        wa = 0.5 * (a_hi - a_lo) * weights
        rho2 = 0.0
        for x1, w1 in zip(xa, wa):
            for x2, w2 in zip(xs, ws):
                rho2 += w1 * w2 * correlation_function(ev, [x1, x2])
        in_a = np.any((samples >= a_lo) & (samples <= a_hi), axis=1)
        in_b = np.any((samples >= lo) & (samples <= hi), axis=1)
        p_hat = np.mean(in_a & in_b)
        se = np.sqrt(max(p_hat * (1 - p_hat), rho2) / samples.shape[0])
        assert abs(p_hat - rho2) <= 3 * se

    def test_gap_frequency_matches_fredholm(self):
        mu = MeasureSpec.uniform(-1.0, 1.0)
        cfg = InitialConfiguration.from_quantiles(mu, 4)
        t = 0.5
        interval = (-0.15, 0.15)
        exact = gap_probability(GapProblem(KernelEvaluator(cfg, t), interval))
        samples = sample_spectra(cfg, t, 10_000, seed=21)
        freq, se = empirical_gap_frequency(samples, interval)
        assert abs(freq - exact.raw_det) <= 3 * max(se, 1e-4)


class TestErrors:
    @pytest.fixture
    def no_eigensolve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigensolve reached with a bad seed or index")

        monkeypatch.setattr(np.linalg, "eigh", fail)

    def test_negative_seed_rejected(self, no_eigensolve):
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        with pytest.raises(ConfigError):
            sample_spectra(cfg, 0.5, 2, seed=-1)

    def test_negative_sample_index_rejected(self, no_eigensolve):
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        with pytest.raises(ConfigError):
            dbm_paths(cfg, [0.1], -1)

    def test_negative_time_rejected(self):
        cfg = InitialConfiguration.explicit([0.0])
        with pytest.raises(ConfigError):
            sample_perturbed(cfg, -0.1, 0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, t):
        cfg = InitialConfiguration.explicit([0.0, 1.0])
        with pytest.raises(ConfigError):
            sample_spectra(cfg, t, 2, threads=1)
        with pytest.raises(ConfigError):
            sample_perturbed(cfg, t, 0)
