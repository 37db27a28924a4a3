"""Stochastic oracle: sample Y(t) = M + sqrt(t) H for Hermitian Gaussian H.

Entries follow the unitary-ensemble convention: real diagonal of variance
1/n, off-diagonal real and imaginary parts independent with variance 1/(2n).
Randomness is counter-based (Philox keyed by seed, counter split per sample
index), so any sample is reproducible in isolation and results do not
depend on worker count or evaluation order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonConvergence
from .measures import _extract_points

_HERMITICITY_TOL = 1e-12
_RESIDUAL_TOL = 1e-10


class GueSampler:
    """Reproducible Hermitian Gaussian matrices, one stream per sample index."""

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ConfigError(f"dimension must be positive, got {n}")
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        self.n = int(n)
        self.seed = int(seed)
        self.upper = np.triu_indices(self.n, 1)
        self.diag = np.diag_indices(self.n)

    def _generator(self, sample_index: int, sub: int) -> np.random.Generator:
        if sample_index < 0:
            raise ConfigError(f"sample index must be nonnegative, got {sample_index}")
        counter = (int(sample_index) << 64) | (int(sub) << 32)
        return np.random.Generator(np.random.Philox(key=self.seed, counter=counter))

    def matrix(self, sample_index: int, _sub: int = 0) -> np.ndarray:
        # fixed draw order: diagonal, upper-triangle real, upper-triangle imag,
        # taken in one call from the same stream
        n = self.n
        k = n * (n - 1) // 2
        gen = self._generator(sample_index, _sub)
        z = gen.standard_normal(n + 2 * k)
        h = np.zeros((n, n), dtype=complex)
        h[self.upper] = (z[n : n + k] + 1j * z[n + k :]) / np.sqrt(2.0 * n)
        h += h.conj().T
        h[self.diag] = z[:n] / np.sqrt(n)
        return h


def default_threads() -> int:
    """Sampling threads: the usable CPUs when BLAS is pinned to one thread,
    else 1, since a threaded BLAS already spreads each eigensolve over the
    cores and more sampling threads would oversubscribe them."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if blas != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class EigenSolveReport:
    eigenvalues: np.ndarray
    max_residual: float
    orthogonality_defect: float


def _certified(y: np.ndarray):
    """``eigh`` of a Hermitian matrix with its residual certified: the
    eigenvalues, the eigenvectors and the largest residual column norm."""
    scale = float(np.linalg.norm(y))
    herm = float(np.max(np.abs(y - y.conj().T)))
    if herm > _HERMITICITY_TOL * max(1.0, scale):
        raise ConfigError(f"matrix is not Hermitian: asymmetry {herm:.3e}")
    vals, vecs = np.linalg.eigh(y)
    residual = float(np.max(np.linalg.norm(y @ vecs - vecs * vals, axis=0)))
    if residual > _RESIDUAL_TOL * max(1.0, scale):
        raise NonConvergence(
            f"eigensolver residual {residual:.3e} exceeds "
            f"{_RESIDUAL_TOL:g} * ||Y|| = {_RESIDUAL_TOL * scale:.3e}"
        )
    return vals, vecs, residual


def eigenvalues(y: np.ndarray) -> EigenSolveReport:
    """Full spectrum of a Hermitian matrix with certified residuals."""
    y = np.asarray(y)
    vals, vecs, residual = _certified(y)
    defect = float(np.max(np.abs(vecs.conj().T @ vecs - np.eye(y.shape[0]))))
    return EigenSolveReport(
        eigenvalues=vals, max_residual=residual, orthogonality_defect=defect
    )


def _time(t) -> float:
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ConfigError(f"time must be finite and nonnegative, got {t}")
    return t


def _spectrum(pts: np.ndarray, sampler: GueSampler, t: float, sample_index: int) -> np.ndarray:
    """Certified sorted eigenvalues of M + sqrt(t) H, M = diag(pts)."""
    if t == 0.0:
        return np.sort(pts)
    y = np.sqrt(t) * sampler.matrix(sample_index)
    y[sampler.diag] += pts
    return _certified(y)[0]


def sample_perturbed(config, t: float, sample_index: int, seed: int = 0) -> np.ndarray:
    """Sorted eigenvalues of M + sqrt(t) H for one sample index."""
    pts = _extract_points(config)
    return _spectrum(pts, GueSampler(pts.size, seed), _time(t), sample_index)


def sample_spectra(
    config, t: float, n_samples: int, seed: int = 0, threads: int | None = None
) -> np.ndarray:
    """Stack of sorted spectra, rows keyed by sample index.

    ``threads`` defaults to :func:`default_threads`; the rows do not depend
    on it.
    """
    threads = default_threads() if threads is None else int(threads)
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    pts = _extract_points(config)
    t = _time(t)
    sampler = GueSampler(pts.size, seed)
    n_samples = int(n_samples)
    out = np.empty((n_samples, pts.size))

    def work(first: int) -> None:
        for k in range(first, n_samples, threads):
            out[k] = _spectrum(pts, sampler, t, k)

    # the calling thread takes a share: a thread that has run eigensolves
    # leaves its malloc arena and BLAS buffer resident after it exits
    with ThreadPoolExecutor(max_workers=max(1, threads - 1)) as pool:
        rest = [pool.submit(work, w) for w in range(1, threads)]
        work(0)
        for f in rest:
            f.result()
    return out


def dbm_paths(config, time_grid, sample_index: int, seed: int = 0) -> np.ndarray:
    """Eigenvalue trajectories along a time grid, coupled through increments.

    Y(t_{j+1}) = Y(t_j) + sqrt(t_{j+1} - t_j) * H_fresh, so each row has the
    marginal law of M + sqrt(t_j) H while consecutive rows stay coupled.
    """
    pts = _extract_points(config)
    grid = np.asarray(time_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError("time grid must be a nonempty 1-d array")
    if not (np.all(np.isfinite(grid)) and grid[0] >= 0.0 and np.all(np.diff(grid) > 0.0)):
        raise ConfigError("time grid must be finite, start at t >= 0 and increase strictly")
    sampler = GueSampler(pts.size, seed)
    y = np.diag(pts).astype(complex)
    rows = np.empty((grid.size, pts.size))
    prev = 0.0
    for j, tj in enumerate(grid):
        dt = tj - prev
        if dt > 0.0:
            y += np.sqrt(dt) * sampler.matrix(sample_index, _sub=j + 1)
        rows[j] = _certified(y)[0]
        prev = tj
    return rows


def paths_csv(time_grid, paths: np.ndarray) -> str:
    grid = np.asarray(time_grid, dtype=float)
    n = paths.shape[1]
    lines = ["t," + ",".join(f"lambda_{k + 1}" for k in range(n))]
    for tj, row in zip(grid, paths):
        lines.append(",".join(f"{v:.17g}" for v in (tj, *row)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DensityHistogram:
    edges: np.ndarray
    counts: np.ndarray
    n_samples: int
    matrix_dim: int

    def density(self) -> np.ndarray:
        """Per-eigenvalue probability density (integrates to at most 1)."""
        total = self.n_samples * self.matrix_dim
        return self.counts / (total * np.diff(self.edges))


def empirical_density(samples: np.ndarray, bin_edges) -> DensityHistogram:
    samples = np.asarray(samples, dtype=float)
    edges = np.asarray(bin_edges, dtype=float)
    counts, _ = np.histogram(samples.ravel(), bins=edges)
    return DensityHistogram(
        edges=edges,
        counts=counts,
        n_samples=samples.shape[0],
        matrix_dim=samples.shape[1],
    )


def empirical_gap_frequency(samples: np.ndarray, interval) -> tuple[float, float]:
    """Fraction of samples with no eigenvalue in [a, b], with binomial SE."""
    samples = np.asarray(samples, dtype=float)
    a, b = float(interval[0]), float(interval[1])
    hit = np.any((samples >= a) & (samples <= b), axis=1)
    freq = float(1.0 - hit.mean())
    se = float(np.sqrt(freq * (1.0 - freq) / samples.shape[0]))
    return freq, se
