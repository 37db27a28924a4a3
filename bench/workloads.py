"""The benchmark's three workloads: bulk-sweep, soft-center, gap-montecarlo.

Each workload has three parts.  ``inputs`` is the set-up: it builds the
measures and initial configurations.  ``run`` is the timed part: it calls
the same public functions, with the same arguments, as the CLI command or
acceptance criterion it mirrors.  ``check`` verifies the outputs afterwards
and returns one ``(name, ok, detail)`` per checked result.

The timed code calls the library through ``api`` and the CLI's imports, so
that a traced run can wrap those names (see ``instrument``).
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import dbmlab
import dbmlab.cli as cli
import dbmlab.measures as measures
from dbmlab import (
    FreeConvolutionState,
    GapProblem,
    InitialConfiguration,
    KernelEvaluator,
    MeasureSpec,
    RescaledKernelFrame,
    forward_map,
    gap_probability,
    kernel_lagrange,
    psi_t,
    y_t,
)

import checks

CONFIGS = Path(__file__).resolve().parent / "configs"

api = SimpleNamespace(
    make_window=dbmlab.make_window,
    sup_sine_deviation=dbmlab.sup_sine_deviation,
    gap_probability=dbmlab.gap_probability,
    GapProblem=dbmlab.GapProblem,
    KernelEvaluator=dbmlab.KernelEvaluator,
    correlation_function=dbmlab.correlation_function,
    sample_spectra=dbmlab.sample_spectra,
    dbm_paths=dbmlab.dbm_paths,
    cli_main=cli.main,
)

# The CLI's default window grid (extent 2, step 0.25), 17 points.
GRID = np.arange(-8, 9) * 0.25

# Checks that fail on every run because RescaledKernelFrame._column
# conjugates each row at its own anchor Re z_saddle(u), which is not one
# similarity transform of the kernel.  They count as failed operations.
KNOWN_FAULTS = {
    "bulk-sweep/det_frame_vs_lagrange_n50",
    "soft-center/r2_bound_power",
}


def frame_kernel(frame):
    """The kernel callable `dbmlab sweep` and `dbmlab gap` hand to GapProblem."""

    def kern(uu, vv):
        return frame.values(np.asarray(uu).ravel(), np.asarray(vv).ravel())

    return kern


def run_cli(command, config, seed, out):
    """One CLI invocation, as typed by a user; its report goes to stderr."""
    argv = [command, "--config", str(CONFIGS / f"{config}.conf")]
    argv += ["--out", str(out / config), "--seed", str(seed)]
    with contextlib.redirect_stdout(sys.stderr):
        code = api.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"dbmlab {command} --config {config}.conf exited with {code}")


@contextlib.contextmanager
def keep_results(owner, attr, sink):
    """Append every result of ``owner.attr`` to ``sink`` while active."""
    orig = getattr(owner, attr)

    def kept(*args, **kwargs):
        result = orig(*args, **kwargs)
        sink.append(result)
        return result

    setattr(owner, attr, kept)
    try:
        yield sink
    finally:
        setattr(owner, attr, orig)


def grid_values(frame, grid=GRID):
    """Frame values on the grid, read back from the rows already computed."""
    return np.array([[frame.value(u, v) for v in grid] for u in grid])


def lagrange_diagonal(frame, conf, t, grid=GRID):
    """h K(x_u, x_u) by the Lagrange route; the diagonal carries no gauge."""
    ev = KernelEvaluator(conf, t)
    xs = frame.window.x_star_t + frame.h * np.asarray(grid)
    return frame.h * np.array([kernel_lagrange(ev, x, x) for x in xs]), ev


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


def _config_json(run_dir):
    return json.loads((run_dir / "config.json").read_text())


# -- bulk-sweep: criterion 6 as `dbmlab sweep` runs it ------------------------

BULK_T = 0.5
BULK_NS = (50, 100, 200)
# The Fredholm determinant runs at n = 50 only, where the Lagrange route
# cross-checks it; those at n = 100 and 200 (5 s and 13 s) would take each
# run past its time budget.
BULK_DET_NS = (50,)
SWEEP_INTERVAL = (-0.5, 0.5)


def bulk_inputs():
    mu = MeasureSpec.uniform(-1.0, 1.0)
    return {n: InitialConfiguration.from_quantiles(mu, n) for n in BULK_NS}


def bulk_run(confs, seed, out):
    res = {}
    for n, conf in confs.items():
        window = api.make_window(conf.empirical(), BULK_T, 0.0, u_grid=GRID)
        frame = RescaledKernelFrame(conf, BULK_T, window, dc_tol=1e-7, max_levels=8)
        dev = api.sup_sine_deviation(frame)
        gap = None
        if n in BULK_DET_NS:
            problem = api.GapProblem(frame_kernel(frame), SWEEP_INTERVAL, m=8)
            gap = api.gap_probability(problem)
        res[n] = (frame, dev, gap)
    return res


def bulk_check(confs, res, out):
    got = []
    for n, (frame, _, gap) in res.items():
        got.append((f"r2_bound_n{n}", *checks.r2_bound(grid_values(frame))))
        if gap is not None:
            got.append((f"raw_det_in_unit_n{n}", *checks.in_unit_interval(gap.raw_det)))
    frame, _, gap = res[50]
    ref, ev = lagrange_diagonal(frame, confs[50], BULK_T)
    diag = np.diag(grid_values(frame))
    got.append(("diag_frame_vs_lagrange_n50", *checks.close(diag, ref, 1e-6, 1e-4)))
    # the same interval in physical units: x*_t +- h/2
    xc, h = frame.window.x_star_t, frame.h
    lag = gap_probability(GapProblem(ev, (xc - h / 2, xc + h / 2), m=8))
    got.append(("det_frame_vs_lagrange_n50", *checks.close(gap.raw_det, lag.raw_det, 1e-6)))
    devs = {n: dev for n, (_, dev, _) in res.items()}
    got.append(("criterion6_trend", *checks.bulk_trend(devs)))
    return got


# -- soft-center: kappa = 1/2 vanishing at the centre ------------------------

SOFT_N = 50
# criterion 7's time above threshold, t_n = 0.05 n^(-1/3) log(n)^2
SOFT_T = 0.05 * SOFT_N ** (-1.0 / 3.0) * math.log(SOFT_N) ** 2
# 9 x 9 over the same extent as the default 17 x 17 grid: these rows take
# 1-2 s each, and 17 of them would take the runs past their time budget
SOFT_GRID = np.arange(-4, 5) * 0.5
# points x of the identity psi_t(forward_map(x)) = y_t(x) / (pi t)
SOFT_IDENTITY_XS = (-0.7, -0.35, 0.15, 0.5)


def soft_inputs():
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    return {"mu": mu, "conf": InitialConfiguration.from_quantiles(mu, SOFT_N)}


def soft_run(inp, seed, out):
    run_cli("density", "density_power", seed, out)
    run_cli("density", "density_semicircle", seed, out)
    window = api.make_window(inp["mu"], SOFT_T, 0.0, u_grid=SOFT_GRID)
    frame = RescaledKernelFrame(inp["conf"], SOFT_T, window)
    dev = api.sup_sine_deviation(frame)
    return frame, dev


def soft_check(inp, res, out):
    got = []
    semi = out / "density_semicircle"
    xs, psi = _csv(semi / "density.csv").T
    var = 1.0 + _config_json(semi)["t"]
    got.append(("semicircle_closed_form", *checks.semicircle_density(xs, psi, var)))

    power = out / "density_power"
    xs, psi = _csv(power / "density.csv").T
    got.append(("power_psi_non_negative", *checks.non_negative(psi)))
    got.append(("power_psi_symmetric", *checks.symmetric(xs, psi)))
    got.append(("power_unit_mass", *checks.unit_mass(xs, psi)))
    t = _config_json(power)["t"]
    state = FreeConvolutionState(inp["mu"], t)
    lhs = [psi_t(state, forward_map(state, x)) for x in SOFT_IDENTITY_XS]
    rhs = [y_t(state, x) / (math.pi * t) for x in SOFT_IDENTITY_XS]
    got.append(("power_parametric_identity", *checks.close(lhs, rhs, 1e-8, 1e-6)))
    summary = dict(line.split(",")[:2] for line in (power / "summary.csv").read_text().split()[1:])
    t_cr = float(summary["t_cr"])
    got.append(("power_t_critical_zero", t_cr == 0.0, f"t_cr {t_cr!r}"))

    frame, _ = res
    ref, _ = lagrange_diagonal(frame, inp["conf"], SOFT_T, SOFT_GRID)
    vals = grid_values(frame, SOFT_GRID)
    got.append(("diag_frame_vs_lagrange_power", *checks.close(np.diag(vals), ref, 1e-6, 1e-4)))
    got.append(("r2_bound_power", *checks.r2_bound(vals)))
    return got


# -- gap-montecarlo: Monte Carlo in three shapes -----------------------------

MC_N = 50
MC_T = 0.5
MC_SAMPLES = 2000
# criterion 9's bins: 5 centres, half-width 0.01, 8 Gauss-Legendre nodes
BIN_CENTERS = (-0.8, -0.4, 0.0, 0.4, 0.8)
BIN_HALF = 0.01
PATH_INDICES = range(40)
PATH_GRID = np.linspace(0.0, MC_T, 11)


def gap_inputs():
    mu = MeasureSpec.uniform(-1.0, 1.0)
    return {
        # M of the gap command, which builds its own copy from gap.conf
        "gap_conf": InitialConfiguration.equispaced(-1.0, 1.0, 100).with_gap(0.0, 0.3),
        "conf": InitialConfiguration.from_quantiles(mu, MC_N),
    }


def gap_run(inp, seed, out):
    with keep_results(cli, "sample_spectra", []) as gap_spectra:
        run_cli("gap", "gap", seed, out)
    conf = inp["conf"]
    spectra = api.sample_spectra(conf, MC_T, MC_SAMPLES, seed=seed, threads=1)
    ev = api.KernelEvaluator(conf, MC_T)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    # each bin's expected count: the 1-point density integrated by Gauss-Legendre
    exact = []
    for c in BIN_CENTERS:
        dens = [api.correlation_function(ev, x) for x in c + BIN_HALF * nodes]
        exact.append(BIN_HALF * float(np.dot(weights, dens)))
    paths = np.stack([api.dbm_paths(conf, PATH_GRID, k, seed=seed) for k in PATH_INDICES])
    return {"gap_spectra": gap_spectra[0], "spectra": spectra, "exact": exact, "paths": paths}


def gap_check(inp, res, out):
    got = []
    run_dir = out / "gap"
    blob = json.loads((run_dir / "gap.json").read_text())
    got.append(("fredholm_gap", *checks.at_least(blob["fredholm"]["probability"], 0.99)))
    got.append(("mc_gap_frequency", *checks.at_least(blob["monte_carlo"]["frequency"], 0.99)))
    t_gap = _config_json(run_dir)["t"]
    for label, spectra, points, t in (
        ("n100", res["gap_spectra"], inp["gap_conf"].points, t_gap),
        ("n50", res["spectra"], inp["conf"].points, MC_T),
    ):
        first, second = checks.sample_moments(spectra, points, t)
        got.append((f"mean_trace_{label}", *first))
        got.append((f"mean_square_sum_{label}", *second))
    spectra = res["spectra"]
    for c, exact in zip(BIN_CENTERS, res["exact"]):
        a, b = c - BIN_HALF, c + BIN_HALF
        hit = float(np.mean(np.sum((spectra >= a) & (spectra < b), axis=1)))
        got.append((f"bin_{c:+.1f}", *checks.bin_count(hit, exact, spectra.shape[0])))
    paths = res["paths"]
    got.append(("paths_sorted", *checks.paths_sorted(paths)))
    got.append(("paths_start_at_m", *checks.starts_at(paths, inp["conf"].points)))
    mean, var = checks.trace_increments(paths, PATH_GRID)
    got.append(("trace_increment_mean", *mean))
    got.append(("trace_increment_variance", *var))
    return got


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    "bulk-sweep": Workload(bulk_inputs, bulk_run, bulk_check),
    "soft-center": Workload(soft_inputs, soft_run, soft_check),
    "gap-montecarlo": Workload(gap_inputs, gap_run, gap_check),
}


# -- tracing -----------------------------------------------------------------


def _rows(arg_index):
    return lambda args, kwargs, result: {"rows": int(np.size(args[arg_index]))}


def _lagrange_m(args, kwargs, result):
    ev = result if isinstance(result, KernelEvaluator) else args[0]
    return {"quadrature_m": int(ev.quadrature_m)}


# counts noted on spans, by span name
NOTES = {
    "fredholm.gap_probability": lambda a, k, r: {"m_final": int(r.m_final)},
    "montecarlo.sample_spectra": lambda a, k, r: {"samples": r.shape[0], "n": r.shape[1]},
    "montecarlo.dbm_paths": lambda a, k, r: {"steps": r.shape[0]},
    "kernel.correlation_function": _lagrange_m,
}


def _patch_functions(tracer, ns, skip_module=None):
    """Wrap each dbmlab function bound in ``ns`` as <module>.<name>."""
    for attr, obj in list(vars(ns).items()):
        mod = getattr(obj, "__module__", None) or ""
        if inspect.isfunction(obj) and mod.startswith("dbmlab.") and mod != skip_module:
            name = f"{mod.rsplit('.', 1)[1]}.{obj.__name__}"
            tracer.patch(ns, attr, name, NOTES.get(name))


def instrument(tracer):
    """Wrap every name the timed code reaches a module through.

    The benchmark's own ``api`` and the names ``dbmlab.cli`` imports are
    wrapped, plus the frame methods every caller goes through and the
    quantile solver behind ``InitialConfiguration.from_quantiles``.
    """
    tracer.patch(measures, "quantiles", "measures.quantiles")
    tracer.patch(RescaledKernelFrame, "__init__", "kernel.frame_init")
    tracer.patch(RescaledKernelFrame, "values", "kernel.values", _rows(1))

    def gap_problem(kernel, interval, m=8):
        if callable(kernel):
            kernel = tracer.wrap(kernel, "fredholm.kernel", _rows(0))
        return GapProblem(kernel, interval, m)

    for ns in (api, cli):
        tracer.replace(ns, "GapProblem", gap_problem)
    _patch_functions(tracer, api)
    _patch_functions(tracer, cli, skip_module="dbmlab.cli")
    tracer.patch(api, "KernelEvaluator", "kernel.KernelEvaluator", _lagrange_m)
