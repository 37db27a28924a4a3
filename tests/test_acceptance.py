"""End-to-end acceptance checks, one test per numbered criterion.

Each test asserts its stated tolerance and finishes with a single
"[criterion N] PASS" line; the pytest -v report therefore carries one
pass/fail line per criterion.  Criteria mixing exact identities,
closed-form oracles and finite-size trend checks are all runnable on a
laptop; the slowest (regime contrast at n=200) takes a few minutes.
"""

import math

import numpy as np
import pytest

from dbmlab.freeconv import (
    FreeConvolutionState,
    gap_window,
    make_window,
    psi_t,
    stieltjes,
    t_critical,
    window_scale,
)
from dbmlab.fredholm import GapProblem, gap_probability
from dbmlab.kernel import (
    KernelEvaluator,
    RescaledKernelFrame,
    biorthogonality_check,
    correlation_function,
    gauge_free_deviation,
    gauge_to_paper,
    kernel_lagrange,
    kernel_paper,
    kernel_trace,
    projection_defect,
    sup_sine_deviation,
)
from dbmlab.measures import InitialConfiguration, MeasureSpec, kolmogorov_distance
from dbmlab.montecarlo import empirical_gap_frequency, sample_spectra

UNIFORM = MeasureSpec.uniform(-1.0, 1.0)


def test_criterion_01_semicircle_density_oracle():
    # evolving a semicircle keeps it a semicircle with variance grown by t
    mu = MeasureSpec.semicircle(1.0)
    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        state = FreeConvolutionState(mu, t)
        var = 1.0 + t
        radius = 2.0 * math.sqrt(var)
        xs = np.linspace(-radius, radius, 200)
        ref = np.sqrt(np.maximum(4.0 * var - xs**2, 0.0)) / (2.0 * math.pi * var)
        got = np.array([psi_t(state, float(x)) for x in xs])
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 1e-8
    print(f"[criterion 1] PASS sup|psi_t - semicircle(1+t)| = {worst:.3e} (tol 1e-8)")


def test_criterion_02_critical_time_closed_forms():
    power = MeasureSpec.power(2.0, 0.0, (-1.0, 1.0))
    cases = [
        ("power kappa=2 at 0", t_critical(power, 0.0), 1.0 / 3.0),
        ("uniform at 2", t_critical(UNIFORM, 2.0), 3.0),
        ("uniform at 0", t_critical(UNIFORM, 0.0), 0.0),
    ]
    for label, got, want in cases:
        assert got == pytest.approx(want, abs=1e-8), label
    report = ", ".join(f"{lbl}: {got:.10f}" for lbl, got, _ in cases)
    print(f"[criterion 2] PASS {report} (tol 1e-8)")


def test_criterion_03_determinantal_identities_small_n():
    rng = np.random.default_rng(20260817)
    pts = np.sort(rng.uniform(-1.0, 1.0, 10))
    assert float(np.min(np.diff(pts))) > 1e-4
    config = InitialConfiguration.explicit(pts)
    worst_trace = worst_proj = worst_bio = 0.0
    for t in (0.3, 1.0):
        ev = KernelEvaluator(config, t)
        worst_trace = max(worst_trace, abs(kernel_trace(ev) - 10.0))
        pairs = rng.uniform(pts[0] - 1.0, pts[-1] + 1.0, (20, 2))
        worst_proj = max(worst_proj, float(np.max(projection_defect(ev, *pairs.T))))
        worst_bio = max(worst_bio, biorthogonality_check(ev))
    assert worst_trace <= 1e-6
    assert worst_proj <= 1e-6
    assert worst_bio <= 1e-8
    print(
        f"[criterion 3] PASS trace defect {worst_trace:.2e} (tol 1e-6), "
        f"projection {worst_proj:.2e} (tol 1e-6), "
        f"biorthogonality {worst_bio:.2e} (tol 1e-8)"
    )


def test_criterion_04_single_point_closed_form():
    ev = KernelEvaluator(InitialConfiguration.explicit([0.0]), 1.0)
    got = kernel_paper(ev, 0.0, 0.0)
    err = abs(got - 1.0 / math.sqrt(2.0 * math.pi))
    assert err <= 1e-12
    print(f"[criterion 4] PASS |K(0,0) - 1/sqrt(2 pi)| = {err:.2e} (tol 1e-12)")


def test_criterion_05_cross_form_agreement():
    config = InitialConfiguration.from_quantiles(UNIFORM, 50)
    t = 0.5
    grid = np.arange(-4, 5) * 0.5
    window = make_window(UNIFORM, t, 0.0, u_grid=grid)
    frame = RescaledKernelFrame(config, t, window)
    vals = frame.values(grid, grid)
    h = window_scale(window, 50)
    ev = KernelEvaluator(config, t, x0=frame.x0)
    worst = 0.0
    for i, u in enumerate(grid):
        for j, v in enumerate(grid):
            x_u = window.x_star_t + h * u
            x_v = window.x_star_t + h * v
            ref = h * gauge_to_paper(ev, x_u, x_v, kernel_lagrange(ev, x_u, x_v))
            tol = max(1e-6, 1e-4 * abs(ref))
            err = abs(float(vals[i, j]) - ref)
            worst = max(worst, err / tol)
            assert err <= tol, (u, v, err, tol)
    print(
        f"[criterion 5] PASS contour vs Lagrange on 9x9 grid, "
        f"worst error at {worst:.3f} of tolerance max(1e-6, 1e-4|value|)"
    )


def test_criterion_06_bulk_universality_trend():
    t = 0.5
    sup_dev, free_dev = {}, {}
    for n in (50, 100, 200):
        config = InitialConfiguration.from_quantiles(UNIFORM, n)
        frame = RescaledKernelFrame(config, t, make_window(UNIFORM, t, 0.0))
        sup_dev[n] = sup_sine_deviation(frame)
        free_dev[n] = gauge_free_deviation(frame)
    assert sup_dev[200] <= 0.05
    assert sup_dev[50] > sup_dev[100] > sup_dev[200]
    assert free_dev[50] > free_dev[100] > free_dev[200]
    print(
        "[criterion 6] PASS sup|rescaled - sine| = "
        f"{sup_dev[50]:.4f} > {sup_dev[100]:.4f} > {sup_dev[200]:.4f}, "
        "final <= 0.05; gauge-free "
        f"{free_dev[50]:.4f} > {free_dev[100]:.4f} > {free_dev[200]:.4f}"
    )


def test_criterion_07_regime_contrast_soft_center():
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    scale_const = 0.05
    above, below = {}, {}
    above_free, below_free = {}, {}
    for n in (50, 100, 200):
        config = InitialConfiguration.from_quantiles(mu, n)
        t_n = scale_const * n ** (-1.0 / 3.0) * math.log(n) ** 2
        t_sub = float(n) ** (-2.0 / 3.0)
        for store, free, t in ((above, above_free, t_n), (below, below_free, t_sub)):
            frame = RescaledKernelFrame(config, t, make_window(mu, t, 0.0))
            store[n] = sup_sine_deviation(frame)
            free[n] = gauge_free_deviation(frame)
    assert above[50] > above[100] > above[200]
    assert above_free[50] > above_free[100] > above_free[200]
    for n, dev in below.items():
        assert dev >= 0.2, (n, dev)
    for n, dev in below_free.items():
        assert dev >= 0.2, (n, dev)
    print(
        "[criterion 7] PASS D(n, t_n) decreasing: "
        f"{above[50]:.3g} > {above[100]:.3g} > {above[200]:.3g}; "
        f"sub-threshold D >= 0.2 at all n (min {min(below.values()):.3g}); "
        f"gauge-free {above_free[50]:.3g} > {above_free[100]:.3g} > "
        f"{above_free[200]:.3g}, sub-threshold min {min(below_free.values()):.3g}"
    )


def test_criterion_08_gap_propagation():
    delta, n = 0.3, 200
    t = 0.01 * delta**2
    eps = delta / 10.0
    config = InitialConfiguration.equispaced(-1.0, 1.0, n).with_gap(0.0, delta)
    window = gap_window(config, t, 0.0, eps)
    frame = RescaledKernelFrame(config, t, window)
    grid = np.asarray(window.u_grid)
    sup_abs = float(np.max(np.abs(frame.values(grid, grid))))
    assert sup_abs <= 0.05

    def kern(uu, vv):
        return frame.values(np.asarray(uu).ravel(), np.asarray(vv).ravel())

    fred = gap_probability(GapProblem(kern, (-1.0, 1.0)))
    assert fred.probability >= 0.99

    spectra = sample_spectra(config, t, 2000, seed=2, threads=4)
    interval = (window.x_star_t - eps, window.x_star_t + eps)
    freq, se = empirical_gap_frequency(spectra, interval)
    assert freq >= 0.99
    print(
        f"[criterion 8] PASS sup|rescaled| = {sup_abs:.2e} (tol 0.05), "
        f"Fredholm gap = {fred.probability:.6f} >= 0.99, "
        f"MC frequency = {freq:.4f} +- {se:.4f} >= 0.99 over 2000 samples"
    )


def test_criterion_09_monte_carlo_vs_exact_density():
    config = InitialConfiguration.from_quantiles(UNIFORM, 50)
    t = 0.5
    n_samples = 20_000
    spectra = sample_spectra(config, t, n_samples, seed=3, threads=4)
    ev = KernelEvaluator(config, t)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    half = 0.01
    report = []
    for center in (-0.8, -0.4, 0.0, 0.4, 0.8):
        a, b = center - half, center + half
        xs = center + half * nodes
        exact = half * float(
            np.dot(weights, [correlation_function(ev, x) for x in xs])
        )
        hit = float(np.mean(np.sum((spectra >= a) & (spectra < b), axis=1)))
        se = math.sqrt(exact * (1.0 - exact) / n_samples)
        assert abs(hit - exact) <= 3.0 * se, (center, hit, exact, se)
        report.append(abs(hit - exact) / se)
    print(
        "[criterion 9] PASS empirical bin means within 3 binomial SE at 5 bulk "
        f"points (worst {max(report):.2f} SE)"
    )


def test_criterion_10_property_suite():
    semi = MeasureSpec.semicircle(1.0)
    checked = 0
    for mu in (UNIFORM, semi):
        lo, hi = mu.hull()
        for t in (0.3, 1.0):
            state = FreeConvolutionState(mu, t)
            root_t = math.sqrt(t)
            for x in np.linspace(-3.0, 3.0, 41):
                y = state.y(float(x))
                assert 0.0 <= y <= root_t + 1e-12
                assert abs(state.forward(float(x)) - x) <= root_t + 1e-9
                if x < lo - root_t - 1e-9 or x > hi + root_t + 1e-9:
                    assert y == 0.0
                if y > 0.0:
                    z = complex(x, y)
                    assert abs(state.H_raw(z).imag) <= 1e-9
                    assert abs(stieltjes(mu, z)) <= 1.0 / root_t + 1e-9
                    high = complex(x, y + 0.5)
                    assert abs(stieltjes(mu, high)) <= 1.0 / root_t + 1e-9
                    checked += 1
    assert checked > 50

    # resolvent comparison for the quantile configuration
    n = 50
    config = InitialConfiguration.from_quantiles(UNIFORM, n)
    emp = config.empirical()
    m_tilde = n * kolmogorov_distance(config.points, UNIFORM)
    worst_frac = 0.0
    for eps in (0.1, 0.01):
        bound = math.pi * m_tilde / (n * eps)
        for x in (-0.9, -0.2, 0.0, 0.55, 1.3):
            z = complex(x, eps)
            diff = abs(stieltjes(emp, z) - stieltjes(UNIFORM, z))
            assert diff <= bound + 1e-12
            worst_frac = max(worst_frac, diff / bound)
    print(
        f"[criterion 10] PASS graph/bound properties at {checked} points; "
        f"resolvent comparison within bound (worst {worst_frac:.2f} of bound)"
    )
