import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dbmlab
from dbmlab.errors import ConfigError
from dbmlab.measures import (
    InitialConfiguration,
    MeasureSpec,
    insert_gap,
    kolmogorov_distance,
    quantiles,
    rigidity,
)


# ---------------------------------------------------------------- measure specs

def test_semicircle_density_at_origin():
    mu = MeasureSpec.semicircle(1.0)
    assert mu.density(0.0) == pytest.approx(1.0 / math.pi, abs=1e-14)
    # edge of support
    assert mu.density(2.0) == 0.0
    assert mu.density(2.1) == 0.0


def test_semicircle_cdf_symmetry_and_mass():
    mu = MeasureSpec.semicircle(0.7)
    edge = 2.0 * math.sqrt(0.7)
    assert mu.cdf(-edge) == pytest.approx(0.0, abs=1e-14)
    assert mu.cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert mu.cdf(edge) == pytest.approx(1.0, abs=1e-14)


def test_power_density_value():
    # density (kappa+1)/(b-a) * |x-center|^kappa on [-1,1], kappa=2 -> 1.5 x^2
    mu = MeasureSpec.power(2.0, 0.0, (-1.0, 1.0))
    assert mu.density(0.5) == pytest.approx(0.375, abs=1e-15)
    assert mu.cdf(1.0) == pytest.approx(1.0, abs=1e-12)


def test_power_asymmetric_support_mass():
    mu = MeasureSpec.power(0.5, 0.25, (-1.0, 2.0))
    assert mu.cdf(2.0) == pytest.approx(1.0, abs=1e-12)
    assert mu.cdf(-1.0) == pytest.approx(0.0, abs=1e-14)
    xs = np.linspace(-1.0, 2.0, 2001)
    dens = mu.density(xs)
    assert np.all(dens >= 0.0)
    # quadrature mass check, trapezoid is fine at this resolution
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=2e-4)


def test_uniform_cdf():
    mu = MeasureSpec.uniform(-1.0, 3.0)
    assert mu.density(0.0) == pytest.approx(0.25)
    assert mu.cdf(1.0) == pytest.approx(0.5)


def test_piecewise_cdf_matches_antiderivative():
    # density 3/2 x^2 on [-1,1] expressed as a piecewise block
    mu = MeasureSpec.piecewise([((-1.0, 1.0), (0.0, 0.0, 1.5))])
    xs = np.linspace(-1.0, 1.0, 41)
    expected = 0.5 * (xs ** 3 + 1.0)
    assert np.allclose(mu.cdf(xs), expected, atol=1e-14)


def test_piecewise_disconnected_support():
    mu = MeasureSpec.piecewise([((-2.0, -1.0), (0.5,)), ((1.0, 2.0), (0.5,))])
    assert mu.cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert mu.density(0.0) == 0.0
    assert mu.cdf(2.0) == pytest.approx(1.0, abs=1e-14)


def test_piecewise_wrong_mass_rejected():
    with pytest.raises(ValueError):
        MeasureSpec.piecewise([((-1.0, 1.0), (0.3,))])


def test_negative_density_rejected():
    with pytest.raises(ValueError):
        MeasureSpec.piecewise([((-1.0, 1.0), (0.5, 1.0))])  # negative at x=-1


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        MeasureSpec.semicircle(0.0)
    with pytest.raises(ValueError):
        MeasureSpec.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        MeasureSpec.power(-0.5, 0.0, (-1.0, 1.0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: MeasureSpec.semicircle(math.inf),
        lambda: MeasureSpec.uniform(0.0, math.inf),
        lambda: MeasureSpec.uniform(-math.inf, 0.0),
        lambda: MeasureSpec.power(0.5, 0.0, (-1.0, math.inf)),
        lambda: MeasureSpec.power(math.inf, 0.0, (-1.0, 1.0)),
        lambda: MeasureSpec.power(0.5, math.nan, (-1.0, 1.0)),
        lambda: MeasureSpec.piecewise([((-1.0, math.inf), (0.5,))]),
        lambda: MeasureSpec.piecewise([((-1.0, 1.0), (0.5, math.nan))]),
        # finite, but the normalization overflows, with numpy's warning, to
        # a NaN mass
        pytest.param(
            lambda: MeasureSpec.power(1e308, 0.0, (-2.0, 2.0)),
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
        ),
    ],
    ids=["semicircle-variance", "uniform-b", "uniform-a", "power-b",
         "power-exponent", "power-center", "piecewise-edge", "piecewise-coeff",
         "power-mass-overflow"],
)
def test_nonfinite_params_rejected(make):
    # a NaN mass passed the mass check, and psi_t on a semicircle of
    # infinite variance never returned
    with pytest.raises(ConfigError):
        make()


# ---------------------------------------------------------------- quantiles

def test_uniform_quantiles_frozen():
    mu = MeasureSpec.uniform(-1.0, 1.0)
    q = quantiles(mu, 4)
    assert np.allclose(q, [-0.75, -0.25, 0.25, 0.75], atol=1e-12)


def test_power_quantiles_closed_form():
    # CDF = (1 + sgn(x)|x|^{3/2})/2 for kappa=1/2 on [-1,1];
    # n=2 levels 1/4, 3/4 invert to -/+ 2^{-2/3}
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    q = quantiles(mu, 2)
    assert np.allclose(q, [-(2.0 ** (-2.0 / 3.0)), 2.0 ** (-2.0 / 3.0)], atol=1e-12)


@pytest.mark.parametrize("kappa", [0.5, 2.0])
@pytest.mark.parametrize("n", [50, 200, 1000])
def test_power_quantiles_match_inverse_cdf(kappa, n):
    # CDF = (1 + sgn(x)|x|^{kappa+1})/2 on [-1, 1]; the bound is the solver's
    # stop rule on the bracket [-1, 1]
    mu = MeasureSpec.power(kappa, 0.0, (-1.0, 1.0))
    q = quantiles(mu, n)
    s = 2.0 * (np.arange(1, n + 1) - 0.5) / n - 1.0
    exact = np.sign(s) * np.abs(s) ** (1.0 / (kappa + 1.0))
    assert np.all(np.abs(q - exact) <= 2e-15 + 8.9e-16 * np.abs(q))


@pytest.mark.parametrize(
    "mu",
    [
        MeasureSpec.uniform(-1.0, 1.0),
        MeasureSpec.semicircle(1.0),
        MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)),
        MeasureSpec.piecewise([((-2.0, -1.0), (0.5,)), ((1.0, 2.0), (0.5,))]),
    ],
    ids=["uniform", "semicircle", "power-half", "two-blob"],
)
def test_quantiles_solve_all_levels_together(mu, monkeypatch):
    calls = []
    cdf = MeasureSpec.cdf

    def counted(self, x):
        calls.append(x)
        return cdf(self, x)

    monkeypatch.setattr(MeasureSpec, "cdf", counted)
    quantiles(mu, 200)
    assert len(calls) <= 32


def test_import_does_not_load_scipy():
    # neither the import nor the Lagrange route, kernel through Fredholm
    # determinant, loads scipy
    src = str(Path(dbmlab.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import dbmlab; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    route = str(Path(__file__).parent / "data" / "lagrange_route.py")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for args in (["-c", code], [route]):
        out = subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "False", args


def test_quantile_levels_hit_cdf():
    for mu in [
        MeasureSpec.semicircle(1.0),
        MeasureSpec.power(2.0, 0.0, (-1.0, 1.0)),
        MeasureSpec.uniform(0.0, 5.0),
    ]:
        n = 17
        q = quantiles(mu, n)
        levels = (np.arange(1, n + 1) - 0.5) / n
        assert np.all(np.diff(q) > 0)
        assert np.allclose(mu.cdf(q), levels, atol=1e-10)


def test_quantile_plateau_midpoint_and_flag():
    # Two separated uniform blobs; the median level falls inside the hole
    mu = MeasureSpec.piecewise([((-2.0, -1.0), (0.5,)), ((1.0, 2.0), (0.5,))])
    q, flags = quantiles(mu, 3, return_flags=True)
    assert q[1] == pytest.approx(0.0, abs=1e-12)  # midpoint of the hole
    assert flags[1]
    assert not flags[0] and not flags[2]


def test_quantile_warning_on_plateau():
    mu = MeasureSpec.piecewise([((-2.0, -1.0), (0.5,)), ((1.0, 2.0), (0.5,))])
    with pytest.warns(UserWarning):
        quantiles(mu, 3)


# ---------------------------------------------------------------- discrepancy stats

def test_rigidity_quantile_config_is_zero():
    mu = MeasureSpec.semicircle(1.0)
    pts = quantiles(mu, 32)
    assert rigidity(pts, mu) == pytest.approx(0.0, abs=1e-8)


def test_rigidity_equispaced_uniform_is_one():
    mu = MeasureSpec.uniform(-1.0, 1.0)
    for n in [8, 33, 100]:
        pts = np.linspace(-1.0, 1.0, n)
        assert rigidity(pts, mu) == pytest.approx(1.0, abs=1e-9)


def test_kolmogorov_quantile_config_exact():
    mu = MeasureSpec.uniform(-1.0, 1.0)
    n = 16
    pts = quantiles(mu, n)
    assert kolmogorov_distance(pts, mu) == pytest.approx(1.0 / 32.0, abs=1e-12)


def test_kolmogorov_shifted_points():
    # single atom at 0.5 against uniform[0,1]: sup|F_n - F| attained at the atom
    mu = MeasureSpec.uniform(0.0, 1.0)
    assert kolmogorov_distance(np.array([0.5]), mu) == pytest.approx(0.5, abs=1e-14)


# ---------------------------------------------------------------- gap insertion

def test_insert_gap_frozen_example():
    pts = np.array([-0.2, -0.05, 0.1, 0.4])
    out = insert_gap(pts, 0.0, 0.25)
    assert np.allclose(out, [-0.25, -0.25, 0.25, 0.4], atol=1e-15)


def test_insert_gap_center_tie_goes_left():
    out = insert_gap(np.array([0.3]), 0.3, 0.1)
    assert out[0] == pytest.approx(0.2, abs=1e-15)


def test_insert_gap_endpoints_untouched():
    pts = np.array([-0.25, 0.25])
    out = insert_gap(pts, 0.0, 0.25)
    assert np.allclose(out, pts)


@pytest.mark.parametrize(
    "x_star, half_width",
    [(math.nan, 0.3), (math.inf, 0.3), (0.0, math.nan), (0.0, math.inf), (0.0, 0.0), (0.0, -0.1)],
)
def test_insert_gap_rejects_a_bad_gap(x_star, half_width):
    # a NaN center or width compares false everywhere and would move no point
    with pytest.raises(ConfigError):
        insert_gap(np.array([-0.1, 0.1]), x_star, half_width)
    with pytest.raises(ConfigError):
        InitialConfiguration.equispaced(-1.0, 1.0, 10).with_gap(x_star, half_width)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40),
    st.floats(-1.5, 1.5),
    st.floats(0.01, 1.0),
)
def test_insert_gap_properties(raw, x_star, delta):
    pts = np.sort(np.asarray(raw, dtype=float))
    out = insert_gap(pts, x_star, delta)
    assert out.shape == pts.shape
    assert np.all(np.diff(out) >= 0)  # order preserved
    inside = np.abs(out - x_star) < delta - 1e-12
    assert not inside.any()  # nothing strictly inside the gap
    again = insert_gap(out, x_star, delta)
    assert np.array_equal(out, again)  # idempotent


# ---------------------------------------------------------------- configurations

def test_configuration_quantile_generator_reproducible():
    mu = MeasureSpec.semicircle(1.0)
    cfg = InitialConfiguration.from_quantiles(mu, 25)
    cfg2 = InitialConfiguration.from_quantiles(mu, 25)
    assert np.array_equal(cfg.points, cfg2.points)  # bit exact


def test_configuration_equispaced():
    cfg = InitialConfiguration.equispaced(-1.0, 1.0, 5)
    assert np.allclose(cfg.points, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_configuration_gap_generator_reproducible():
    cfg = InitialConfiguration.equispaced(-1.0, 1.0, 11).with_gap(0.0, 0.3)
    cfg2 = InitialConfiguration.equispaced(-1.0, 1.0, 11).with_gap(0.0, 0.3)
    assert np.array_equal(cfg.points, cfg2.points)
    assert not np.any(np.abs(cfg.points) < 0.3 - 1e-12)


def test_configuration_explicit_roundtrip_json():
    pts = np.array([-1.0, 0.1234567890123456, 2.5])
    cfg = InitialConfiguration.explicit(pts)
    # the points as a run's config.json stores them
    blob = json.dumps([float(p) for p in pts])
    cfg2 = InitialConfiguration.explicit(json.loads(blob))
    assert np.array_equal(cfg.points, cfg2.points)


BAD_POINT_SETS = {
    "empty": [],
    "nan": [0.0, math.nan],
    "inf": [math.inf],
    "2-d": np.zeros((2, 2)),
}
_WINDOW = dbmlab.make_window(MeasureSpec.uniform(-1.0, 1.0), 0.5, 0.0)
POINT_ENTRIES = {
    "explicit": InitialConfiguration.explicit,
    "KernelEvaluator": lambda p: dbmlab.KernelEvaluator(p, 0.5),
    "RescaledKernelFrame": lambda p: dbmlab.RescaledKernelFrame(p, 0.5, _WINDOW),
    "FreeConvolutionState": lambda p: dbmlab.FreeConvolutionState(p, 0.5),
    "sample_spectra": lambda p: dbmlab.sample_spectra(p, 0.5, 4, threads=1),
    "dbm_paths": lambda p: dbmlab.dbm_paths(p, [0.0, 0.5], 0),
    "rigidity": lambda p: rigidity(p, MeasureSpec.uniform(-1.0, 1.0)),
    "kolmogorov_distance": lambda p: kolmogorov_distance(p, MeasureSpec.uniform(-1.0, 1.0)),
}


@pytest.mark.parametrize("points", BAD_POINT_SETS.values(), ids=BAD_POINT_SETS)
@pytest.mark.parametrize("enter", POINT_ENTRIES.values(), ids=POINT_ENTRIES)
def test_bad_point_set_rejected_where_it_enters(enter, points, monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve reached with a bad point set")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    with pytest.raises(ConfigError):
        enter(points)


def test_empirical_measure_sorted_and_cdf():
    emp = InitialConfiguration(np.array([0.5, -0.5]))
    assert emp.empirical() is emp
    assert not emp.points.flags.writeable
    assert np.all(np.diff(emp.points) >= 0)
    assert emp.cdf(0.0) == pytest.approx(0.5)
    assert emp.cdf(-1.0) == 0.0
    assert emp.cdf(1.0) == 1.0


def test_scalar_in_float_out_array_keeps_shape():
    mu = MeasureSpec.semicircle(1.0)
    emp = InitialConfiguration(np.array([0.5, -0.5]))
    grid = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    for f in (mu.density, mu.cdf, emp.cdf):
        assert type(f(0.25)) is float
        assert f(grid).shape == (2, 3)
        assert f(grid)[1, 2] == f(1.0)
