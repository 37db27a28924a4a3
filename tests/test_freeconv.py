import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbmlab import freeconv
from dbmlab.errors import ConfigError, OutsideDomain, PrincipalValueRequired
from dbmlab.freeconv import (
    FreeConvolutionState,
    Window,
    forward_map,
    gap_window,
    hilbert_transform,
    H_map,
    inverse_map,
    make_window,
    psi_t,
    second_moment_integral,
    stieltjes,
    t_critical,
    window_scale,
    y_t,
)
from dbmlab.measures import (
    InitialConfiguration,
    MeasureSpec,
    kolmogorov_distance,
)

UNIFORM = MeasureSpec.uniform(-1.0, 1.0)
SEMI = MeasureSpec.semicircle(1.0)


# ---------------------------------------------------------------- stieltjes

def test_stieltjes_two_atoms_at_i():
    emp = InitialConfiguration(np.array([-1.0, 1.0]))
    val = stieltjes(emp, 1j)
    assert val == pytest.approx(-0.5j, abs=1e-15)


def test_stieltjes_semicircle_closed_form():
    # (z - sqrt(z^2 - 4)) / 2 at z = 3
    assert stieltjes(SEMI, 3.0) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert stieltjes(SEMI, -3.0) == pytest.approx(-(3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)


@pytest.mark.parametrize("v", [1.0, 0.37])
@pytest.mark.parametrize("x", [1e6, 1e8, -1e8])
def test_stieltjes_semicircle_far_on_the_axis(v, x):
    # G = 1/x + v/x^3 + 2v^2/x^5 + ... and -G' = 1/x^2 + 3v/x^4 + ...;
    # (z - w)/(2v) cancels out here (49% off at 1e8 for v = 1), 2/(z + w)
    # does not
    mu = MeasureSpec.semicircle(v)
    ref = 1.0 / x + v / x**3
    assert abs(stieltjes(mu, x) - ref) <= 1e-14 * abs(ref)
    ref = 1.0 / x**2 + 3.0 * v / x**4
    assert abs(second_moment_integral(mu, x) - ref) <= 1e-14 * ref


def test_stieltjes_uniform_log_ratio():
    z = 2.0 + 0.5j
    expected = 0.5 * (np.log(z + 1.0) - np.log(z - 1.0))
    assert stieltjes(UNIFORM, z) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("x, y", [(1.2247, 1e-15), (1.2247, 1e-10), (1.05, 1e-8)])
def test_stieltjes_uniform_imag_is_mirror_symmetric(x, y):
    # left of the support the two arguments of the logs are both near pi
    right = stieltjes(UNIFORM, complex(x, y)).imag
    left = stieltjes(UNIFORM, complex(-x, y)).imag
    assert abs(left - right) <= 1e-13 * abs(right)


def test_stieltjes_herglotz_sign():
    for mu in [UNIFORM, SEMI, MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))]:
        val = stieltjes(mu, 0.3 + 0.2j)
        assert val.imag < 0.0


def test_stieltjes_power_matches_adaptive_quad():
    from scipy.integrate import quad

    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    z = 0.4 + 0.05j
    re, _ = quad(lambda s: mu.density(s) * ((z - s).real) / abs(z - s) ** 2, -1, 1, points=[0.0, 0.4], limit=200)
    im, _ = quad(lambda s: mu.density(s) * (-(z - s).imag) / abs(z - s) ** 2, -1, 1, points=[0.0, 0.4], limit=200)
    val = stieltjes(mu, z)
    assert val.real == pytest.approx(re, abs=1e-10)
    assert val.imag == pytest.approx(im, abs=1e-10)


def test_stieltjes_on_support_requires_pv():
    with pytest.raises(PrincipalValueRequired):
        stieltjes(UNIFORM, 0.5)
    with pytest.raises(PrincipalValueRequired):
        stieltjes(InitialConfiguration(np.array([0.0, 1.0])), 1.0)


def test_stieltjes_empirical_compensated_sum_scale():
    # 10^4 atoms; worst-case naive summation noise would exceed this bound
    pts = np.linspace(-1.0, 1.0, 10_000)
    val = stieltjes(InitialConfiguration(pts), 2.0)
    exact = np.sum(1.0 / (2.0 - pts)) / pts.size
    assert val == pytest.approx(exact, abs=1e-13)


# ---------------------------------------------------------------- hilbert transform

def test_hilbert_uniform_inside():
    assert hilbert_transform(UNIFORM, 0.5) == pytest.approx(0.5 * math.log(3.0), abs=1e-10)


def test_hilbert_uniform_outside():
    assert hilbert_transform(UNIFORM, 2.0) == pytest.approx(0.5 * math.log(3.0), abs=1e-10)


def test_hilbert_semicircle_inside():
    # principal value of the semicircle resolvent on support is x/2
    assert hilbert_transform(SEMI, 0.6) == pytest.approx(0.3, abs=1e-10)


def test_hilbert_symmetric_power_center_is_zero():
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    assert hilbert_transform(mu, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_hilbert_piecewise_excision_matches_log_ratio():
    # the uniform density as a piecewise block takes the single-excision
    # route: the band integral and graded stretches, against the closed form
    mu = MeasureSpec.piecewise([((-1.0, 1.0), (0.5,))])
    assert hilbert_transform(mu, 0.5) == pytest.approx(0.5 * math.log(3.0), abs=1e-13)
    assert hilbert_transform(mu, -0.25) == pytest.approx(
        0.5 * math.log(0.75 / 1.25), abs=1e-13
    )


def test_hilbert_raises_where_the_density_jumps_at_a_shared_edge():
    # -s on [-1, 0] and 1/2 on [0, 1]: 0 from the left, 1/2 from the right
    # at x = 0, where the integral diverges like log
    mu = MeasureSpec.piecewise([((-1.0, 0.0), (0.0, -1.0)), ((0.0, 1.0), (0.5,))])
    for x in (0.0, 1.0):
        with pytest.raises(ValueError):
            hilbert_transform(mu, x)


def test_hilbert_continuous_join_is_a_principal_value():
    # the tent 1 - |s| joins continuously at 0, where it is odd about x = 0;
    # 1/2 + s/2 on both pieces gives (1 + x)/2 log((1 + x)/(1 - x)) - 1
    tent = MeasureSpec.piecewise([((-1.0, 0.0), (1.0, 1.0)), ((0.0, 1.0), (1.0, -1.0))])
    assert hilbert_transform(tent, 0.0) == 0.0
    assert hilbert_transform(tent, -1.0) == pytest.approx(-math.log(4.0), abs=1e-13)
    line = MeasureSpec.piecewise([((-1.0, 0.0), (0.5, 0.5)), ((0.0, 1.0), (0.5, 0.5))])
    for x in (0.0, -0.5, 0.5):
        ref = 0.5 * (1.0 + x) * math.log((1.0 + x) / (1.0 - x)) - 1.0
        assert hilbert_transform(line, x) == pytest.approx(ref, abs=1e-13), x


def test_hilbert_empirical_off_atoms():
    emp = InitialConfiguration(np.array([-1.0, 1.0]))
    assert hilbert_transform(emp, 0.5) == pytest.approx(
        0.5 * (1.0 / 1.5 + 1.0 / (-0.5)), abs=1e-14
    )
    with pytest.raises(ValueError):
        hilbert_transform(emp, 1.0)


# ---------------------------------------------------------------- second moment / t_critical

def test_second_moment_uniform_outside():
    # int ds / (2 (2-s)^2) over [-1,1] = 1/3
    assert second_moment_integral(UNIFORM, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_t_critical_uniform():
    assert t_critical(UNIFORM, 2.0) == pytest.approx(3.0, abs=1e-8)
    assert t_critical(UNIFORM, 0.0) == 0.0
    assert t_critical(UNIFORM, 1.0) == 0.0  # endpoint, one-sided divergence


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_t_critical_nonfinite_point_rejected(x):
    # a NaN x* compared false everywhere and read as a critical time of 0
    with pytest.raises(ConfigError):
        t_critical(UNIFORM, x)
    with pytest.raises(ConfigError):
        second_moment_integral(InitialConfiguration.explicit([-1.0, 1.0]), x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_nonfinite_x_rejected(x):
    # each once gave a number or a wrong error: a window with x*_t = nan,
    # OutsideDomain, a height of 0, a forward image or Hilbert transform nan
    cfg = InitialConfiguration.equispaced(-1.0, 1.0, 40).with_gap(0.0, 0.3)
    state = FreeConvolutionState(cfg, 0.5)
    calls = [
        lambda: gap_window(cfg, 0.01 * 0.3**2, x, 0.03),
        lambda: make_window(UNIFORM, 0.5, x),
        lambda: y_t(state, x),
        lambda: forward_map(state, x),
        lambda: forward_map(state, np.array([0.0, x])),
        lambda: hilbert_transform(UNIFORM, x),
        lambda: hilbert_transform(cfg, x),
        lambda: inverse_map(state, x),
        lambda: stieltjes(UNIFORM, x),
        lambda: stieltjes(UNIFORM, complex(0.2, x)),
        lambda: H_map(state, complex(0.1, x)),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="must be finite"):
            call()


def test_t_critical_power_quadratic_center():
    mu = MeasureSpec.power(2.0, 0.0, (-1.0, 1.0))
    assert t_critical(mu, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert t_critical(mu, 0.5) == 0.0  # positive density there


def test_t_critical_power_soft_exponent_is_zero():
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    assert t_critical(mu, 0.0) == 0.0  # kappa <= 1: divergent


def test_t_critical_semicircle_outside():
    expected = (5.0 + 3.0 * math.sqrt(5.0)) / 2.0  # 1 / (-G'(3))
    assert t_critical(SEMI, 3.0) == pytest.approx(expected, abs=1e-8)


def test_t_critical_piecewise_quartic_center():
    # density 2.5 x^4 on [-1,1]: int 2.5 x^2 dx = 5/3, t_cr = 0.6
    mu = MeasureSpec.piecewise([((-1.0, 1.0), (0.0, 0.0, 0.0, 0.0, 2.5))])
    assert t_critical(mu, 0.0) == pytest.approx(0.6, abs=1e-8)


# ---------------------------------------------------------------- subordination height

def test_y_t_semicircle_closed_form():
    # y_{t,sc}(0) = t / sqrt(1+t)
    assert y_t(SEMI, 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)
    assert y_t(SEMI, 0.5, 0.0) == pytest.approx(0.5 / math.sqrt(1.5), abs=1e-10)


def test_y_t_single_atom():
    emp = InitialConfiguration(np.array([0.0]))
    assert y_t(emp, 1.0, 0.0) == pytest.approx(1.0, abs=1e-10)
    # off the atom: 1/((x)^2+y^2) = 1 at x=0.6 -> y = 0.8
    assert y_t(emp, 1.0, 0.6) == pytest.approx(0.8, abs=1e-10)


def test_y_t_zero_off_support():
    assert y_t(UNIFORM, 0.04, 1.5) == 0.0


def test_y_t_root_property():
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    t, x = 0.3, 0.2
    y = y_t(mu, t, x)
    assert 0.0 < y < math.sqrt(t)
    val = -(stieltjes(mu, x + 1j * y).imag) / y
    assert val == pytest.approx(1.0 / t, rel=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(-1.5, 1.5))
def test_y_t_bounds_property(t, x):
    y = y_t(SEMI, t, x)
    assert 0.0 <= y <= math.sqrt(t) + 1e-12
    if abs(x) >= 2.0 + math.sqrt(t):
        assert y == 0.0


def test_y_t_grows_with_t():
    xs = [0.0, 0.5, 1.1]
    for x in xs:
        y1 = y_t(UNIFORM, 0.2, x)
        y2 = y_t(UNIFORM, 0.8, x)
        assert y2 > y1 - 1e-12


def _bisected_heights(lorentz, t, xs):
    """Reference profile: 60 bisection sweeps of y on [0, sqrt(t)] per point."""
    root_t = math.sqrt(t)
    out = np.zeros(len(xs))
    for i, x in enumerate(xs):
        if not lorentz(x, root_t * 1e-14) > 1.0 / t:
            continue
        lo, hi = 0.0, root_t
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if lorentz(x, mid) > 1.0 / t:
                lo = mid
            else:
                hi = mid
        out[i] = 0.5 * (lo + hi)
    return out


def _atomic_case(points, t):
    pts = np.asarray(points, dtype=float)
    xs = np.concatenate([pts, 0.5 * (pts[1:] + pts[:-1]), np.linspace(-1.5, 1.5, 61)])

    def lorentz(x, y):
        return float(np.mean(1.0 / ((x - pts) ** 2 + y * y)))

    return InitialConfiguration(pts), t, xs, lorentz


def _closed_case(mu, t, xs):
    def lorentz(x, y):
        return -stieltjes(mu, complex(x, y)).imag / y

    return mu, t, np.asarray(xs, dtype=float), lorentz


def _power_case(kappa, t):
    mu = MeasureSpec.power(kappa, 0.0, (-1.0, 1.0))
    return _closed_case(mu, t, np.linspace(-1.5, 1.5, 61))


@pytest.mark.parametrize(
    "case",
    [
        # bulk, then separated lumps: x on atoms, between them, off the support
        lambda: _atomic_case(
            InitialConfiguration.from_quantiles(UNIFORM, 50).points, 0.5
        ),
        lambda: _atomic_case(
            InitialConfiguration.equispaced(-1.0, 1.0, 40).with_gap(0.0, 0.3).points,
            0.01 * 0.3**2,
        ),
        # 660 points, more than the 436 rows of one block of (x - s)^2 at n = 300
        lambda: _atomic_case(
            InitialConfiguration.from_quantiles(UNIFORM, 300).points, 0.5
        ),
        lambda: _closed_case(SEMI, 0.3, np.linspace(-3.0, 3.0, 61)),
        # points outside [-1, 1] with positive heights, where Newton starts
        # far below their distance to the support
        lambda: _closed_case(
            UNIFORM,
            0.5,
            np.append(np.linspace(-1.3, 1.3, 53), [-1.224, -1.21, -1.01, 1.001]),
        ),
        lambda: _power_case(0.5, 0.2285),
        # narrow Lorentzians: heights far below the spacing of a shared rule
        lambda: _power_case(0.5, 1e-3),
        lambda: _power_case(2.0, 0.05),
    ],
    ids=[
        "atoms-bulk",
        "atoms-gap",
        "atoms-many-rows",
        "semicircle",
        "uniform",
        "power-half",
        "power-half-small-t",
        "power-two",
    ],
)
def test_y_profile_matches_bisection(case):
    mu, t, xs, lorentz = case()
    got = FreeConvolutionState(mu, t)._y_profile(xs)
    ref = _bisected_heights(lorentz, t, xs)
    np.testing.assert_array_equal(got == 0.0, ref == 0.0)
    assert 0.0 < np.count_nonzero(ref) < xs.size
    assert np.max(np.abs(got - ref)) <= 1e-14 * math.sqrt(t)


# ---------------------------------------------------------------- maps

def test_H_map_single_atom():
    emp = InitialConfiguration(np.array([0.0]))
    assert H_map(emp, 1.0, 1j) == pytest.approx(0.0, abs=1e-12)


def test_H_map_outside_domain():
    emp = InitialConfiguration(np.array([0.0]))
    with pytest.raises(OutsideDomain):
        H_map(emp, 1.0, 0.5j)  # graph height at 0 is 1


def test_forward_map_uniform_frozen():
    expected = 2.0 + 0.25 * 0.5 * math.log(3.0)
    assert forward_map(UNIFORM, 0.25, 2.0) == pytest.approx(expected, abs=1e-10)


def test_forward_map_moves_less_than_sqrt_t():
    for mu in [UNIFORM, SEMI]:
        for t in [0.1, 0.5, 1.0]:
            for x in [-1.2, 0.0, 0.7, 2.5]:
                assert abs(forward_map(mu, t, x) - x) <= math.sqrt(t) + 1e-10


def test_forward_map_is_increasing():
    xs = np.linspace(-2.5, 2.5, 41)
    vals = [forward_map(SEMI, 0.7, x) for x in xs]
    assert np.all(np.diff(vals) > 0)


def test_inverse_map_roundtrip():
    state = FreeConvolutionState(SEMI, 0.5)
    for x in [-1.5, -0.3, 0.0, 0.9, 2.2]:
        xi = state.forward(x)
        z = state.inverse(xi)
        assert z.real == pytest.approx(x, abs=1e-8)
        assert abs(state.H_raw(z) - xi) <= 1e-10 * max(1.0, abs(xi))


def test_inverse_map_wrapper():
    z = inverse_map(SEMI, 1.0, 0.0)
    assert z == pytest.approx(1j / math.sqrt(2.0), abs=1e-9)


def test_inverse_map_far_outside():
    # far beyond the support the map is near-identity; round trip must hold
    state = FreeConvolutionState(UNIFORM, 0.1)
    z = state.inverse(50.0)
    assert z.imag == 0.0
    assert abs(state.H_raw(z) - 50.0) <= 1e-10 * 50.0
    with pytest.raises(ValueError):
        state.inverse(float("nan"))


@pytest.mark.parametrize("name", ["uniform", "semicircle", "power-half", "atoms"])
def test_inverse_beyond_the_graph(name):
    # xi itself closes a bracket beyond the graph's range, where y = 0 and
    # H(x) - x = t G(x) has the sign of x - hull
    mu = {
        "uniform": UNIFORM,
        "semicircle": SEMI,
        "power-half": MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)),
        "atoms": InitialConfiguration.from_quantiles(UNIFORM, 50),
    }[name]
    state = FreeConvolutionState(mu, 0.3)
    g = state._ensure_graph()
    xi = np.array([-1e12, -1e6, -40.0, 40.0, 1e6, 1e12])
    assert np.all((xi < g.hs[0]) | (xi > g.hs_mono[-1]))
    zs = state.inverse(xi)
    assert np.all(zs.imag == 0.0)
    for z, x in zip(zs, xi):
        assert abs(state.H_raw(complex(z)) - x) <= freeconv._XTOL + freeconv._RTOL * abs(x)
    assert np.all(psi_t(state, xi) == 0.0)


def test_psi_weak_continuity_small_t():
    # as t -> 0 the evolved density approaches the initial one
    assert psi_t(UNIFORM, 1e-4, 0.0) == pytest.approx(0.5, abs=1e-2)


# ---------------------------------------------------------------- psi

def test_psi_semicircle_at_center():
    assert psi_t(SEMI, 1.0, 0.0) == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), abs=1e-10)


def test_psi_semicircle_oracle_spot_checks():
    # free convolution of two semicircles is the semicircle with added variance
    t = 0.5
    target = MeasureSpec.semicircle(1.0 + t)
    state = FreeConvolutionState(SEMI, t)
    for xi in [-2.0, -0.7, 0.0, 0.4, 1.9]:
        assert state.psi(xi) == pytest.approx(target.density(xi), abs=1e-9)


def test_psi_zero_outside():
    assert psi_t(SEMI, 1.0, 4.0) == 0.0


def test_psi_parametric_identity():
    # psi_t(H(x + i y(x))) = y(x) / (pi t), the two routes must agree
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    state = FreeConvolutionState(mu, 0.4)
    for x in [-0.6, 0.0, 0.35]:
        y = state.y(x)
        assert y > 0
        xi = state.forward(x)
        assert state.psi(xi) == pytest.approx(y / (math.pi * 0.4), abs=1e-8)


def test_psi_parametric_identity_small_t():
    # at small t the heights near the support edges are far below the
    # spacing of any one quadrature shared by all points
    t = 1e-3
    state = FreeConvolutionState(MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)), t)
    for x in [-0.9, 0.02, 0.5]:
        expected = state.y(x) / (math.pi * t)
        assert state.psi(state.forward(x)) == pytest.approx(expected, rel=1e-8)


# ---------------------------------------------------------------- proof-grade bounds

def test_resolvent_bound_on_graph():
    # |G(x + i y_t(x))| <= 1 / sqrt(t) on the closed subordination graph
    for mu in [UNIFORM, SEMI]:
        for t in [0.3, 1.0]:
            for x in np.linspace(-2.5, 2.5, 21):
                y = y_t(mu, t, x)
                z = x + 1j * max(y, 1e-14)
                if y == 0.0 and abs(mu.cdf(x) - 0.5) < 0.5 - 1e-12:
                    continue  # on-support real point, resolvent needs PV there
                val = stieltjes(mu, z) if y > 0 else stieltjes(mu, x)
                assert abs(val) <= 1.0 / math.sqrt(t) + 1e-9


def test_empirical_vs_limit_resolvent_comparison():
    # |G_n(x + i eps) - G(x + i eps)| <= pi * n * KS / (n * eps)
    n = 50
    cfg = InitialConfiguration.from_quantiles(UNIFORM, n)
    emp = cfg.empirical()
    ks = kolmogorov_distance(cfg.points, UNIFORM)
    m_tilde = n * ks
    for eps in [0.1, 0.01]:
        bound = math.pi * m_tilde / (n * eps)
        for x in [-0.9, -0.2, 0.0, 0.55, 1.3]:
            diff = abs(stieltjes(emp, x + 1j * eps) - stieltjes(UNIFORM, x + 1j * eps))
            assert diff <= bound + 1e-12


def test_graph_is_real_under_H():
    # Im H(x + i y_t(x)) vanishes along the graph
    state = FreeConvolutionState(SEMI, 0.8)
    for x in np.linspace(-2.2, 2.2, 23):
        y = state.y(x)
        if y == 0.0:
            continue
        val = state.H_raw(x + 1j * y)
        assert abs(val.imag) <= 1e-9


# ---------------------------------------------------------------- windows and saddles

def test_bulk_window_semicircle():
    w = make_window(SEMI, 1.0, 0.0)
    assert w.x_star_t == pytest.approx(0.0, abs=1e-10)
    assert w.c_t == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), abs=1e-10)
    assert w.epsilon is None


def test_window_consistency_with_psi():
    w = make_window(UNIFORM, 0.5, 0.2)
    assert psi_t(UNIFORM, 0.5, w.x_star_t) == pytest.approx(w.c_t, abs=1e-8)


def test_bulk_window_rejected_in_gap():
    emp = InitialConfiguration(np.array([-2.0, -1.5, 1.5, 2.0]))
    with pytest.raises(OutsideDomain):
        make_window(emp, 0.01, 0.0)


def test_gap_window():
    cfg = InitialConfiguration.equispaced(-1.0, 1.0, 40).with_gap(0.0, 0.3)
    t = 0.0009
    w = gap_window(cfg, t, 0.0, epsilon=0.03)
    assert w.c_t is None
    assert w.epsilon == 0.03
    g = stieltjes(cfg.empirical(), 0.0)
    assert g.imag == 0.0
    assert w.x_star_t == pytest.approx(t * g.real, abs=1e-10)


def test_gap_window_rejected_in_bulk():
    cfg = InitialConfiguration.equispaced(-1.0, 1.0, 40)
    with pytest.raises(OutsideDomain):
        gap_window(cfg, 0.5, 0.0, epsilon=0.1)


def test_saddle_single_atom_frozen():
    cfg = InitialConfiguration.explicit(np.array([0.0]))
    w = make_window(cfg.empirical(), 1.0, 0.0)
    state = FreeConvolutionState(cfg.empirical(), 1.0)
    z = inverse_map(state, w.x_star_t)
    assert z == pytest.approx(1j, abs=1e-9)
    assert z.real == pytest.approx(0.0, abs=1e-9)
    assert z.imag == pytest.approx(1.0, abs=1e-9)
    assert abs(state.H_raw(z) - w.x_star_t) <= 1e-9 * max(1.0, abs(w.x_star_t))


def _saddles(cfg, t, window, us):
    """Saddles F(x*_t + h u) of the frame's contours, and their state."""
    state = FreeConvolutionState(cfg.empirical(), t)
    xi = window.x_star_t + window_scale(window, cfg.n) * np.asarray(us)
    return state, xi, inverse_map(state, xi)


def test_saddle_residual_bulk():
    cfg = InitialConfiguration.from_quantiles(UNIFORM, 50)
    w = make_window(UNIFORM, 0.5, 0.0)
    state, xi, zs = _saddles(cfg, 0.5, w, [1.0, -2.0])
    for z, x in zip(zs, xi):
        assert abs(state.H_raw(complex(z)) - x) / max(1.0, abs(x)) <= 1e-9
    assert zs[0].imag > 0
    # saddles sit on the empirical graph
    for z in zs:
        assert state.y(z.real) == pytest.approx(z.imag, abs=1e-9)


def test_gap_saddles_are_real():
    cfg = InitialConfiguration.equispaced(-1.0, 1.0, 200).with_gap(0.0, 0.3)
    t = 0.01 * 0.3**2
    w = gap_window(cfg, t, 0.0, epsilon=0.03)
    _, _, zs = _saddles(cfg, t, w, [2.0, -2.0])
    assert np.all(zs.imag == 0.0)


# ---------------------------------------------------------------- array inverse map

ARRAY_CASES = {
    "power-half": MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)),
    "semicircle": SEMI,
    "atoms": InitialConfiguration.from_quantiles(UNIFORM, 20).empirical(),
}


@pytest.mark.parametrize("name", list(ARRAY_CASES))
def test_array_inverse_matches_scalar(name):
    # one array solve and one solve per point agree, tails and xi = 50 included
    state = FreeConvolutionState(ARRAY_CASES[name], 0.3)
    xi = np.concatenate([np.linspace(-3.0, 3.0, 25), [-50.0, 50.0]])
    zs = inverse_map(state, xi)
    psi = psi_t(state, xi)
    assert zs.shape == psi.shape == xi.shape
    for k, x in enumerate(xi):
        z = inverse_map(state, float(x))
        assert isinstance(z, complex)
        assert abs(zs[k] - z) <= 1e-12 * max(1.0, abs(z))
        assert abs(psi[k] - psi_t(state, float(x))) <= 1e-12
    assert np.all(psi[[0, -2, -1]] == 0.0)


def test_inverse_residual_on_density_grid():
    # the 201 points dbmlab density evaluates for kappa = 1/2
    t = 0.22845186424458322
    state = FreeConvolutionState(MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)), t)
    pad = 2.0 * math.sqrt(t)
    xi = np.linspace(-1.0 - pad, 1.0 + pad, 201)
    for z, x in zip(inverse_map(state, xi), xi):
        assert abs(state.H_raw(complex(z)) - x) <= 1e-10 * max(1.0, abs(x))


def test_density_grid_matches_stored_psi():
    # psi at the 201 points dbmlab density evaluates for kappa = 1/2, against
    # density.csv as that command wrote it with panel rules graded by halves
    table = np.loadtxt(
        Path(__file__).parent / "data" / "density_power.csv", delimiter=",", skiprows=1
    )
    state = FreeConvolutionState(MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)), 0.22845186424458322)
    assert table.shape == (201, 2)
    assert np.max(np.abs(psi_t(state, table[:, 0]) - table[:, 1])) <= 1e-12


def test_density_grid_root_solve_evaluations():
    # the 201 points dbmlab density evaluates for kappa = 1/2: a thin graph,
    # and a root solve started from the monotone cubic of it
    t = 0.22845186424458322
    state = FreeConvolutionState(MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)), t)
    pad = 2.0 * math.sqrt(t)
    xi = np.linspace(-1.0 - pad, 1.0 + pad, 201)
    assert state._ensure_graph().xs.size < 500
    evaluated = []
    h_graph = state._h_graph
    state._h_graph = lambda x: evaluated.append(x.size) or h_graph(x)
    state.psi(xi)
    assert sum(evaluated) <= 3.8 * xi.size


def test_monotone_cubic_exact_on_linear_data():
    nodes = np.array([-2.0, -0.5, 0.0, 0.1, 3.0])
    values = 2.5 * nodes - 1.0
    q = np.linspace(-2.0, 3.0, 41)
    assert np.allclose(freeconv._monotone_cubic(nodes, values, q), 2.5 * q - 1.0, rtol=0, atol=1e-14)


def test_monotone_cubic_does_not_overshoot():
    # a step between flat stretches: an unlimited cubic rises above 1 and
    # dips below 0 next to the jump
    nodes = np.arange(8.0)
    values = np.array([0.0, 0.0, 0.0, 0.01, 0.99, 1.0, 1.0, 1.0])
    q = np.linspace(0.0, 7.0, 701)
    got = freeconv._monotone_cubic(nodes, values, q)
    assert np.all(np.diff(got) >= 0.0)
    k = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, nodes.size - 2)
    assert np.all((got >= values[k]) & (got <= values[k + 1]))


def test_inverse_on_a_graph_where_H_dips():
    # H dips along the graph between repeated atoms; the cubic takes only
    # points where its running maximum rises, so no secant divides by zero
    pts = InitialConfiguration.from_quantiles(UNIFORM, 50).points.copy()
    pts[11] = pts[10]
    pts[31] = pts[32] = pts[30]
    state = FreeConvolutionState(pts, 0.5)
    g = state._ensure_graph()
    assert np.any(np.diff(g.hs) < 0.0)
    xi = np.linspace(-1.5, 1.5, 61)
    for z, x in zip(inverse_map(state, xi), xi):
        assert abs(state.H_raw(complex(z)) - x) <= 1e-10 * max(1.0, abs(x))


# ---------------------------------------------------------------- graph points

# two pieces with a gap around 0, where the graph sits on the axis at t = 0.01
GAPPED = MeasureSpec.piecewise([((-1.0, -0.5), (1.0,)), ((0.5, 1.0), (1.0,))])


@pytest.mark.parametrize(
    "mu, t",
    [
        *((InitialConfiguration.from_quantiles(MeasureSpec.uniform(-1.0, 1.0), n), 0.5)
          for n in (50, 100, 200)),
        (MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)), 0.2285),
    ],
    ids=["uniform-n50", "uniform-n100", "uniform-n200", "power-half"],
)
def test_heights_do_not_depend_on_the_batch(mu, t):
    # every sum reduces its own row, so a height, and G at it, is bitwise a
    # function of its x: solved with 428 other points or on its own, it is
    # the same double
    state = FreeConvolutionState(mu, t)
    xs = np.linspace(-1.6, 1.6, 429)
    ys, g = state._graph_points(xs)
    np.testing.assert_array_equal(state._y_profile(xs), ys)
    for k in range(xs.size):
        y1, g1 = state._graph_points(xs[k : k + 1])
        assert state._y_profile(xs[k : k + 1]) == y1 == ys[k], xs[k]
        assert g1 == g[k], xs[k]


def _seeded_cases():
    half = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    gapped = InitialConfiguration.equispaced(-1.0, 1.0, 100).with_gap(0.0, 0.3)
    gap40 = InitialConfiguration.equispaced(-1.0, 1.0, 40).with_gap(0.0, 0.3)
    return [
        *((InitialConfiguration.from_quantiles(UNIFORM, n), 0.5) for n in (50, 200)),
        # kappa = 1/2 at criterion 7's t_n and below threshold
        (InitialConfiguration.from_quantiles(half, 50), 0.05 * 50 ** (-1 / 3) * math.log(50) ** 2),
        (InitialConfiguration.from_quantiles(half, 50), 50 ** (-2 / 3)),
        # bench/configs/gap.conf, and the n = 40 gap at t = 0.015
        (gapped, 0.01 * 0.3**2),
        (gap40, 0.015),
    ]


@pytest.mark.parametrize(
    "cfg, t", _seeded_cases(),
    ids=["uniform-n50", "uniform-n200", "half-t_n", "half-sub", "gap-conf", "gap-n40"],
)
def test_seeded_heights_match_an_unseeded_solve(cfg, t):
    # a start from the seed table, on either side of the root, ends where
    # the start at sqrt(t) _Y_START ends, to rounding, with the same zeros
    state = FreeConvolutionState(cfg, t)
    xs = np.linspace(-1.8, 1.8, 3001)
    seeded = state._y_profile(xs)
    cold = state._row_points(xs, False, seeded=False)[0]
    np.testing.assert_array_equal(seeded == 0.0, cold == 0.0)
    assert np.count_nonzero(cold) > 0 and np.count_nonzero(cold == 0.0) > 0
    pos = cold > 0.0
    assert np.max(np.abs(seeded - cold)[pos] / cold[pos]) <= 1e-12


def test_seed_table_is_lazy_and_a_function_of_points_and_t():
    # no table until the first height; then 129 heights solved from the
    # start height over the graph's range, the same for every state of
    # (points, t), so heights do not depend on what the state did before
    cfg = InitialConfiguration.from_quantiles(UNIFORM, 100)
    state = FreeConvolutionState(cfg, 0.5)
    assert state._seeds is None
    state._ensure_graph()
    xs = np.linspace(-1.6, 1.6, 97)
    after_graph = state._y_profile(xs)
    grid, heights = state._seeds
    lo, hi, _ = state._graph_range()
    assert grid.size == freeconv._SEED_POINTS and grid[0] == lo and grid[-1] == hi
    np.testing.assert_array_equal(heights, state._row_points(grid, False, seeded=False)[0])
    fresh = FreeConvolutionState(cfg, 0.5)
    np.testing.assert_array_equal(fresh._y_profile(xs), after_graph)
    np.testing.assert_array_equal(fresh._seeds[1], heights)


def test_seeded_heights_start_on_either_side():
    # a start at twice the root, at the root, and one on a point of height
    # 0 give the root, the root and 0
    cfg = InitialConfiguration.from_quantiles(UNIFORM, 50)
    t = 0.5
    state = FreeConvolutionState(cfg, t)
    xs = np.array([-0.5, 1.2, 2.5])
    root = state._row_points(xs, False, seeded=False)[0]
    assert root[0] > 0.0 and root[1] > 0.0 and root[2] == 0.0
    pts = cfg.points
    dx2 = (xs[:, None] - pts[None, :]) ** 2
    weights = np.full((1, pts.size), 1.0 / pts.size)

    def sums(i, big_y):
        return freeconv._row_lorentz_sums(dx2[i], weights, big_y)

    got = freeconv._newton_heights(sums, t, xs.size, np.array([2.0 * root[0], root[1], 0.1]))
    assert got[2] == 0.0
    np.testing.assert_allclose(got[:2], root[:2], rtol=1e-13, atol=0.0)


def test_batched_graph_points_match_single_points():
    # rows padded to the widest rule must add nothing, also at x = 0, y = 0
    state = FreeConvolutionState(GAPPED, 0.01)
    xs = np.array([0.0, 0.7, -0.75, 0.3, 1.2])
    assert np.all(np.isfinite(state._h_graph(xs)))
    ys, g = state._graph_points(xs)
    assert ys[0] == ys[3] == 0.0 and ys[1] > 0.0
    assert np.all(np.isfinite(g))
    for k, x in enumerate(xs):
        y1, g1 = state._graph_points(np.array([x]))
        assert y1[0] == ys[k]
        assert abs(g1[0] - g[k]) <= 1e-14 * max(1.0, abs(g[k]))


@pytest.mark.parametrize(
    "mu, t",
    [
        (MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)), 0.2285),
        (MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)), 1e-3),
        (MeasureSpec.power(2.0, 0.0, (-1.0, 1.0)), 0.05),
        (GAPPED, 0.01),
    ],
    ids=["power-half", "power-half-small-t", "power-two", "gapped"],
)
def test_graph_points_g_matches_stieltjes(mu, t):
    # G on the rule graded at Newton's start height against stieltjes, which
    # grades its own rule at the final height; 60 points miss x = 0, where
    # the gapped measure's G vanishes
    xs = np.linspace(-1.5, 1.5, 60)
    ys, g = FreeConvolutionState(mu, t)._graph_points(xs)
    pinched = (ys == 0.0) & np.array([freeconv._support_distance(mu, x) == 0.0 for x in xs])
    assert np.count_nonzero(ys) > 0
    for x, y, got in zip(xs[~pinched], ys[~pinched], g[~pinched]):
        ref = stieltjes(mu, complex(x, y))
        assert abs(got - ref) <= 1e-12 * abs(ref), (x, y)


def count_rule_rows(monkeypatch):
    """The number of panel rules of each _rule_rows call, one per row."""
    calls = []
    rows = freeconv._rule_rows
    monkeypatch.setattr(
        freeconv, "_rule_rows",
        lambda mu, xs, y: calls.append(len(xs)) or rows(mu, xs, y),
    )
    return calls


def test_one_panel_rule_per_graph_point(monkeypatch):
    # y and G at a graph point come from one rule, not one each
    state = FreeConvolutionState(MeasureSpec.power(0.5, 0.0, (-1.0, 1.0)), 0.2285)
    calls = count_rule_rows(monkeypatch)
    xs = np.linspace(-1.2, 1.2, 7)
    state._h_graph(xs)
    assert sum(calls) == xs.size


def test_forward_reads_one_rule_per_point(monkeypatch):
    # forward takes y and G from one graph evaluation, on scalars or arrays,
    # and a window takes y, c_t and x*_t from one
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    state = FreeConvolutionState(mu, 0.2285)
    xs = np.array([-2.5, -0.9, -0.2, 0.0, 0.35, 1.05])
    singles = [state.forward(float(x)) for x in xs]
    calls = count_rule_rows(monkeypatch)
    got = forward_map(state, xs)
    assert sum(calls) == xs.size
    assert got.shape == xs.shape
    assert np.all(np.abs(got - singles) <= 1e-15 * np.maximum(1.0, np.abs(got)))
    calls.clear()
    make_window(mu, 0.2285, 0.3)
    assert sum(calls) == 1
    calls.clear()
    gap_window(mu, 0.2285, 2.5, 0.1)
    assert sum(calls) == 1


def test_height_floor_is_below_every_height(monkeypatch):
    # on the 201 points dbmlab density evaluates, for power densities whose
    # height at the kink is positive (kappa <= 1, or t above t_cr = 0.2 for
    # kappa = 3/2) and zero (kappa = 3/2 at t = 0.01): the floor Newton starts
    # from is at most the height, and 0 where the height is; and with the x
    # grading stopped at half the floor, the rules of the psi runs stay small
    widths = []
    rows = freeconv._rule_rows

    def counted(mu, xs, y):
        s, wd = rows(mu, xs, y)
        widths.extend(np.count_nonzero(wd, axis=1))
        return s, wd

    monkeypatch.setattr(freeconv, "_rule_rows", counted)
    pinched = 0
    for kappa in (0.3, 0.5, 1.5):
        for t in (0.01, 0.22845186424458322):
            mu = MeasureSpec.power(kappa, 0.0, (-1.0, 1.0))
            pad = 2.0 * math.sqrt(t)
            xs = np.linspace(-1.0 - pad, 1.0 + pad, 201)
            state = FreeConvolutionState(mu, t)
            state.psi(xs)
            ys = state._y_profile(xs)
            floor = freeconv._height_floor(mu, t, xs)
            assert np.all(floor**2 <= ys**2)
            assert np.all(floor[ys == 0.0] == 0.0)
            # and it is no vacuous bound: above a tenth of most heights
            assert np.count_nonzero(floor > 0.1 * ys) >= 2 * np.count_nonzero(ys) / 3
            pinched += np.count_nonzero((ys == 0.0) & (np.abs(xs) < 1.0))
    assert pinched > 0
    assert np.mean(widths) <= 300.0
