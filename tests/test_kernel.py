"""Kernel oracles.

The n = 1 heat kernel is known in closed form, which pins every prefactor,
sign, and gauge convention of both evaluation routes before any multi-point
configuration is trusted: with a single source point a the kernel is
exp(-(y-a)^2/(2t))/sqrt(2*pi*t), independent of x, and the rescaled frame
value follows from it exactly.
"""

import math

import numpy as np
import pytest

from dbmlab import freeconv, kernel
from dbmlab.errors import ConfigError, NonConvergence
from dbmlab.fredholm import GapProblem, gap_probability
from dbmlab.freeconv import (
    FreeConvolutionState,
    gap_window,
    make_window,
    window_scale,
)
from dbmlab.kernel import (
    KernelEvaluator,
    RescaledKernelFrame,
    biorthogonality_check,
    correlation_function,
    frame_to_json,
    gauge_to_paper,
    kernel_lagrange,
    kernel_matrix,
    kernel_paper,
    kernel_trace,
    lagrange_p_hat,
    projection_defect,
    rescaled_kernel,
    sine_kernel,
)
from dbmlab.measures import InitialConfiguration, MeasureSpec
from dbmlab.panels import panel_nodes

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def heat_kernel_n1(a, t, y):
    return math.exp(-((y - a) ** 2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


class TestSineKernel:
    def test_diagonal_is_one(self):
        assert sine_kernel(0.3, 0.3) == 1.0

    def test_integer_separation_vanishes(self):
        assert abs(sine_kernel(0.0, 1.0)) < 1e-15
        assert abs(sine_kernel(2.0, -1.0)) < 1e-15

    def test_half_separation(self):
        assert sine_kernel(0.0, 0.5) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_array_broadcast(self):
        u = np.array([0.0, 0.0])
        v = np.array([0.5, 1.0])
        vals = sine_kernel(u, v)
        assert vals[0] == pytest.approx(2.0 / math.pi)
        assert abs(vals[1]) < 1e-15


class TestSinglePointClosedForm:
    def test_unit_time_diagonal(self):
        ev = KernelEvaluator([0.0], 1.0)
        assert kernel_lagrange(ev, 0.0, 0.0) == pytest.approx(
            INV_SQRT_2PI, abs=1e-12
        )

    def test_value_does_not_depend_on_x(self):
        ev = KernelEvaluator([0.0], 1.0)
        expected = math.exp(-0.5) * INV_SQRT_2PI
        for x in (0.0, 0.3, 7.0):
            assert kernel_lagrange(ev, x, 1.0) == pytest.approx(
                expected, rel=1e-12
            )

    def test_shifted_point_scaled_time(self):
        a, t = 0.7, 0.25
        ev = KernelEvaluator([a], t)
        for x, y in ((a, a), (0.0, 1.1), (-2.0, 0.4)):
            assert kernel_lagrange(ev, x, y) == pytest.approx(
                heat_kernel_n1(a, t, y), rel=1e-12
            )

    def test_matrix_agrees_with_scalar(self):
        xs = [0.0, 0.5]
        ys = [-0.3, 0.0, 1.0]
        for points, t in (([0.0], 1.0), ([-1.0, 0.2, 0.9], 0.5)):
            ev = KernelEvaluator(points, t)
            mat = kernel_matrix(ev, xs, ys)
            assert mat.shape == (2, 3)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    assert mat[i, j] == pytest.approx(
                        kernel_lagrange(ev, x, y), rel=1e-12
                    )


class TestQuadrature:
    def test_unverifiable_cap_raises(self, monkeypatch):
        # uniform quantiles at n = 100 lose about 17 digits at x = 0, so 30
        # and 50 digits disagree; a cap of 50 forbids the next pair
        monkeypatch.setattr(kernel, "_MAX_DIGITS", kernel._START_DIGITS + kernel._CHECK_DIGITS)
        cfg = InitialConfiguration.from_quantiles(MeasureSpec.uniform(-1.0, 1.0), 100)
        ev = KernelEvaluator(cfg, 0.5)
        with pytest.raises(NonConvergence, match=r"n=100, x=0\.0 differs between 30 and 50"):
            kernel_lagrange(ev, 0.0, 0.0)

    @pytest.mark.parametrize(
        "n, t, eps", [(100, 0.0009, 0.03), (40, 0.06, 0.1)], ids=["gap-conf", "closing-gap-n40"]
    )
    def test_square_grid_certifies_in_one_pass(self, n, t, eps, monkeypatch):
        # a square grid takes each K(x, x) for its scale off its own
        # diagonal: one certification, here on the nodes of a gap frame's
        # Fredholm matrix at m = 16.  At n = 100 (bench/configs/gap.conf)
        # every value underflows to 0.0; at n = 40 none does
        cfg = InitialConfiguration.equispaced(-1.0, 1.0, n).with_gap(0.0, 0.3)
        window = gap_window(cfg, t, 0.0, epsilon=eps)
        nodes = panel_nodes(np.array([-1.0, 1.0]), 16)[0]
        xs = window.x_star_t + window_scale(window, n) * nodes
        ev = KernelEvaluator(cfg, t)
        passes = []
        certified = ev._certified
        monkeypatch.setattr(ev, "_certified", lambda *a: passes.append(a) or certified(*a))
        got = kernel_matrix(ev, xs, xs)
        assert len(passes) == 1
        diag = KernelEvaluator(cfg, t)._diagonal(xs)
        np.testing.assert_array_equal(np.diag(got), diag)
        # off the diagonal, a sample of pairs against 1 x 1 grids, whose
        # scale comes from a diagonal pass of their own
        one = KernelEvaluator(cfg, t)
        for i in range(16):
            for j in ((i + 1) % 16, 15 - i):
                ref = kernel_matrix(one, xs[i], xs[j])[0, 0]
                gauge = math.exp(-kernel.gauge_log(one, xs[i], xs[j]))
                scale = max(abs(ref), math.sqrt(diag[i] * diag[j]) * gauge)
                assert abs(got[i, j] - ref) <= 1e-15 * scale, (i, j, got[i, j], ref)

    def test_three_point_heat_smoothed_basis(self):
        # for n = 3, l_k is quadratic with l_k'' = 2/prod_{j!=k}(a_k - a_j),
        # so A_k = exp(-(t/2n) d^2) l_k = l_k - (t/n)/prod_{j!=k}(a_k - a_j)
        pts, t, n = [-1.0, 0.2, 0.9], 0.5, 3
        ev = KernelEvaluator(pts, t)
        pref = math.sqrt(2.0 * n / t) / (2.0 * math.sqrt(math.pi))
        for x in (-1.3, 0.0, 0.37, 2.0):
            for k, a in enumerate(pts):
                others = [b for b in pts if b != a]
                den = (a - others[0]) * (a - others[1])
                ell = (x - others[0]) * (x - others[1]) / den
                assert lagrange_p_hat(ev, k, x) / pref == pytest.approx(
                    ell - (t / n) / den, rel=1e-14
                ), (x, k)

    @pytest.mark.parametrize("n, exact", [(100, 0.340652), (200, 0.341715)])
    def test_exact_bulk_density_at_large_n(self, n, exact):
        # K(0,0)/n for uniform quantiles at t = 0.5, whose terms cancel by
        # about 17 and 35 orders of magnitude; psi_t(0) = 0.342780
        cfg = InitialConfiguration.from_quantiles(MeasureSpec.uniform(-1.0, 1.0), n)
        ev = KernelEvaluator(cfg, 0.5)
        assert kernel_lagrange(ev, 0.0, 0.0) / n == pytest.approx(exact, abs=1e-6)


class TestRepeatedPoints:
    def test_coincident_points_give_the_shifted_gue_kernel(self):
        # 15 points at a: Y = a + sqrt(t) H, whose density at x is the sum of
        # psi_k(x)^2, k < n, over the Hermite functions orthonormal for the
        # weight exp(-n (x - a)^2 / (2t)); no digits are spent on a split
        n, t, a = 15, 0.5, 0.3
        ev = KernelEvaluator([a] * n, t)
        sig = math.sqrt(t / n)
        for x in (0.3, 0.5):
            u = (x - a) / sig
            psi = math.exp(-u * u / 4.0) / math.sqrt(sig * math.sqrt(2.0 * math.pi))
            prev = total = 0.0
            for k in range(n):
                total += psi * psi
                psi, prev = (u * psi - math.sqrt(k) * prev) / math.sqrt(k + 1), psi
            assert kernel_lagrange(ev, x, x) == pytest.approx(total, rel=1e-14), x
        assert ev.digits == 30

    def test_gap_configuration_trace(self):
        # with_gap moves three of the 11 points onto the gap edges, two to -0.3
        cfg = InitialConfiguration.equispaced(-1.0, 1.0, 11).with_gap(0.0, 0.3)
        assert np.count_nonzero(cfg.points == -0.3) == 2
        assert kernel_trace(KernelEvaluator(cfg, 0.5)) == pytest.approx(11.0, abs=1e-6)

    @pytest.mark.parametrize(
        "points", [[1.0, 0.5, 0.5, 0.5], [1.0, -1.0, 0.0]], ids=["repeated", "distinct"]
    )
    def test_points_are_kept_as_given(self, points):
        ev = KernelEvaluator(points, 0.4)
        np.testing.assert_array_equal(ev.points, np.sort(points))
        assert kernel_lagrange(ev, 0.6, 0.6) > 0.0

    @pytest.mark.parametrize(
        "call",
        [lambda ev: lagrange_p_hat(ev, 0, 0.6), biorthogonality_check],
        ids=["lagrange_p_hat", "biorthogonality_check"],
    )
    def test_lagrange_basis_needs_distinct_points(self, call):
        ev = KernelEvaluator([0.5, 0.5, 0.5, 1.0], 0.4)
        with pytest.raises(ConfigError, match="distinct points"):
            call(ev)


class TestTimeChecks:
    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -0.5])
    def test_evaluator_rejects_bad_time(self, t):
        with pytest.raises(ConfigError):
            KernelEvaluator(InitialConfiguration.explicit([-1.0, 1.0]), t)

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    def test_evaluator_rejects_nonfinite_gauge_point(self, x0):
        with pytest.raises(ConfigError):
            KernelEvaluator(InitialConfiguration.explicit([-1.0, 1.0]), 0.5, x0=x0)

    def test_lagrange_route_rejects_nonfinite_points(self):
        # before any working digits are spent on them
        ev = KernelEvaluator(InitialConfiguration.explicit([-1.0, 0.0, 1.0]), 0.5)
        for call in (
            lambda: kernel_matrix(ev, [0.0, math.nan], [0.0]),
            lambda: kernel_matrix(ev, [0.0], [math.inf]),
            lambda: kernel_lagrange(ev, math.nan, 0.0),
            lambda: correlation_function(ev, [0.0, -math.inf]),
        ):
            with pytest.raises(ConfigError):
                call()
        assert not ev._diag

    def test_frame_rejects_window_at_another_time(self):
        # read on a window built at another t, the frame's values are wrong
        cfg = InitialConfiguration.from_quantiles(MeasureSpec.uniform(-1.0, 1.0), 20)
        window = make_window(cfg, 0.5, 0.0)
        with pytest.raises(ConfigError, match=r"t=0\.5.*t=0\.25"):
            RescaledKernelFrame(cfg, 0.25, window)


class TestGauge:
    def test_diagonal_preserved(self):
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        ev = KernelEvaluator(cfg, 0.5, x0=0.7)
        x = 0.35
        assert kernel_paper(ev, x, x) == pytest.approx(
            kernel_lagrange(ev, x, x), rel=1e-12
        )

    def test_single_point_paper_kernel_closed_form(self):
        x0 = 0.4
        ev = KernelEvaluator([0.0], 1.0, x0=x0)
        x, y = 0.6, -0.2
        expected = heat_kernel_n1(0.0, 1.0, y) * math.exp(
            -0.5 * (x * x - y * y) + (x - y) * x0
        )
        assert kernel_paper(ev, x, y) == pytest.approx(expected, rel=1e-12)

    def test_gauge_of_zero_is_zero(self):
        ev = KernelEvaluator([0.0], 1.0, x0=0.3)
        assert gauge_to_paper(ev, 0.5, -0.5, 0.0) == 0.0

    def test_determinant_invariant_under_gauge_base(self):
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        pts = [-0.8, 0.1, 0.7]
        det_a = correlation_function(KernelEvaluator(cfg, 0.5, x0=0.0), pts)
        det_b = correlation_function(KernelEvaluator(cfg, 0.5, x0=0.9), pts)
        assert det_a == pytest.approx(det_b, rel=1e-10)


class TestBiorthogonalFamily:
    def test_single_point_first_function_is_constant(self):
        t = 1.0
        ev = KernelEvaluator([0.0], t)
        expected = 1.0 / math.sqrt(2.0 * math.pi * t)
        for x in (-3.0, 0.0, 5.3):
            assert lagrange_p_hat(ev, 0, x) == pytest.approx(expected, rel=1e-12)

    def test_three_point_biorthogonality(self):
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        ev = KernelEvaluator(cfg, 1.0)
        assert biorthogonality_check(ev) <= 1e-8

    def test_p_hat_is_polynomial_of_degree_n_minus_one(self):
        cfg = InitialConfiguration.explicit([-1.0, -0.3, 0.4, 1.0])
        ev = KernelEvaluator(cfg, 0.7)
        xs = np.array([-2.0, -0.5, 0.5, 2.0])
        vals = np.array([lagrange_p_hat(ev, 2, x) for x in xs])
        coeffs = np.polyfit(xs, vals, 3)
        probe = 3.1
        predicted = np.polyval(coeffs, probe)
        assert lagrange_p_hat(ev, 2, probe) == pytest.approx(
            predicted, rel=1e-8
        )


class TestTraceAndProjection:
    def test_trace_recovers_point_count(self):
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        ev = KernelEvaluator(cfg, 0.5)
        assert kernel_trace(ev) == pytest.approx(3.0, abs=1e-6)

    def test_projection_defect_small(self):
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        ev = KernelEvaluator(cfg, 1.0)
        for x, y in ((0.2, -0.1), (0.0, 0.0), (1.2, 0.8)):
            assert projection_defect(ev, x, y) <= 1e-6

    def test_projection_defect_of_many_pairs_matches_one_pair_calls(self):
        # one call shares the quadrature nodes' blocks among its pairs; each
        # defect is the one-pair call's within 1e-15 of the integrand's scale
        cfg = InitialConfiguration.explicit([-1.0, -0.3, 0.2, 1.0])
        xs = np.array([-1.6, 0.25, 0.7])
        ys = np.array([0.4, -0.9, 0.7])
        got = projection_defect(KernelEvaluator(cfg, 0.5), xs, ys)
        assert got.shape == xs.shape
        for x, y, g in zip(xs, ys, got):
            ev = KernelEvaluator(cfg, 0.5)
            one = projection_defect(ev, x, y)
            assert isinstance(one, float)
            lo, hi = kernel._diag_interval(ev)
            nodes, wts = kernel.panel_nodes(np.linspace(lo, hi, 65), 16)
            terms = wts * kernel_matrix(ev, x, nodes)[0] * kernel_matrix(ev, nodes, y)[:, 0]
            scale = float(np.sum(np.abs(terms))) + abs(kernel_lagrange(ev, x, y))
            assert abs(g - one) <= 1e-15 * scale, (x, y, g, one)
            assert g <= 1e-6

    def test_projection_defect_rejects_unpaired_arrays(self):
        ev = KernelEvaluator(InitialConfiguration.explicit([0.0, 1.0]), 0.5)
        with pytest.raises(ConfigError):
            projection_defect(ev, [0.0, 0.1], [0.2])


class TestCorrelation:
    def test_one_point_matches_diagonal(self):
        cfg = InitialConfiguration.explicit([-1.0, 1.0])
        ev = KernelEvaluator(cfg, 0.3)
        x = 0.9
        assert correlation_function(ev, [x]) == pytest.approx(
            kernel_lagrange(ev, x, x), rel=1e-12
        )

    def test_repeated_argument_degenerates(self):
        cfg = InitialConfiguration.explicit([-1.0, 1.0])
        ev = KernelEvaluator(cfg, 0.3)
        x = 0.9
        scale = kernel_lagrange(ev, x, x) ** 2
        assert abs(correlation_function(ev, [x, x])) <= 1e-10 * scale

    def test_two_point_nonnegative(self):
        cfg = InitialConfiguration.explicit([-1.0, 1.0])
        ev = KernelEvaluator(cfg, 0.3)
        assert correlation_function(ev, [0.9, -0.9]) >= -1e-8


def single_atom_frame_value(u, v, t=1.0):
    """Exact rescaled value for the one-point configuration at the origin,
    conjugated at the frame's anchor x0 = Re z_saddle(0) = 0."""
    h = math.pi * math.sqrt(t)
    x_u, x_v = h * u, h * v
    x0 = 0.0
    gauge = math.exp(
        -(x_u * x_u - x_v * x_v) / (2.0 * t) + (x_u - x_v) * x0 / t
    )
    return h * gauge * heat_kernel_n1(0.0, t, x_v)


class TestRescaledFrame:
    def make_single_atom_frame(self):
        cfg = InitialConfiguration.explicit([0.0])
        window = make_window(cfg.empirical(), 1.0, 0.0)
        return RescaledKernelFrame(cfg, 1.0, window)

    def test_single_atom_center_value(self):
        frame = self.make_single_atom_frame()
        expected = math.pi * INV_SQRT_2PI
        assert frame.value(0.0, 0.0) == pytest.approx(expected, rel=1e-6)

    def test_single_atom_off_diagonal(self):
        frame = self.make_single_atom_frame()
        for u, v in ((0.5, -0.25), (0.25, 0.25), (-0.5, 0.5)):
            assert frame.value(u, v) == pytest.approx(
                single_atom_frame_value(u, v), rel=1e-5
            )

    def test_single_atom_without_contour_crossing(self):
        # at u = 2 the frame coordinate leaves the evolved support, the
        # saddle is real, and the oscillatory part is absent
        frame = self.make_single_atom_frame()
        assert frame.sine_amplitude(2.0) == 0.0
        assert frame.value(2.0, 1.0) == pytest.approx(
            single_atom_frame_value(2.0, 1.0), rel=1e-5
        )

    def test_values_grid_matches_scalar(self):
        frame = self.make_single_atom_frame()
        us = [0.0, 0.5]
        vs = [-0.25, 0.0]
        grid = frame.values(us, vs)
        assert grid.shape == (2, 2)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                assert grid[i, j] == pytest.approx(
                    frame.value(u, v), rel=1e-9, abs=1e-12
                )

    def test_reflection_symmetry_for_symmetric_configuration(self):
        # For a configuration invariant under x -> -x the eigenvalue process
        # is mirror symmetric, so every gauge-independent statistic of the
        # rescaled kernel must be too: diagonal values, two-sided products,
        # and correlation determinants.  Individual off-diagonal values are
        # gauge quantities and carry the anchor's asymmetry, so they are not
        # compared directly.
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        window = make_window(cfg.empirical(), 0.7, 0.0)
        frame = RescaledKernelFrame(cfg, 0.7, window)
        for u in (0.75, 1.5):
            assert frame.value(u, u) == pytest.approx(
                frame.value(-u, -u), rel=1e-8, abs=1e-10
            )
        for u, v in [(0.75, 0.25), (1.5, -0.5)]:
            lhs = frame.value(u, v) * frame.value(v, u)
            rhs = frame.value(-v, -u) * frame.value(-u, -v)
            assert lhs == pytest.approx(rhs, rel=1e-8)
            det = frame.value(u, u) * frame.value(v, v) - lhs
            det_m = frame.value(-u, -u) * frame.value(-v, -v) - rhs
            assert det == pytest.approx(det_m, rel=1e-8, abs=1e-10)

    def test_cross_route_agreement(self):
        mu = MeasureSpec.uniform(-1.0, 1.0)
        cfg = InitialConfiguration.from_quantiles(mu, 12)
        t = 0.5
        window = make_window(cfg.empirical(), t, 0.0)
        frame = RescaledKernelFrame(cfg, t, window)
        h = window_scale(window, cfg.n)
        ev = KernelEvaluator(cfg, t, x0=frame.x0)
        for u, v in ((0.0, 0.0), (1.0, 0.0), (0.5, -0.5), (2.0, 1.0)):
            x_u = window.x_star_t + h * u
            x_v = window.x_star_t + h * v
            ref = h * gauge_to_paper(
                ev, x_u, x_v, kernel_lagrange(ev, x_u, x_v)
            )
            got = frame.value(u, v)
            assert abs(got - ref) <= max(1e-6, 1e-4 * abs(ref))

    def test_gauge_free_products_match_lagrange(self):
        # K(u,v)K(v,u) carries no gauge: the frame must match the Lagrange
        # route whatever anchor it conjugates its rows at
        cfg = InitialConfiguration.from_quantiles(MeasureSpec.uniform(-1.0, 1.0), 50)
        t = 0.5
        window = make_window(cfg.empirical(), t, 0.0)
        frame = RescaledKernelFrame(cfg, t, window)
        ev = KernelEvaluator(cfg, t)
        for u, v in ((0.0, 2.0), (-1.0, 3.0), (-2.0, 2.0), (1.0, -1.5)):
            x_u = window.x_star_t + frame.h * u
            x_v = window.x_star_t + frame.h * v
            ref = frame.h**2 * kernel_lagrange(ev, x_u, x_v) * kernel_lagrange(ev, x_v, x_u)
            got = frame.value(u, v) * frame.value(v, u)
            assert got == pytest.approx(ref, rel=1e-4), (u, v, got, ref)

    def test_rescaled_kernel_wrapper(self):
        frame = self.make_single_atom_frame()
        assert rescaled_kernel(frame, 0.0, 0.0) == pytest.approx(
            frame.value(0.0, 0.0), rel=1e-12
        )

    def test_gap_frame_values_vanish(self):
        cfg = InitialConfiguration.equispaced(-1.0, 1.0, 40).with_gap(0.0, 0.3)
        t = 0.01 * 0.3**2
        window = gap_window(cfg, t, 0.0, epsilon=0.03)
        frame = RescaledKernelFrame(cfg, t, window)
        assert frame.sine_amplitude(1.0) == 0.0
        assert frame.sine_amplitude(-1.0) == 0.0
        for u, v in ((0.0, 0.0), (2.0, -1.0)):
            assert abs(frame.value(u, v)) <= 1e-6

    def test_power_half_diagonal_matches_lagrange(self):
        # kappa = 1/2 at criterion 7's t_n; the diagonal carries no gauge
        mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
        n = 50
        t = 0.05 * n ** (-1.0 / 3.0) * math.log(n) ** 2
        cfg = InitialConfiguration.from_quantiles(mu, n)
        frame = RescaledKernelFrame(cfg, t, make_window(mu, t, 0.0))
        ev = KernelEvaluator(cfg, t)
        for u in (-1.5, 0.0, 1.0):
            x = frame.window.x_star_t + frame.h * u
            ref = frame.h * kernel_lagrange(ev, x, x)
            got = frame.value(u, u)
            assert abs(got - ref) <= max(1e-6, 1e-4 * abs(ref)), (u, got, ref)

    @pytest.mark.parametrize("bulk", [False, True], ids=["gap", "bulk-far-lump"])
    def test_rows_do_not_depend_on_order(self, bulk):
        # A fresh frame asked for its rows in reverse order must reproduce
        # every value bit for bit.  The gap grid takes the exact route; the
        # bulk window sits in one cluster, so its contour's loop also crosses
        # the other cluster's lump, as a far one.
        cfg = InitialConfiguration.equispaced(-1.0, 1.0, 40).with_gap(0.0, 0.3)
        if bulk:
            t = 0.05
            window = make_window(cfg.empirical(), t, 0.6)
        else:
            t = 0.01 * 0.3**2
            window = gap_window(cfg, t, 0.0, epsilon=0.03)
        us = [-1.0, 0.0, 1.0]
        forward = RescaledKernelFrame(cfg, t, window).values(us, us)
        backward = RescaledKernelFrame(cfg, t, window).values(us[::-1], us)
        np.testing.assert_array_equal(forward, backward[::-1])
        if bulk:
            assert np.all(np.diag(forward) > 0.5)

    def test_frame_json_fields(self):
        frame = self.make_single_atom_frame()
        frame.value(0.0, 0.0)
        blob = frame_to_json(frame)
        assert set(blob) == {
            "n",
            "t",
            "x_star",
            "x_star_t",
            "c_t",
            "x0",
            "quadrature_M",
        }
        assert blob["n"] == 1
        assert blob["t"] == 1.0
        assert blob["x_star_t"] == pytest.approx(0.0, abs=1e-12)
        assert blob["c_t"] == pytest.approx(1.0 / math.pi, rel=1e-9)

    def test_repeated_points_match_hand_split(self):
        # the contour route sums log|q - a|, so a repeated point needs no
        # split; a symmetric split moves the frame only at second order
        mu = MeasureSpec.uniform(-1.0, 1.0)
        pts = InitialConfiguration.from_quantiles(mu, 50).points.copy()
        pts[11] = pts[10]
        pts[31] = pts[32] = pts[30]
        eps = 1e-9 * (pts[-1] - pts[0])
        split = pts.copy()
        split[10:12] += np.array([-0.5, 0.5]) * eps
        split[30:33] += np.array([-1.0, 0.0, 1.0]) * eps
        t = 0.5
        window = make_window(InitialConfiguration.explicit(pts).empirical(), t, 0.0)
        repeated = RescaledKernelFrame(pts, t, window)
        np.testing.assert_array_equal(repeated.points, pts)
        grid = np.linspace(-2.0, 2.0, 9)
        got = repeated.values(grid, grid)
        ref = RescaledKernelFrame(split, t, window).values(grid, grid)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_quadrature_m_counts_nodes_of_accepted_rows(self):
        cfg = InitialConfiguration.from_quantiles(MeasureSpec.uniform(-1.0, 1.0), 12)
        window = make_window(cfg.empirical(), 0.5, 0.0)
        got = []
        for levels in (8, 10):
            frame = RescaledKernelFrame(cfg, 0.5, window, max_levels=levels)
            assert frame_to_json(frame)["quadrature_M"] == 0
            frame.value(0.0, 0.0)
            got.append(frame_to_json(frame)["quadrature_M"])
        assert got[0] > 0
        assert got[1] >= got[0]

    def test_unreachable_tolerance_raises(self):
        cfg = InitialConfiguration.explicit([0.0])
        window = make_window(cfg.empirical(), 1.0, 0.0)
        frame = RescaledKernelFrame(
            cfg, 1.0, window, dc_tol=1e-16, max_levels=1
        )
        with pytest.raises(NonConvergence, match=r"level 1: Richardson change .* at row u = 0$"):
            frame.value(0.0, 0.0)


def dense_loop_sum(x0, sig, a, wn, q):
    """The double sums over both contour halves with one plain Cauchy matrix."""
    z = np.concatenate([x0 + 1j * sig, x0 - 1j * sig])
    w = np.concatenate([wn, np.conj(wn)])
    az = np.concatenate([a, np.conj(a)])
    qw = np.concatenate([-q, np.conj(q)])
    return 1j * (az.T @ (1.0 / (z[:, None] - w[None, :])) @ qw)


def _bulk_uniform_frame(n=50):
    cfg = InitialConfiguration.from_quantiles(MeasureSpec.uniform(-1.0, 1.0), n)
    return RescaledKernelFrame(cfg, 0.5, make_window(cfg.empirical(), 0.5, 0.0))


def _power_half_frame():
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    n = 50
    t = 0.05 * n ** (-1.0 / 3.0) * math.log(n) ** 2
    cfg = InitialConfiguration.from_quantiles(mu, n)
    return RescaledKernelFrame(cfg, t, make_window(mu, t, 0.0))


def _two_cluster_frame():
    cfg = InitialConfiguration.equispaced(-1.0, 1.0, 40).with_gap(0.0, 0.3)
    return RescaledKernelFrame(cfg, 0.05, make_window(cfg.empirical(), 0.05, 0.6))


@pytest.mark.parametrize(
    "make_frame",
    [_bulk_uniform_frame, _power_half_frame, _two_cluster_frame],
    ids=["bulk-uniform-n50", "power-half-n50", "two-cluster"],
)
def test_column_matches_dense_double_sum(make_frame, monkeypatch):
    # _block contracts the z weights into real Cauchy blocks first; the
    # reference sums the same nodes and weights through one dense 1/(Z - W).
    # Three rows on the frame's contour, then each row on its own, as
    # value(u, v) sums it.
    frame = make_frame()
    vs = np.array([-1.0, -0.25, 0.0, 0.5, 1.0])
    blocks = [(-1.0, 0.0, 1.0)] + [(u,) for u in (-1.0, 0.0, 1.0)]
    got = {}
    for level in range(3):
        for us in blocks:
            got[(level, us)] = frame._block(np.array(us), vs, level)
    monkeypatch.setattr(kernel, "_loop_sum", dense_loop_sum)
    for (level, us), (vals, resid, nodes) in got.items():
        ref, _, ref_nodes = frame._block(np.array(us), vs, level)
        scale = float(np.max(np.abs(ref)))
        assert vals.shape == (len(us), vs.size)
        assert nodes == ref_nodes
        assert np.max(np.abs(vals - ref)) <= 1e-13 * scale, (level, us)
        assert np.all(np.isfinite(resid))
        assert np.max(resid) <= 1e-12 * scale, (level, us, resid)
    # the residual is the rounding of one sum over both loop halves; one
    # that is exactly 0 everywhere would make the realness check vacuous
    assert any(np.max(resid) > 0.0 for _, resid, _ in got.values())


def _line_and_loop(sig, seed):
    """Weights on the z-line x0 + i sig, and a loop through the line: an
    arc, and as many nodes at Re w = x0 spread up to twice the line's end."""
    rng = np.random.default_rng(seed)
    x0 = 0.25
    a = (rng.standard_normal((sig.size, 3)) + 1j * rng.standard_normal((sig.size, 3))) / (
        1.0 + sig[:, None]
    )
    theta = np.linspace(0.05, np.pi - 0.05, 300)
    arc = x0 + np.cos(theta) + 0.5j * sig[-1] * np.sin(theta)
    on_line = x0 + 1j * rng.uniform(0.0, 2.0 * sig[-1], 300)
    wn = np.concatenate([arc, on_line])
    q = rng.standard_normal((wn.size, 4)) + 1j * rng.standard_normal((wn.size, 4))
    return x0, a, wn, q


@pytest.mark.parametrize(
    "case",
    ["target-on-a-proxy-point", "geometric-tail", "shorter-than-a-leaf"],
)
def test_loop_sum_matches_dense_sum(case):
    # the z-line acts through Chebyshev proxies of its leaves on far loop
    # nodes and node by node on near ones; the reference is one plain
    # Cauchy matrix over the same nodes
    count = {"target-on-a-proxy-point": 700, "geometric-tail": 300, "shorter-than-a-leaf": 50}
    sig = (np.arange(count[case]) + 0.5) * 0.01
    if case == "geometric-tail":
        # as on a frame's z-line, steps growing by 1.35 after a fine band
        sig = np.concatenate([sig, sig[-1] + np.cumsum(0.01 * 1.35 ** np.arange(1, 21))])
    x0, a, wn, q = _line_and_loop(sig, seed=len(case))
    if case == "target-on-a-proxy-point":
        # a loop node at Re w = x0 on a proxy point p of the second leaf: its
        # own leaf is near it, where 1/(s - p) is infinite at s = p
        amat = np.concatenate([a.real.T, a.imag.T])
        pts = kernel._z_leaves(sig, amat)[2]
        wn[-1] = x0 + 1j * pts[kernel._P + 7]
    got = kernel._loop_sum(x0, sig, a, wn, q)
    ref = dense_loop_sum(x0, sig, a, wn, q)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), case


def _count_block_levels(frame, monkeypatch):
    levels = []
    block = frame._block

    def counted(us, vs, level):
        levels.append(level)
        return block(us, vs, level)

    monkeypatch.setattr(frame, "_block", counted)
    return levels


def _exact_frame_values(frame, us, vs):
    """The exact route on a grid, mapped as the frame maps it: at x*_t + h u,
    gauge-fixed at the frame's x0 and times h."""
    ev = KernelEvaluator(frame.points, frame.t, frame.x0)
    xs, ys = (frame.window.x_star_t + frame.h * np.asarray(a) for a in (us, vs))
    return frame.h * gauge_to_paper(ev, xs[:, None], ys[None, :], kernel_matrix(ev, xs, ys))


@pytest.mark.parametrize(
    "make_frame, grid",
    [
        (lambda: _bulk_uniform_frame(100), None),
        (_power_half_frame, np.arange(-4, 5) * 0.5),
    ],
    ids=["bulk-uniform-n100", "power-half-n50"],
)
def test_shared_contour_matches_the_exact_route(make_frame, grid, monkeypatch):
    # every row of the grid is summed on the one contour through
    # z_saddle(0); each must agree with the exact route, certified to 1e-15
    frame = make_frame()
    grid = np.asarray(frame.window.u_grid if grid is None else grid)
    levels = _count_block_levels(frame, monkeypatch)
    got = frame.values(grid, grid)
    # the whole grid was one block: one call per level
    assert levels == list(range(len(levels)))
    ref = _exact_frame_values(frame, grid, grid)
    scale = float(np.max(np.abs(got)))
    for i, u in enumerate(grid):
        assert np.max(np.abs(got[i] - ref[i])) <= 1e-7 * scale, u
        assert abs(got[i, i] - ref[i, i]) <= 1e-9 * abs(ref[i, i]), u


def _bulk_gauss_frame(m):
    # the n = 50 bulk frame on a Fredholm matrix's grid: Gauss nodes of (-1/2, 1/2)
    nodes, _ = panel_nodes(np.array([-0.5, 0.5]), m)
    return _bulk_uniform_frame(50), nodes


@pytest.mark.parametrize(
    "make_case, last_level",
    [
        (lambda: (_power_half_frame(), np.linspace(-2.0, 2.0, 9)), 5),
        (lambda: _bulk_gauss_frame(8), 3),
        (lambda: _bulk_gauss_frame(16), 3),
    ],
    ids=["power-half-n50", "bulk-gauss-m8", "bulk-gauss-m16"],
)
def test_richardson_values_within_row_tolerance_of_the_exact_route(
    make_case, last_level, monkeypatch
):
    # a block is accepted on the change of the Richardson value it returns,
    # one level before the raw change between levels would pass; every value
    # so accepted must lie within its row's tolerance of the exact route
    frame, grid = make_case()
    levels = _count_block_levels(frame, monkeypatch)
    got = frame.values(grid, grid)
    assert levels == list(range(last_level + 1))
    ref = _exact_frame_values(frame, grid, grid)
    tol = np.maximum(frame.dc_tol, 1e-6 * np.max(np.abs(got), axis=1))
    assert np.all(np.max(np.abs(got - ref), axis=1) <= tol)


def _sub_threshold_frame():
    mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
    n = 50
    t = float(n) ** (-2.0 / 3.0)
    cfg = InitialConfiguration.from_quantiles(mu, n)
    return RescaledKernelFrame(cfg, t, make_window(mu, t, 0.0)), cfg


def _gap_frame():
    cfg = InitialConfiguration.equispaced(-1.0, 1.0, 40).with_gap(0.0, 0.3)
    t = 0.01 * 0.3**2
    return RescaledKernelFrame(cfg, t, gap_window(cfg, t, 0.0, epsilon=0.03)), cfg


def _closing_gap_frame(t, eps):
    cfg = InitialConfiguration.equispaced(-1.0, 1.0, 40).with_gap(0.0, 0.3)
    return RescaledKernelFrame(cfg, t, gap_window(cfg, t, 0.0, epsilon=eps)), cfg


# n = 40 gap frames outside the underflow regime, where per-row contours
# through the real saddles stalled at level 8 (the first three) or returned
# values far from the exact ones
_CLOSING_GAPS = [(0.015, 0.1), (0.03, 0.1), (0.06, 0.1), (0.012, 0.05), (0.018, 0.05)]


@pytest.mark.parametrize(
    "make_frame",
    [_gap_frame, _sub_threshold_frame]
    + [lambda t=t, eps=eps: _closing_gap_frame(t, eps) for t, eps in _CLOSING_GAPS],
    ids=["gap", "power-half-sub"] + [f"gap-n40-t{t}-eps{eps}" for t, eps in _CLOSING_GAPS],
)
def test_real_saddle_frames_take_the_exact_route(make_frame, monkeypatch):
    # a real saddle in the grid (the gap window's, or y(0) = 0 below
    # threshold) sends the grid to the frame's KernelEvaluator: no contour
    # block runs, and each value is the exact one at x*_t + h u, gauge-fixed
    # at the frame's x0 and times h
    frame, cfg = make_frame()
    grid = np.asarray(frame.window.u_grid)
    assert any(frame.sine_amplitude(u) == 0.0 for u in (0.0, *grid))
    levels = _count_block_levels(frame, monkeypatch)
    got = frame.values(grid, grid)
    np.testing.assert_array_equal(got, _exact_frame_values(frame, grid, grid))
    eps = frame.window.epsilon
    if eps is not None:
        # the gap on (-1, 1) in window units is the exact one on x*_t +- eps
        def kern(uu, vv):
            return frame.values(np.asarray(uu).ravel(), np.asarray(vv).ravel())

        fred = gap_probability(GapProblem(kern, (-1.0, 1.0))).raw_det
        c = frame.window.x_star_t
        exact = gap_probability(GapProblem(KernelEvaluator(cfg, frame.t), (c - eps, c + eps)))
        assert abs(fred - exact.raw_det) <= 1e-8, (fred, exact.raw_det)
    assert levels == []


def test_exact_route_raises_past_the_float_range():
    # in the gauge at the frame's x0 = 0, off-diagonal entries of this gap
    # frame pass the float range; as on the contour route, that raises
    frame, _ = _closing_gap_frame(0.015, 0.5)
    grid = np.asarray(frame.window.u_grid)
    with pytest.raises(NonConvergence, match="float range"):
        frame.values(grid, grid)


def test_sub_threshold_products_match_lagrange():
    # K(u,v)K(v,u) carries no gauge; below threshold the frame takes the
    # exact route, so this holds its gauge and its scale by h to the plain
    # Lagrange values.  The independent check of this regime is the Monte
    # Carlo density of tests/test_montecarlo.py::TestRealSaddleRegimes
    frame, cfg = _sub_threshold_frame()
    ev = KernelEvaluator(cfg, frame.t)
    for u, v in ((0.0, 1.0), (-1.0, 0.5), (-1.5, 1.5)):
        x_u = frame.window.x_star_t + frame.h * u
        x_v = frame.window.x_star_t + frame.h * v
        ref = frame.h**2 * kernel_lagrange(ev, x_u, x_v) * kernel_lagrange(ev, x_v, x_u)
        got = frame.value(u, v) * frame.value(v, u)
        assert got == pytest.approx(ref, rel=1e-12), (u, v, got, ref)


@pytest.mark.parametrize("n", [100, 200])
@pytest.mark.parametrize("kind", ["uniform", "power-half-t_n"])
def test_frame_matches_exact_lagrange(kind, n):
    # where every saddle of the grid is complex, the frame against the exact
    # route: diagonals within the frame's dc_tol, relative, and the
    # gauge-free products K(u,v)K(v,u) within 1e-6 of the grid's largest
    if kind == "uniform":
        mu, t = MeasureSpec.uniform(-1.0, 1.0), 0.5
    else:
        mu = MeasureSpec.power(0.5, 0.0, (-1.0, 1.0))
        t = 0.05 * n ** (-1.0 / 3.0) * math.log(n) ** 2
    cfg = InitialConfiguration.from_quantiles(mu, n)
    frame = RescaledKernelFrame(cfg, t, make_window(mu, t, 0.0))
    grid = np.array([0.0, 0.5, 1.0, 2.0])
    got = frame.values(grid, grid)
    xs = frame.window.x_star_t + frame.h * grid
    ref = frame.h * kernel_matrix(KernelEvaluator(cfg, t), xs, xs)
    np.testing.assert_allclose(np.diag(got), np.diag(ref), rtol=frame.dc_tol, atol=0.0)
    prod, ref_prod = got * got.T, ref * ref.T
    assert np.max(np.abs(prod - ref_prod)) <= 1e-6 * np.max(np.abs(ref_prod))


def test_frame_solves_new_saddles_in_one_inverse_call(monkeypatch):
    frame = _bulk_uniform_frame()
    calls = []
    inverse = frame.state.inverse
    monkeypatch.setattr(
        frame.state, "inverse", lambda xi: calls.append(np.size(xi)) or inverse(xi)
    )
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    frame.values(grid, grid)
    # u = 0 was solved for x0 when the frame was built; the other four come
    # in one call
    assert calls == [4]
    frame.values(grid, grid)
    frame.sine_amplitude(0.5)
    assert calls == [4]


def _record_home_solves(frame, monkeypatch, home=True):
    """Patch the frame to record, per level, the points its home grids (far
    grids if not ``home``) ask for and the points of those grids it passes
    to Newton.  Saddle solves pass points to Newton too, so callers solve
    the grid's saddles first."""
    asked, solved, level = {}, {}, [None, None]
    grid, profile = frame._lump_grid, frame.state._y_profile

    def lump_grid(lo, hi, lev, is_home):
        vx, mx = grid(lo, hi, lev, is_home)
        level[:] = lev, is_home
        if is_home == home:
            asked[lev] = asked.get(lev, 0) + vx.size + mx.size
        return vx, mx

    def y_profile(xs):
        if level[1] == home:
            solved[level[0]] = solved.get(level[0], 0) + xs.size
        return profile(xs)

    monkeypatch.setattr(frame, "_lump_grid", lump_grid)
    monkeypatch.setattr(frame.state, "_y_profile", y_profile)
    return asked, solved


def test_home_heights_solved_once_across_levels(monkeypatch):
    # level l + 1's home vertices are level l's vertices and midpoints, so
    # each level after the first reads back all of the level before but
    # its two bridges
    frame = _bulk_uniform_frame(100)
    grid = np.asarray(frame.window.u_grid)
    frame._saddles_at([0.0, *grid])
    asked, solved = _record_home_solves(frame, monkeypatch)
    frame.values(grid, grid)
    assert len(asked) >= 3
    assert sum(solved.values()) < 0.7 * sum(asked.values())


def test_far_heights_solved_once_across_levels(monkeypatch):
    # a far lump's cosine grid at level l + 1 holds every vertex of level l;
    # the two-cluster frame's shared contour, through the right cluster,
    # takes the left cluster's lump as a far one
    frame = _two_cluster_frame()
    grid = np.linspace(-2.0, 2.0, 9)
    frame._saddles_at([0.0, *grid])
    asked, solved = _record_home_solves(frame, monkeypatch, home=False)
    frame.values(grid, grid)
    assert len(asked) >= 2
    assert sum(solved.values()) < 0.7 * sum(asked.values())


def test_home_heights_reused_by_a_later_call(monkeypatch):
    # new rows are summed on the levels the grid made: none of those levels
    # is built again, so none passes a point to Newton
    frame = _bulk_uniform_frame(100)
    grid = np.asarray(frame.window.u_grid)
    rows = np.array([-0.3, 0.1, 0.7])
    frame._saddles_at([0.0, *grid, *rows])
    asked, solved = _record_home_solves(frame, monkeypatch)
    frame.values(grid, grid)
    reached = max(asked)
    asked.clear()
    solved.clear()
    levels = _count_block_levels(frame, monkeypatch)
    frame.values(rows, grid)
    assert levels
    assert all(lev > reached for lev in asked), asked
    assert all(lev > reached for lev in solved), solved


def test_each_level_is_made_once_per_frame(monkeypatch):
    # the bulk-sweep sequence on one frame: the 17 x 17 window grid, then the
    # Gauss grids of (-1/2, 1/2) for m = 8 and 16.  Each level's z-line and
    # loop is made the first time a block reaches it and read back after,
    # and the last grid's values are the bits a fresh frame gives it alone
    frame = _bulk_uniform_frame(50)
    built = []
    z_line = frame._z_line

    def counted(*args):
        built.append(args[-1])
        return z_line(*args)

    monkeypatch.setattr(frame, "_z_line", counted)
    grid = np.asarray(frame.window.u_grid)
    frame.values(grid, grid)
    for m in (8, 16):
        nodes, _ = panel_nodes(np.array([-0.5, 0.5]), m)
        got = frame.values(nodes, nodes)
    assert sorted(built) == list(range(max(built) + 1)), built
    np.testing.assert_array_equal(got, _bulk_uniform_frame(50).values(nodes, nodes))


def test_home_heights_match_a_cold_solve():
    # a read-back height is the double Newton returns for its x alone, never
    # an interpolant, whichever points it was solved with: on the n = 100
    # bulk frame and on the two-cluster frame, whose contour has a far lump
    bulk = _bulk_uniform_frame(100)
    for frame in (bulk, _two_cluster_frame()):
        grid = np.asarray(frame.window.u_grid)
        frame.values(grid, grid)
        cold = FreeConvolutionState(frame.points, frame.t)
        assert frame._heights
        for kx, ky in frame._heights.values():
            assert np.all(np.diff(kx) > 0.0)
            np.testing.assert_array_equal(ky, cold._y_profile(kx))
    cold = FreeConvolutionState(bulk.points, bulk.t)
    wn = bulk._contour(2)[1][0]
    np.testing.assert_array_equal(wn.imag, cold._y_profile(wn.real))


def test_seeded_heights_take_few_newton_evaluations(monkeypatch):
    # started from the seed table, a height takes at most 4 evaluations of
    # L on average over a bulk n = 200 frame's values, against 6.3 from
    # sqrt(t) _Y_START
    frame = _bulk_uniform_frame(200)
    count = {"points": 0, "rows": 0}
    newton = freeconv._newton_heights

    def counted(sums, t, size, start=None):
        count["points"] += size

        def rows(i, big_y):
            count["rows"] += big_y.size
            return sums(i, big_y)

        return newton(rows, t, size, start)

    monkeypatch.setattr(freeconv, "_newton_heights", counted)
    grid = np.asarray(frame.window.u_grid)
    frame.values(grid, grid)
    assert count["points"] > 1000
    assert count["rows"] <= 4 * count["points"]


@pytest.mark.parametrize("n", [50, 100, 200])
def test_saddles_do_not_depend_on_the_batch(n):
    # a saddle is bitwise a function of its coordinate: solved in one
    # inverse call with 32 others or on its own, it is the same double
    grid = np.linspace(-2.0, 2.0, 33)
    together = _bulk_uniform_frame(n)._saddles_at(grid)
    alone = _bulk_uniform_frame(n)
    for u, got in zip(grid, together):
        assert alone._saddles_at((u,))[0] == got, u


def test_frame_values_do_not_depend_on_threads(monkeypatch):
    # each loop block's product has its own slot and the slots are added in
    # block order: at 1, 2 and 3 threads a frame's values are the same bits,
    # on a shared bulk contour, on a deep soft-centre one and on a contour
    # with a far lump
    cases = [
        (lambda: _bulk_uniform_frame(100), None),
        (_power_half_frame, np.linspace(-2.0, 2.0, 9)),
        (_two_cluster_frame, np.linspace(-2.0, 2.0, 9)),
    ]
    most = []
    run_items = kernel.run_items

    def counted(fn, count, threads):
        most.append(threads)
        run_items(fn, count, threads)

    monkeypatch.setattr(kernel, "run_items", counted)
    for make_frame, grid in cases:
        got = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(kernel, "default_threads", lambda: threads)
            most.clear()
            frame = make_frame()
            g = np.asarray(frame.window.u_grid if grid is None else grid)
            got.append(frame.values(g, g))
            # the threaded path ran: some sum had a block for every thread
            assert max(most) == threads
        for other in got[1:]:
            assert np.array_equal(got[0], other)
