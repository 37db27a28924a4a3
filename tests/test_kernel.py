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

from dbmlab import kernel
from dbmlab.errors import NonConvergence
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
        ev = KernelEvaluator([0.0], 1.0)
        xs = [0.0, 0.5]
        ys = [-0.3, 0.0, 1.0]
        mat = kernel_matrix(ev, xs, ys)
        assert mat.shape == (2, 3)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert mat[i, j] == pytest.approx(
                    kernel_lagrange(ev, x, y), rel=1e-12
                )


class TestQuadrature:
    def test_node_doubling_is_exact_for_polynomials(self):
        cfg = InitialConfiguration.explicit([-1.0, 0.2, 0.9])
        ev_a = KernelEvaluator(cfg, 0.5, m_nodes=64)
        ev_b = KernelEvaluator(cfg, 0.5, m_nodes=256)
        va = kernel_lagrange(ev_a, 0.3, -0.2)
        vb = kernel_lagrange(ev_b, 0.3, -0.2)
        assert va == pytest.approx(vb, rel=1e-12)

    def test_contour_shift_invariance(self):
        cfg = InitialConfiguration.explicit([-1.0, 0.2, 0.9])
        ev = KernelEvaluator(cfg, 0.5)
        base = kernel_lagrange(ev, 0.2, -0.4)
        for shift in (0.3, -0.3):
            moved = kernel_lagrange(ev, 0.2, -0.4, contour_shift=shift)
            assert moved == pytest.approx(base, rel=1e-9)

    def test_unverifiable_cap_raises(self):
        cfg = InitialConfiguration.explicit([-1.0, 0.2, 0.9])
        ev = KernelEvaluator(cfg, 0.5, m_nodes=64, m_max=64)
        with pytest.raises(NonConvergence):
            kernel_lagrange(ev, 0.3, -0.2)

    @pytest.mark.parametrize("m", [512, 1024])
    def test_noise_finite_with_underflowing_weights(self, m):
        # from M = 512 on some Gauss-Hermite weights underflow to exactly 0;
        # an infinite noise estimate would accept any pair of values
        cfg = InitialConfiguration.explicit([-1.0, 0.2, 0.9])
        ev = KernelEvaluator(cfg, 0.5, m_nodes=256)
        vals, noise = ev._rows(0.3, np.array([-0.2]), m, 0.0)
        assert np.all(np.isfinite(noise))
        assert noise[0] < 1e-10 * abs(vals[0])


class TestDuplicateSplitting:
    def test_duplicates_are_split_and_recorded(self):
        ev = KernelEvaluator([0.5, 0.5, 0.5, 1.0], 0.4)
        assert ev.eps_split_applied > 0.0
        assert np.all(np.diff(ev.points) > 0.0)
        val = kernel_lagrange(ev, 0.6, 0.6)
        assert np.isfinite(val)
        assert val > 0.0

    def test_distinct_points_not_modified(self):
        pts = [-1.0, 0.0, 1.0]
        ev = KernelEvaluator(pts, 0.5)
        assert ev.eps_split_applied == 0.0
        assert np.allclose(ev.points, pts)


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
        # Loop lumps away from a row's anchor are cached per refinement
        # level; a fresh frame asked for its rows in reverse order must
        # reproduce every value bit for bit.  The bulk window sits in one
        # cluster, so the other cluster's lump is a cached one.
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
            "eps_split_applied",
        }
        assert blob["n"] == 1
        assert blob["t"] == 1.0
        assert blob["x_star_t"] == pytest.approx(0.0, abs=1e-12)
        assert blob["c_t"] == pytest.approx(1.0 / math.pi, rel=1e-9)
        assert blob["eps_split_applied"] == 0.0

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
        with pytest.raises(NonConvergence):
            frame.value(0.0, 0.0)


def dense_loop_sum(x0, sig, a, wn, q):
    """The double sum over both contour halves with one plain Cauchy matrix."""
    z = np.concatenate([x0 + 1j * sig, x0 - 1j * sig])
    w = np.concatenate([wn, np.conj(wn)])
    az = np.concatenate([a, np.conj(a)])
    qw = np.concatenate([-q, np.conj(q)])
    return 1j * (az @ (1.0 / (z[:, None] - w[None, :])) @ qw)


def _bulk_uniform_frame():
    cfg = InitialConfiguration.from_quantiles(MeasureSpec.uniform(-1.0, 1.0), 50)
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
    # _column contracts the z weights into real Cauchy blocks first; the
    # reference sums the same nodes and weights through one dense 1/(Z - W)
    frame = make_frame()
    vs = np.array([-1.0, -0.25, 0.0, 0.5, 1.0])
    cols = {}
    for level in range(3):
        for u in (-1.0, 0.0, 1.0):
            cols[(level, u)] = frame._column(u, vs, level)
    monkeypatch.setattr(kernel, "_loop_sum", dense_loop_sum)
    for (level, u), (got, resid, nodes) in cols.items():
        ref, _, ref_nodes = frame._column(u, vs, level)
        scale = float(np.max(np.abs(ref)))
        assert nodes == ref_nodes
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale, (level, u)
        assert math.isfinite(resid)
        assert resid <= 1e-12 * scale, (level, u, resid)
    # the residual is the rounding of one sum over both loop halves; one
    # that is exactly 0 everywhere would make the realness check vacuous
    assert any(resid > 0.0 for _, resid, _ in cols.values())


def test_frame_solves_new_saddles_in_one_inverse_call(monkeypatch):
    frame = _bulk_uniform_frame()
    calls = []
    inverse = frame.state.inverse
    monkeypatch.setattr(
        frame.state, "inverse", lambda xi: calls.append(np.size(xi)) or inverse(xi)
    )
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    frame.values(grid, grid)
    # u = 0 was solved for the anchor; the other four come in one call
    assert calls == [4]
    frame.values(grid, grid)
    frame.sine_amplitude(0.5)
    assert calls == [4]
