"""Gap-probability tests.

The pinned oracle is the small-s expansion of the sine-kernel gap
E(s) = 1 - s + (pi^2/36) s^4 + O(s^6), which is independent of the
Nystrom machinery under test.  Exact-kernel cases lean on intervals
where the answer is forced (far outside the spectrum, or covering it).
"""

import numpy as np
import pytest

from dbmlab.errors import ConfigError, NonConvergence
from dbmlab.fredholm import GapProblem, gap_probability, sine_gap
from dbmlab.kernel import KernelEvaluator, sine_kernel
from dbmlab.measures import InitialConfiguration


def sine_series(s):
    return 1.0 - s + (np.pi**2 / 36.0) * s**4


class TestSineGap:
    def test_zero_length_interval(self):
        assert sine_gap(0.0) == 1.0

    def test_small_s_against_series(self):
        assert sine_gap(0.05) == pytest.approx(sine_series(0.05), abs=5e-8)
        assert sine_gap(0.1) == pytest.approx(sine_series(0.1), abs=3e-7)

    def test_monotone_decreasing_in_s(self):
        values = [sine_gap(s) for s in (0.25, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigError):
            sine_gap(-0.1)

    def test_infinite_length_rejected(self):
        with pytest.raises(ConfigError):
            sine_gap(np.inf)

    def test_matches_explicit_problem(self):
        prob = GapProblem(sine_kernel, (0.0, 0.1))
        assert sine_gap(0.1) == gap_probability(prob).raw_det


class TestGapProblem:
    def test_zero_kernel_gives_probability_one(self):
        res = gap_probability(GapProblem(lambda x, y: 0.0 * (x + y), (0.0, 1.0)))
        assert res.raw_det == 1.0
        assert res.probability == 1.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigError):
            GapProblem(sine_kernel, (1.0, 1.0))
        with pytest.raises(ConfigError):
            GapProblem(sine_kernel, (2.0, 1.0))

    @pytest.mark.parametrize(
        "interval", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan)]
    )
    def test_nonfinite_interval_rejected(self, interval):
        # rejected before any determinant is taken
        with pytest.raises(ConfigError):
            GapProblem(sine_kernel, interval)

    def test_node_floor_rejected(self):
        with pytest.raises(ConfigError):
            GapProblem(sine_kernel, (0.0, 1.0), m=4)

    def test_json_payload(self):
        res = gap_probability(GapProblem(sine_kernel, (0.0, 0.5)))
        payload = res.to_json()
        assert set(payload) == {"interval", "m_final", "raw_det", "probability"}
        assert payload["interval"] == [0.0, 0.5]
        assert payload["m_final"] == res.m_final
        assert 0.0 <= payload["probability"] <= 1.0

    def test_translation_invariance_of_sine_gap(self):
        a = gap_probability(GapProblem(sine_kernel, (0.0, 0.5))).raw_det
        b = gap_probability(GapProblem(sine_kernel, (1.3, 1.8))).raw_det
        assert a == pytest.approx(b, rel=1e-12)

    def test_nested_interval_monotonicity(self):
        inner = gap_probability(GapProblem(sine_kernel, (-0.2, 0.2))).raw_det
        outer = gap_probability(GapProblem(sine_kernel, (-0.4, 0.4))).raw_det
        assert inner >= outer

    def test_determinant_outside_unit_interval_raises(self):
        # negated kernel pushes the determinant above 1
        with pytest.raises(NonConvergence, match=r"\[0\.0, 0\.5\] at m=16"):
            gap_probability(GapProblem(lambda x, y: -sine_kernel(x, y), (0.0, 0.5)))

    def test_clamping_within_tolerance(self):
        # a determinant within the tolerance of [0, 1] is clamped into it
        res = gap_probability(
            GapProblem(lambda x, y: -1e-10 * np.ones_like(x + y), (0.0, 1.0))
        )
        assert 1.0 < res.raw_det <= 1.0 + 1e-8
        assert res.probability == 1.0

    def test_drifting_kernel_raises_nonconvergence(self):
        calls = [0]

        def drifting(x, y):
            calls[0] += 1
            return 0.1 * calls[0] * np.ones_like(x + y)

        with pytest.raises(NonConvergence):
            gap_probability(GapProblem(drifting, (0.0, 1.0)))


class TestExactKernelGap:
    def test_interval_far_outside_spectrum(self):
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        ev = KernelEvaluator(cfg, 0.3)
        res = gap_probability(GapProblem(ev, (10.0, 11.0)))
        assert res.raw_det == pytest.approx(1.0, abs=1e-9)

    def test_interval_covering_spectrum(self):
        # all three eigenvalues live well inside [-6, 6] at t = 0.3, so the
        # no-eigenvalue probability there is essentially zero
        cfg = InitialConfiguration.explicit([-1.0, 0.0, 1.0])
        ev = KernelEvaluator(cfg, 0.3)
        res = gap_probability(GapProblem(ev, (-6.0, 6.0)))
        assert abs(res.raw_det) <= 1e-6
        assert res.probability == max(0.0, res.raw_det)
