"""Unit tests for the univariate Gaussian primitives."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats

from repro.core import gaussian


class TestPdf:
    def test_standard_normal_peak(self):
        assert gaussian.pdf(0.0, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_matches_scipy(self):
        for x, mu, sigma in [(0.3, 0.1, 0.5), (-2.0, 1.0, 2.0), (5.0, 5.0, 0.01)]:
            assert gaussian.pdf(x, mu, sigma) == pytest.approx(
                stats.norm.pdf(x, mu, sigma), rel=1e-12
            )

    def test_symmetry_in_x_and_mu(self):
        # N_{mu,sigma}(x) == N_{x,sigma}(mu) — the symmetry Definition 1
        # exploits to swap observation and true value.
        assert gaussian.pdf(0.7, 0.2, 0.3) == pytest.approx(
            gaussian.pdf(0.2, 0.7, 0.3)
        )

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            gaussian.pdf(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian.pdf(0.0, 0.0, -1.0)

    @given(
        x=st.floats(-50, 50),
        mu=st.floats(-50, 50),
        sigma=st.floats(0.01, 100),
    )
    # pdf is the subnormal 1.3e-320 here, whose log is off by 1e-4.
    @example(x=0.0, mu=42.25, sigma=1.1015625)
    def test_log_pdf_consistent_with_pdf(self, x, mu, sigma):
        log_value = gaussian.log_pdf(x, mu, sigma)
        direct = gaussian.pdf(x, mu, sigma)
        if direct >= sys.float_info.min:
            assert log_value == pytest.approx(math.log(direct), rel=1e-9, abs=1e-9)
        elif direct > 0.0:
            # A subnormal holds its value only to an absolute 2**-1074:
            # exp rounds to that, the division by sigma * sqrt(2 pi)
            # scales the error and rounds once more. The true density
            # lies within ``error`` of pdf, so log_pdf lies within the
            # logs of that interval.
            error = math.ulp(0.0) * (1.0 + 1.0 / (gaussian.SQRT_TWO_PI * sigma))
            low = math.log(direct - error) if direct > error else -math.inf
            assert low - 1e-9 <= log_value <= math.log(direct + error) + 1e-9
        else:
            # pdf underflowed; log form must still be finite.
            assert math.isfinite(log_value)

    def test_log_pdf_far_tail_finite(self):
        # 27-dim products need log densities far beyond float range.
        value = gaussian.log_pdf(1000.0, 0.0, 0.001)
        assert math.isfinite(value)
        assert value < -1e8


class TestCdf:
    def test_median(self):
        assert gaussian.cdf(0.0) == pytest.approx(0.5)

    def test_matches_scipy(self):
        for z in (-3.0, -1.0, 0.0, 0.5, 2.5):
            assert gaussian.cdf(z) == pytest.approx(stats.norm.cdf(z), abs=1e-12)

    def test_location_scale(self):
        assert gaussian.cdf(1.5, mu=1.0, sigma=0.5) == pytest.approx(
            stats.norm.cdf(1.5, 1.0, 0.5)
        )

    @given(z=st.floats(-8, 8))
    def test_poly5_accuracy(self, z):
        # Abramowitz & Stegun 26.2.17 promises |error| < 7.5e-8 — the
        # "degree-5 polynomial" sigmoid approximation of Section 5.3.
        assert gaussian.cdf_poly5(z) == pytest.approx(
            stats.norm.cdf(z), abs=7.5e-8
        )

    def test_poly5_symmetry(self):
        for z in (0.1, 1.0, 2.7):
            assert gaussian.cdf_poly5(-z) == pytest.approx(
                1.0 - gaussian.cdf_poly5(z), abs=1e-12
            )

    def test_poly5_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian.cdf_poly5(0.0, sigma=0.0)


class TestVectorised:
    def test_log_pdf_array_matches_scalar(self):
        x = np.array([0.1, 0.5, -1.0])
        mu = np.array([0.0, 0.5, 1.0])
        sigma = np.array([1.0, 0.2, 3.0])
        out = gaussian.log_pdf_array(x, mu, sigma)
        for i in range(3):
            assert out[i] == pytest.approx(
                gaussian.log_pdf(x[i], mu[i], sigma[i])
            )

    def test_log_pdf_array_broadcasts(self):
        x = np.zeros((4, 3))
        mu = np.zeros(3)
        sigma = np.ones(3)
        assert gaussian.log_pdf_array(x, mu, sigma).shape == (4, 3)

    def test_log_pdf_array_rejects_zero_sigma(self):
        with pytest.raises(ValueError):
            gaussian.log_pdf_array(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))

    def test_log_pdf_sum_is_product_density(self):
        x = np.array([0.2, 0.8])
        mu = np.array([0.0, 1.0])
        sigma = np.array([0.5, 0.25])
        expected = stats.norm.logpdf(x, mu, sigma).sum()
        assert gaussian.log_pdf_sum(x, mu, sigma) == pytest.approx(expected)


class TestPeak:
    def test_peak_density(self):
        assert gaussian.peak_density(2.0) == pytest.approx(
            stats.norm.pdf(0.0, 0.0, 2.0)
        )

    def test_log_peak_density(self):
        assert gaussian.log_peak_density(0.1) == pytest.approx(
            math.log(gaussian.peak_density(0.1))
        )

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian.peak_density(-0.5)
        with pytest.raises(ValueError):
            gaussian.log_peak_density(0.0)


class TestLogSumExp:
    def test_empty(self):
        assert gaussian.logsumexp(np.array([])) == -math.inf

    def test_single(self):
        assert gaussian.logsumexp(np.array([-5.0])) == pytest.approx(-5.0)

    def test_matches_naive_when_safe(self):
        vals = np.array([-1.0, -2.0, -3.0])
        assert gaussian.logsumexp(vals) == pytest.approx(
            math.log(np.exp(vals).sum())
        )

    def test_extreme_values_stable(self):
        vals = np.array([-1500.0, -1501.0])
        out = gaussian.logsumexp(vals)
        assert out == pytest.approx(-1500.0 + math.log(1 + math.exp(-1.0)))

    def test_all_neg_inf(self):
        assert gaussian.logsumexp(np.array([-math.inf, -math.inf])) == -math.inf

    def test_pos_inf_propagates(self):
        # Regression: m + log(sum(exp(values - m))) evaluates inf - inf
        # for the +inf entry and used to return NaN.
        assert gaussian.logsumexp(np.array([math.inf])) == math.inf
        assert gaussian.logsumexp(np.array([0.0, math.inf])) == math.inf
        assert gaussian.logsumexp(np.array([-math.inf, math.inf])) == math.inf
        assert (
            gaussian.logsumexp(np.array([math.inf, math.inf])) == math.inf
        )

    def test_nan_propagates(self):
        assert math.isnan(gaussian.logsumexp(np.array([math.nan])))
        assert math.isnan(gaussian.logsumexp(np.array([0.0, math.nan])))
        assert math.isnan(
            gaussian.logsumexp(np.array([math.inf, math.nan]))
        )
        assert math.isnan(
            gaussian.logsumexp(np.array([-math.inf, math.nan]))
        )

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    def test_dominates_max(self, values):
        arr = np.array(values)
        out = gaussian.logsumexp(arr)
        assert out >= arr.max() - 1e-12
        assert out <= arr.max() + math.log(len(values)) + 1e-12
